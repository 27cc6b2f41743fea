// Package exec executes path queries and updates against the object store:
// naively, by forward navigation (the expensive evaluation the paper's
// introduction motivates indexing with), and through an index
// configuration, by chaining subpath-index lookups — the OIDs produced by
// the subpath closer to the ending attribute are the key values probed
// into the preceding subpath's index (Proposition 4.1 made operational).
//
// The index structures of a configuration are owned by an IndexSet (see
// indexset.go), the copy-on-write unit the lifecycle engine swaps during
// online reconfiguration. Configured couples a store with a single set
// for callers that never reconfigure.
package exec

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/storage"
)

// NaiveQuery evaluates the nested predicate A_n = value for objects of
// targetClass (optionally including subclasses) by scanning the class and
// navigating forward references, counting object-store page accesses.
func NaiveQuery(st *oodb.Store, p *schema.Path, value oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	return naiveMatch(st, p, targetClass, hierarchy, func(v oodb.Value) bool { return v.Equal(value) })
}

// PathLevel resolves targetClass to its level within p (its last
// occurrence across the per-level hierarchies, matching naive
// evaluation's level resolution), or an error when the class is outside
// p's scope.
func PathLevel(p *schema.Path, targetClass string) (int, error) {
	level := 0
	for l := 1; l <= p.Len(); l++ {
		for _, cn := range p.HierarchyAt(l) {
			if cn == targetClass {
				level = l
			}
		}
	}
	if level == 0 {
		return 0, fmt.Errorf("exec: class %q not in scope of %s", targetClass, p)
	}
	return level, nil
}

// Reaches reports whether obj — an object at the given level of p —
// navigates forward along p to an ending-attribute value satisfying
// pred. Page accesses for the objects visited are counted through the
// store's pager; dangling forward references (expected after deletions
// under the paper's reference model) are skipped. This is the one
// verification primitive shared by naive evaluation and the planner's
// residual post-filter.
func Reaches(st *oodb.Store, p *schema.Path, obj *oodb.Object, level int, pred func(oodb.Value) bool) (bool, error) {
	if level == p.Len() {
		for _, v := range obj.Values(p.Attr(level)) {
			if pred(v) {
				return true, nil
			}
		}
		return false, nil
	}
	for _, r := range obj.Refs(p.Attr(level)) {
		child, err := st.Get(r)
		if err != nil {
			if errors.Is(err, oodb.ErrNotFound) {
				// Dangling forward reference after a deletion —
				// expected under the paper's reference model.
				continue
			}
			return false, err
		}
		ok, err := Reaches(st, p, child, level+1, pred)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// naiveMatch scans targetClass and navigates forward, collecting objects
// whose nested ending value satisfies pred.
func naiveMatch(st *oodb.Store, p *schema.Path, targetClass string, hierarchy bool, pred func(oodb.Value) bool) ([]oodb.OID, error) {
	level, err := PathLevel(p, targetClass)
	if err != nil {
		return nil, err
	}
	var out []oodb.OID
	var scanErr error
	scan := func(obj *oodb.Object) bool {
		ok, err := Reaches(st, p, obj, level, pred)
		if err != nil {
			scanErr = err
			return false
		}
		if ok {
			out = append(out, obj.OID)
		}
		return true
	}
	if hierarchy {
		st.ScanHierarchy(targetClass, scan)
	} else {
		st.ScanClass(targetClass, scan)
	}
	if scanErr != nil {
		return nil, scanErr
	}
	return oodb.SortUnique(out), nil
}

// NaiveQueryRange evaluates A_n IN [lo, hi) by forward navigation.
func NaiveQueryRange(st *oodb.Store, p *schema.Path, lo, hi oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	if lo.Kind != hi.Kind {
		return nil, fmt.Errorf("exec: range bounds of different kinds")
	}
	inRange := func(v oodb.Value) bool {
		if v.Kind != lo.Kind {
			return false
		}
		switch v.Kind {
		case oodb.IntVal:
			return v.Int >= lo.Int && v.Int < hi.Int
		case oodb.StrVal:
			return v.Str >= lo.Str && v.Str < hi.Str
		default:
			return v.Ref >= lo.Ref && v.Ref < hi.Ref
		}
	}
	return naiveMatch(st, p, targetClass, hierarchy, inRange)
}

// Configured couples an object store with the index structures of one
// index configuration and keeps them maintained under inserts, in-place
// updates and deletes. It is a thin wrapper over a single IndexSet; for a database
// whose configuration can change underneath live traffic, use the
// lifecycle engine instead.
type Configured struct {
	Store *oodb.Store
	Path  *schema.Path
	set   *IndexSet
}

// NewConfigured builds the index structures of cfg over the store's
// current contents and returns the coupled executor. Index pages are
// sized pageSize.
func NewConfigured(st *oodb.Store, p *schema.Path, cfg core.Configuration, pageSize int) (*Configured, error) {
	set, err := NewIndexSet(st, p, cfg, pageSize, nil)
	if err != nil {
		return nil, err
	}
	return &Configured{Store: st, Path: p, set: set}, nil
}

// Config returns the configuration the executor was built from.
func (c *Configured) Config() core.Configuration { return c.set.Config() }

// Query evaluates A_n = value for targetClass through the configuration.
func (c *Configured) Query(value oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	c.set.RLock()
	defer c.set.RUnlock()
	return c.set.Query(value, targetClass, hierarchy)
}

// QueryRange evaluates A_n IN [lo, hi) for targetClass.
func (c *Configured) QueryRange(lo, hi oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	c.set.RLock()
	defer c.set.RUnlock()
	return c.set.QueryRange(lo, hi, targetClass, hierarchy)
}

// Insert stores a new object and maintains the owning subpath's index.
func (c *Configured) Insert(class string, attrs map[string][]oodb.Value) (oodb.OID, error) {
	return c.set.InsertInto(c.Store, class, attrs)
}

// Update applies an in-place update — attribute value changes and
// reference re-links — and maintains the owning subpath's index
// incrementally from the before/after pair. A missing OID reports
// oodb.ErrNotFound.
func (c *Configured) Update(oid oodb.OID, attrs map[string][]oodb.Value) error {
	return c.set.UpdateIn(c.Store, oid, attrs)
}

// UpdateBatch applies a batch of in-place updates in input order (see
// IndexSet.UpdateBatch); the result has one entry per update, nil on
// success.
func (c *Configured) UpdateBatch(ups []Update) []error {
	return c.set.UpdateBatch(c.Store, ups)
}

// Delete removes an object, maintains the owning subpath's index, and —
// when the object's class starts a subpath — performs the Definition 4.2
// boundary maintenance on the preceding subpath's index. A missing OID
// reports oodb.ErrNotFound.
func (c *Configured) Delete(oid oodb.OID) error {
	return c.set.DeleteFrom(c.Store, oid)
}

// QueryInto is Query appending the result to dst — the allocation-free
// serving kernel (see IndexSet.QueryInto).
func (c *Configured) QueryInto(dst []oodb.OID, value oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	c.set.RLock()
	defer c.set.RUnlock()
	return c.set.QueryInto(dst, value, targetClass, hierarchy)
}

// QueryBatch fans a batch of point probes across a bounded worker pool;
// results are in probe order and bit-identical to sequential evaluation.
func (c *Configured) QueryBatch(probes []Probe) ([][]oodb.OID, error) {
	c.set.RLock()
	defer c.set.RUnlock()
	return c.set.QueryBatch(probes)
}

// IndexStats sums the page-access counters over all subpath indexes.
func (c *Configured) IndexStats() storage.Stats { return c.set.Stats() }

// ResetStats zeroes all index counters.
func (c *Configured) ResetStats() { c.set.ResetStats() }
