// Package exec executes path queries and updates against the object store:
// naively, by forward navigation (the expensive evaluation the paper's
// introduction motivates indexing with), and through an index
// configuration, by chaining subpath-index lookups — the OIDs produced by
// the subpath closer to the ending attribute are the key values probed
// into the preceding subpath's index (Proposition 4.1 made operational).
//
// The index structures of a configuration are owned by an IndexSet (see
// indexset.go), the copy-on-write unit the lifecycle engine swaps during
// online reconfiguration.
package exec

import (
	"errors"
	"fmt"

	"repro/internal/oodb"
	"repro/internal/schema"
)

// NaiveQuery evaluates the nested predicate A_n = value for objects of
// targetClass (optionally including subclasses) by scanning the class and
// navigating forward references, counting object-store page accesses.
func NaiveQuery(st *oodb.Store, p *schema.Path, value oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	return naiveMatch(st, p, targetClass, hierarchy, func(v oodb.Value) bool { return v.Equal(value) })
}

// PathLevel resolves targetClass to its level within p, or an error when
// the class is outside p's scope: the first level whose class targetClass
// is, or inherits from, found by walking targetClass's superclasses
// (schema.IsSubclassOf, where a class the schema lacks matches nothing)
// rather than by building each level's hierarchy. The per-level
// hierarchies of a path are disjoint (schema.NewPath, Definition 2.1), so
// every resolver — this one, IndexSet.LevelOf, index.Subpath and
// stats.Recorder — finds the same single level.
func PathLevel(p *schema.Path, targetClass string) (int, error) {
	for l := 1; l <= p.Len(); l++ {
		if p.Schema().IsSubclassOf(targetClass, p.Class(l)) {
			return l, nil
		}
	}
	return 0, fmt.Errorf("exec: class %q not in scope of %s", targetClass, p)
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
