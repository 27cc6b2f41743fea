package index

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/cost"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/storage"
)

// chained is the structure MX and MIX share (Section 2.2): attribute
// indexes on the path attribute of every level of the subpath, queried by
// chaining lookups backward — the OIDs returned at level i are the key
// values probed at level i-1. MIX is MX with one index per class hierarchy
// instead of one per class, and that is all the two differ in: which
// classes each entry of levels covers, and whether an owner registry
// exists to tell a hierarchy-wide record's OIDs apart.
type chained struct {
	org   cost.Organization
	sp    *Subpath
	pager *storage.Pager
	// levels[l-A] lists the attribute indexes at global level l, in
	// hierarchy order: one per class (MX) or a single one covering the
	// whole hierarchy (MIX).
	levels [][]*AttrIndex
	// ownerClass records the class of each indexed OID so a record
	// covering several classes can be filtered to the ones asked for; nil
	// when every index covers one class. A real system reads the class off
	// the OID's page; the registry avoids charging object-store accesses to
	// the index pager.
	ownerClass map[oodb.OID]string
}

// MultiIndex is the MX organization: one simple index per class in the
// scope of the subpath.
type MultiIndex struct{ chained }

// MultiInheritedIndex is the MIX organization: one inherited
// (hierarchy-wide) index per level of the subpath; a record for a value
// holds the OIDs of the whole hierarchy holding it.
type MultiInheritedIndex struct{ chained }

// newChained allocates the attribute indexes of subpath [a..b] of p, all on
// one pager sized pageSize: per level one index per class for MX, one for
// the whole hierarchy for MIX.
func newChained(org cost.Organization, p *schema.Path, a, b, pageSize int) (chained, error) {
	sp, err := NewSubpath(p, a, b)
	if err != nil {
		return chained{}, err
	}
	pager, err := storage.NewPager(pageSize, 0)
	if err != nil {
		return chained{}, err
	}
	c := chained{org: org, sp: sp, pager: pager}
	if org == cost.MIX {
		c.ownerClass = make(map[oodb.OID]string)
	}
	for l := a; l <= b; l++ {
		hier := sp.classesAt(l)
		step := len(hier)
		if org == cost.MX {
			step = 1
		}
		var level []*AttrIndex
		for i := 0; i < len(hier); i += step {
			name := fmt.Sprintf("%s/%d/%s", org, l, hier[i])
			ai, err := NewAttrIndex(pager, name, sp.Attr(l), hier[i:i+step])
			if err != nil {
				return chained{}, err
			}
			level = append(level, ai)
		}
		c.levels = append(c.levels, level)
	}
	return c, nil
}

// NewMultiIndex allocates the MX structure for subpath [a..b] of p, with
// all component indexes on one pager sized pageSize.
func NewMultiIndex(p *schema.Path, a, b, pageSize int) (*MultiIndex, error) {
	c, err := newChained(cost.MX, p, a, b, pageSize)
	if err != nil {
		return nil, err
	}
	return &MultiIndex{c}, nil
}

// NewMultiInheritedIndex allocates the MIX structure for subpath [a..b].
func NewMultiInheritedIndex(p *schema.Path, a, b, pageSize int) (*MultiInheritedIndex, error) {
	c, err := newChained(cost.MIX, p, a, b, pageSize)
	if err != nil {
		return nil, err
	}
	return &MultiInheritedIndex{c}, nil
}

// Org returns cost.MX or cost.MIX.
func (c *chained) Org() cost.Organization { return c.org }

// Bounds returns the covered levels.
func (c *chained) Bounds() (int, int) { return c.sp.A, c.sp.B }

// Stats returns the pager counters.
func (c *chained) Stats() storage.Stats { return c.pager.Stats() }

// ResetStats zeroes the pager counters.
func (c *chained) ResetStats() { c.pager.ResetStats() }

// ClassIndex exposes one component index (for tests and geometry checks).
func (mx *MultiIndex) ClassIndex(l int, class string) *AttrIndex {
	if l < mx.sp.A || l > mx.sp.B {
		return nil
	}
	for _, ai := range mx.levels[l-mx.sp.A] {
		if ai.Covers(class) {
			return ai
		}
	}
	return nil
}

// LevelIndex exposes the hierarchy index at global level l.
func (mix *MultiInheritedIndex) LevelIndex(l int) *AttrIndex {
	if l < mix.sp.A || l > mix.sp.B {
		return nil
	}
	return mix.levels[l-mix.sp.A][0]
}

// LookupInto chains from the record under key back to the target class's
// level.
func (c *chained) LookupInto(key oodb.Value, targetClass string, hierarchy bool, dst []oodb.OID, sc *Scratch) ([]oodb.OID, error) {
	return c.lookup(pointHop(sc, key), targetClass, hierarchy, dst, sc)
}

// LookupKeys chains from the records under a sorted OID set.
func (c *chained) LookupKeys(keys []oodb.OID, targetClass string, hierarchy bool, dst []oodb.OID, sc *Scratch) ([]oodb.OID, error) {
	return c.lookup(firstHop{keys: keys}, targetClass, hierarchy, dst, sc)
}

// LookupRange chains from the records in [lo, hi).
func (c *chained) LookupRange(lo, hi oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	return lookupRange(c.lookup, lo, hi, targetClass, hierarchy)
}

// lookup is the MX/MIX kernel: hop reads the level-B indexes, every level
// below is a key-set hop over the sorted, deduplicated OIDs of the level
// above, held in sc's ping-pong buffers, and the target level's OIDs are
// appended (unordered) to dst.
func (c *chained) lookup(hop firstHop, targetClass string, hierarchy bool, dst []oodb.OID, sc *Scratch) ([]oodb.OID, error) {
	l, ok := c.sp.LevelOf(targetClass)
	if !ok {
		return dst, fmt.Errorf("index: class %s not in subpath scope", targetClass)
	}
	curBuf, nextBuf := sc.a, sc.b
	defer func() { sc.a, sc.b = curBuf, nextBuf }()
	var out []oodb.OID
	collect := func(r *btree.Record) (err error) {
		out, err = appendOIDSet(out, r.Read(0, r.Len()))
		return err
	}
	for i := c.sp.B; ; i-- {
		out = nextBuf[:0]
		if i == l {
			out = dst
		}
		for _, ai := range c.levels[i-c.sp.A] {
			// At the target's level an index none of whose classes is asked
			// for is skipped (MX: another class's index), and one only some
			// of whose classes are has its OIDs filtered (MIX: a record holds
			// the whole hierarchy).
			asked := len(ai.classes)
			if i == l {
				asked = 0
				for _, cn := range ai.classes {
					if c.sp.targetMatch(cn, targetClass, hierarchy) {
						asked++
					}
				}
				if asked == 0 {
					continue
				}
			}
			mark := len(out)
			if err := hop.records(ai.tree, sc, collect); err != nil {
				return dst, err
			}
			if asked < len(ai.classes) {
				kept := out[:mark]
				for _, o := range out[mark:] {
					if cls, ok := c.ownerClass[o]; ok && c.sp.targetMatch(cls, targetClass, hierarchy) {
						kept = append(kept, o)
					}
				}
				out = kept
			}
		}
		if i == l {
			return out, nil
		}
		hop = firstHop{keys: oodb.SortUnique(out)}
		if len(hop.keys) == 0 {
			return dst, nil
		}
		curBuf, nextBuf = hop.keys, curBuf
	}
}

// covering returns the level of a class in scope and the index covering it.
func (c *chained) covering(class string) (int, *AttrIndex, error) {
	l, ok := c.sp.LevelOf(class)
	if ok {
		for _, ai := range c.levels[l-c.sp.A] {
			if ai.Covers(class) {
				return l, ai, nil
			}
		}
	}
	return 0, nil, fmt.Errorf("index: class %s not in subpath scope", class)
}

// OnInsert adds the object to the index covering its class.
func (c *chained) OnInsert(obj *oodb.Object) error {
	_, ai, err := c.covering(obj.Class)
	if err != nil {
		return err
	}
	if c.ownerClass != nil {
		c.ownerClass[obj.OID] = obj.Class
	}
	return ai.Add(obj)
}

// OnUpdates re-keys each pair's object in the index covering its class:
// the OIDs it produced for vanished values are removed and entries for
// gained values added, every component index editing all its pairs through
// one sweep. Other levels — and the owner registry — are untouched: the
// object's class and its OID, the key other levels chain through, do not
// change on an in-place update.
func (c *chained) OnUpdates(pairs []Pair) error {
	for _, p := range pairs {
		if _, _, err := c.covering(p.Old.Class); err != nil {
			return err
		}
	}
	for _, p := range pairs {
		_, ai, _ := c.covering(p.Old.Class)
		ai.stageUpdate(p)
	}
	for _, level := range c.levels {
		for _, ai := range level {
			ai.apply()
		}
	}
	return nil
}

// OnDelete removes the object from the index covering its class and, per
// Section 3.1, drops the records keyed by its OID from every index of the
// previous level within the subpath.
func (c *chained) OnDelete(obj *oodb.Object) error {
	l, ai, err := c.covering(obj.Class)
	if err != nil {
		return err
	}
	if err := ai.Remove(obj); err != nil {
		return err
	}
	delete(c.ownerClass, obj.OID)
	if l > c.sp.A {
		c.removeKey(l-1, obj.OID)
	}
	return nil
}

// BoundaryDelete drops the records keyed by an OID of level B+1 from the
// level-B indexes (Definition 4.2).
func (c *chained) BoundaryDelete(oid oodb.OID) error {
	if !c.sp.EndsPath() {
		c.removeKey(c.sp.B, oid)
	}
	return nil
}

func (c *chained) removeKey(l int, oid oodb.OID) {
	for _, ai := range c.levels[l-c.sp.A] {
		ai.RemoveKey(oid)
	}
}
