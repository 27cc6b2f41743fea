package index

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/cost"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/storage"
)

// NestedIndexNX is the working nested index of [1] (the second Section 6
// incorporation): a single B+-tree mapping each ending value to the OIDs
// of the subpath's *starting* class hierarchy reaching it. It answers
// starting-class queries with one lookup and supports nothing else; with
// no auxiliary structure, maintenance after an inner-level deletion must
// re-derive the affected starting objects by scanning the starting
// hierarchy and re-navigating — exactly the trade-off its cost model
// charges for.
type NestedIndexNX struct {
	sp    *Subpath
	store *oodb.Store
	pager *storage.Pager
	tree  *btree.Tree
}

// NewNestedIndexNX allocates the NX for subpath [a..b] of p over store.
func NewNestedIndexNX(store *oodb.Store, p *schema.Path, a, b, pageSize int) (*NestedIndexNX, error) {
	if store == nil {
		return nil, fmt.Errorf("index: NX needs a store for navigation")
	}
	sp, err := NewSubpath(p, a, b)
	if err != nil {
		return nil, err
	}
	pager, err := storage.NewPager(pageSize, 0)
	if err != nil {
		return nil, err
	}
	return &NestedIndexNX{sp: sp, store: store, pager: pager, tree: btree.New(pager, "nx")}, nil
}

// Org returns cost.NX.
func (nx *NestedIndexNX) Org() cost.Organization { return cost.NX }

// Bounds returns the covered levels.
func (nx *NestedIndexNX) Bounds() (int, int) { return nx.sp.A, nx.sp.B }

// Stats returns the index pager counters.
func (nx *NestedIndexNX) Stats() storage.Stats { return nx.pager.Stats() }

// ResetStats zeroes the index pager counters.
func (nx *NestedIndexNX) ResetStats() { nx.pager.ResetStats() }

// Tree exposes the underlying B+-tree.
func (nx *NestedIndexNX) Tree() *btree.Tree { return nx.tree }

// LookupInto reads the record under key.
func (nx *NestedIndexNX) LookupInto(key oodb.Value, targetClass string, hierarchy bool, dst []oodb.OID, sc *Scratch) ([]oodb.OID, error) {
	return nx.lookup(pointHop(sc, key), targetClass, hierarchy, dst, sc)
}

// LookupRange reads every record in [lo, hi).
func (nx *NestedIndexNX) LookupRange(lo, hi oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	return lookupRange(nx.lookup, lo, hi, targetClass, hierarchy)
}

// lookup is the NX kernel. It answers queries with respect to the starting
// class (or its hierarchy) only — the structure holds no inner-class
// information — and restricts the hierarchy-wide records to the class(es)
// asked for by consulting the store (catalog information, no page charge).
func (nx *NestedIndexNX) lookup(hop firstHop, targetClass string, hierarchy bool, dst []oodb.OID, sc *Scratch) ([]oodb.OID, error) {
	l, ok := nx.sp.LevelOf(targetClass)
	if !ok {
		return dst, fmt.Errorf("index: class %s not in subpath scope", targetClass)
	}
	if l != nx.sp.A {
		return dst, fmt.Errorf("index: nested index answers only starting-class queries (class %s is at level %d)", targetClass, l)
	}
	base := len(dst)
	err := hop.records(nx.tree, sc, func(val []byte) (err error) {
		dst, err = appendOIDSet(dst, val)
		return err
	})
	if err != nil {
		return dst[:base], err
	}
	kept := dst[:base]
	for _, o := range dst[base:] {
		if obj, ok := nx.store.Peek(o); ok && nx.sp.targetMatch(obj.Class, targetClass, hierarchy) {
			kept = append(kept, o)
		}
	}
	return kept, nil
}

// reachedValues navigates forward from a starting object, optionally
// treating excl as deleted.
func (nx *NestedIndexNX) reachedValues(obj *oodb.Object, excl oodb.OID) map[string]bool {
	return nx.reachedValuesAs(obj, excl, nil)
}

// reachedValuesAs is reachedValues with a substitute: when sub is
// non-nil, navigation uses sub in place of the stored object carrying
// sub's OID. After the store has already applied an update this
// reconstructs pre-update reachability by substituting the old state.
func (nx *NestedIndexNX) reachedValuesAs(obj *oodb.Object, excl oodb.OID, sub *oodb.Object) map[string]bool {
	keys := make(map[string]bool)
	var walk func(o *oodb.Object, i int)
	walk = func(o *oodb.Object, i int) {
		if sub != nil && o.OID == sub.OID {
			o = sub
		}
		if i == nx.sp.B {
			for _, v := range o.Values(nx.sp.Attr(i)) {
				keys[string(EncodeValue(v))] = true
			}
			return
		}
		for _, r := range o.Refs(nx.sp.Attr(i)) {
			if r == excl {
				continue
			}
			child, err := nx.store.Get(r)
			if err != nil {
				continue
			}
			walk(child, i+1)
		}
	}
	walk(obj, nx.sp.A)
	return keys
}

// OnInsert maintains the index. Starting-class objects add themselves to
// every reached record; inner-level insertions are no-ops because forward
// references guarantee no existing ancestor points at a new object.
func (nx *NestedIndexNX) OnInsert(obj *oodb.Object) error {
	l, ok := nx.sp.LevelOf(obj.Class)
	if !ok {
		return fmt.Errorf("index: class %s not in subpath scope", obj.Class)
	}
	if l != nx.sp.A {
		return nil
	}
	for _, k := range sortedKeys(nx.reachedValues(obj, 0), nil) {
		nx.tree.Update([]byte(k), func(old []byte) []byte {
			return addOID(old, obj.OID)
		})
	}
	return nil
}

// OnUpdate maintains the index for an in-place update. A starting-class
// update re-navigates from the old and new states and moves the object's
// OID between the records whose reachability changed. An inner-level
// update — like an inner-level deletion — forces the scan its cost model
// charges for: every starting object is re-navigated twice, once with the
// old state substituted for the updated object and once against the live
// store, and moved between the records only where the two differ.
func (nx *NestedIndexNX) OnUpdate(old, upd *oodb.Object) error {
	l, ok := nx.sp.LevelOf(old.Class)
	if !ok {
		return fmt.Errorf("index: class %s not in subpath scope", old.Class)
	}
	if oodb.ValuesEqual(old.Values(nx.sp.Attr(l)), upd.Values(nx.sp.Attr(l))) {
		return nil
	}
	rekey := func(start oodb.OID, before, after map[string]bool) {
		for _, k := range sortedKeys(before, after) {
			nx.tree.Update([]byte(k), func(b []byte) []byte {
				return removeOID(b, start)
			})
		}
		for _, k := range sortedKeys(after, before) {
			nx.tree.Update([]byte(k), func(b []byte) []byte {
				return addOID(b, start)
			})
		}
	}
	if l == nx.sp.A {
		rekey(old.OID, nx.reachedValues(old, 0), nx.reachedValues(upd, 0))
		return nil
	}
	nx.store.ScanHierarchy(nx.sp.Path.Class(nx.sp.A), func(start *oodb.Object) bool {
		rekey(start.OID, nx.reachedValuesAs(start, 0, old), nx.reachedValues(start, 0))
		return true
	})
	return nil
}

// OnDelete maintains the index. Deleting a starting object removes it from
// its records; deleting an inner object forces a scan of the starting
// hierarchy: every starting object is re-navigated with the victim
// excluded and dropped from the keys it no longer reaches.
func (nx *NestedIndexNX) OnDelete(obj *oodb.Object) error {
	l, ok := nx.sp.LevelOf(obj.Class)
	if !ok {
		return fmt.Errorf("index: class %s not in subpath scope", obj.Class)
	}
	if l == nx.sp.A {
		for _, k := range sortedKeys(nx.reachedValues(obj, 0), nil) {
			nx.tree.Update([]byte(k), func(old []byte) []byte {
				return removeOID(old, obj.OID)
			})
		}
		return nil
	}
	// Inner-level deletion: the scan the cost model charges for.
	var fixErr error
	nx.store.ScanHierarchy(nx.sp.Path.Class(nx.sp.A), func(start *oodb.Object) bool {
		before := nx.reachedValues(start, 0)
		after := nx.reachedValues(start, obj.OID)
		for _, k := range sortedKeys(before, after) {
			nx.tree.Update([]byte(k), func(old []byte) []byte {
				return removeOID(old, start.OID)
			})
		}
		return true
	})
	return fixErr
}

// BoundaryDelete drops the record keyed by a deleted level-B+1 OID.
func (nx *NestedIndexNX) BoundaryDelete(oid oodb.OID) error {
	if nx.sp.EndsPath() {
		return nil
	}
	nx.tree.Delete(EncodeOID(oid))
	return nil
}
