package index

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/cost"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/storage"
)

// NestedInheritedIndex is the NIX organization (Section 3.1, Figures 3–5):
//
//   - a primary index mapping each value of the subpath's ending attribute
//     to, for every class in the subpath's scope, the (OID, numchild) pairs
//     of objects reaching that value through the path, laid out with a
//     class directory so a single class's section can be read without
//     fetching the whole (possibly multi-page) record;
//   - an auxiliary index mapping each object of levels A+1..B to its
//     3-tuple: aggregation parents and pointers to the primary records
//     containing it, used to maintain the primary index without navigating
//     the database.
//
// numchild of an entry (O, c) in the record of value v counts how many of
// O's children in the record also reach v; an entry is dropped when its
// count reaches zero, cascading to its own parents (the deletion algorithm
// of Section 3.1).
type NestedInheritedIndex struct {
	sp       *Subpath
	pager    *storage.Pager
	primary  *btree.Tree
	aux      *btree.Tree
	classPos map[string]int // class -> section position
	classes  []string       // section order: levels A..B, hierarchy order
	posLevel []int          // section position -> level
	// owner records the section (and with it the class) of every indexed
	// object, so the cascades can go straight to an ancestor's section
	// without navigating the database (the 3-tuples identify parents by OID
	// only). As in MIX, a real system would read the class off the OID's
	// page; the registry avoids charging object-store accesses to the index
	// pager.
	owner map[oodb.OID]int
	ms    maintScratch
}

// NewNestedInheritedIndex allocates the NIX for subpath [a..b].
func NewNestedInheritedIndex(p *schema.Path, a, b, pageSize int) (*NestedInheritedIndex, error) {
	sp, err := NewSubpath(p, a, b)
	if err != nil {
		return nil, err
	}
	pager, err := storage.NewPager(pageSize, 0)
	if err != nil {
		return nil, err
	}
	nx := &NestedInheritedIndex{
		sp:       sp,
		pager:    pager,
		primary:  btree.New(pager, "nix/primary"),
		aux:      btree.New(pager, "nix/aux"),
		classPos: make(map[string]int),
		owner:    make(map[oodb.OID]int),
	}
	for l := a; l <= b; l++ {
		for _, cn := range sp.classesAt(l) {
			nx.classPos[cn] = len(nx.classes)
			nx.classes = append(nx.classes, cn)
			nx.posLevel = append(nx.posLevel, l)
		}
	}
	nx.ms.tup = make([]auxTuple, b-a+1)
	nx.ms.view = newNixView(nx.primary, len(nx.classes))
	return nx, nil
}

// Org returns cost.NIX.
func (nx *NestedInheritedIndex) Org() cost.Organization { return cost.NIX }

// Bounds returns the covered levels.
func (nx *NestedInheritedIndex) Bounds() (int, int) { return nx.sp.A, nx.sp.B }

// Stats returns the pager counters.
func (nx *NestedInheritedIndex) Stats() storage.Stats { return nx.pager.Stats() }

// ResetStats zeroes the pager counters.
func (nx *NestedInheritedIndex) ResetStats() { nx.pager.ResetStats() }

// PrimaryTree and AuxTree expose the trees for geometry assertions.
func (nx *NestedInheritedIndex) PrimaryTree() *btree.Tree { return nx.primary }

// AuxTree exposes the auxiliary tree.
func (nx *NestedInheritedIndex) AuxTree() *btree.Tree { return nx.aux }

// headerLen is the byte length of the class directory: a count plus
// (offset, count) per class.
func (nx *NestedInheritedIndex) headerLen() int { return 4 + 8*len(nx.classes) }

// ---- lookup -------------------------------------------------------------

// LookupInto reads the target class's section(s) of the record under key.
func (nx *NestedInheritedIndex) LookupInto(key oodb.Value, targetClass string, hierarchy bool, dst []oodb.OID, sc *Scratch) ([]oodb.OID, error) {
	return nx.lookup(pointHop(sc, key), targetClass, hierarchy, dst, sc)
}

// LookupKeys reads them off the records under a sorted OID set.
func (nx *NestedInheritedIndex) LookupKeys(keys []oodb.OID, targetClass string, hierarchy bool, dst []oodb.OID, sc *Scratch) ([]oodb.OID, error) {
	return nx.lookup(firstHop{keys: keys}, targetClass, hierarchy, dst, sc)
}

// LookupRange reads them off every record in [lo, hi).
func (nx *NestedInheritedIndex) LookupRange(lo, hi oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	return lookupRange(nx.lookup, lo, hi, targetClass, hierarchy)
}

// lookup is the NIX kernel: every record the hop yields is opened once, and
// the class directory and then only the asked-for sections are read through
// that one handle — the covering pages of a multi-page record, each charged
// once, whichever hop found it. The hierarchy closure comes from the
// subpath's pre-resolved table.
func (nx *NestedInheritedIndex) lookup(hop firstHop, targetClass string, hierarchy bool, dst []oodb.OID, sc *Scratch) ([]oodb.OID, error) {
	if _, ok := nx.sp.LevelOf(targetClass); !ok {
		return dst, fmt.Errorf("index: class %s not in subpath scope", targetClass)
	}
	classes := nx.sp.HierarchyOf(targetClass)
	if !hierarchy {
		classes = classes[:1] // the pre-resolved hierarchy lists the class itself first
	}
	err := hop.records(nx.primary, sc, func(r *btree.Record) (err error) {
		dst, err = nx.appendSections(dst, classes, r)
		return err
	})
	return dst, err
}

// appendSections appends the OIDs of the given classes' sections of the
// primary record under r to dst.
func (nx *NestedInheritedIndex) appendSections(dst []oodb.OID, classes []string, r *btree.Record) ([]oodb.OID, error) {
	if r.Len() < nx.headerLen() {
		return dst, fmt.Errorf("index: truncated NIX record (%d bytes)", r.Len())
	}
	head := r.Read(0, nx.headerLen())
	for _, cn := range classes {
		pos, ok := nx.classPos[cn]
		if !ok {
			continue
		}
		off := int(binary.BigEndian.Uint32(head[4+8*pos:]))
		cnt := int(binary.BigEndian.Uint32(head[8+8*pos:]))
		if cnt == 0 {
			continue
		}
		if off+cnt*nixEntryLen > r.Len() {
			return dst, fmt.Errorf("index: NIX section %d out of bounds", pos)
		}
		dst = appendOIDs(dst, r.Read(off, cnt*nixEntryLen), cnt, nixEntryLen)
	}
	return dst, nil
}

// ---- maintenance ---------------------------------------------------------
//
// Every operation follows Section 3.1 and pays what the section charges:
// a 3-tuple is read, edited and written back through one descent of the
// auxiliary index, and a primary record is opened once (nixView), patched
// where it changes and flushed once, however long the cascade inside it.
// Records are visited in key order and children in reference order, never
// in map order, so the same operations always build the same trees.

// parentLink says what an operation does to the parent lists of the
// children it visits.
type parentLink int

const (
	linkKeep parentLink = iota
	linkAdd             // the object becomes a parent of its children
	linkDrop            // the object stops being one
)

// children visits the 3-tuples of obj's level-l children in reference
// order. Each tuple's pointers — the primary keys the child reaches — are
// counted into kl when it is non-nil, and link is applied to the parent
// list of every child that except does not reference as well, the tuple
// written back if that changed it. At level B the "children" are the
// ending values themselves and only kl is fed.
func (nx *NestedInheritedIndex) children(obj *oodb.Object, l int, kl *keyList, link parentLink, except []oodb.Value) error {
	vals := obj.Values(nx.sp.Attr(l))
	if l == nx.sp.B {
		if kl != nil {
			for _, v := range vals {
				kl.addValue(v)
			}
		}
		return nil
	}
	t := nx.tuple(l + 1)
	for _, v := range vals {
		if v.Kind != oodb.RefVal {
			continue
		}
		e := link
		if e != linkKeep && slices.ContainsFunc(except, v.Equal) {
			e = linkKeep
		}
		if kl == nil && e == linkKeep {
			continue
		}
		ok, err := nx.loadAux(v.Ref, t)
		if err != nil {
			return err
		}
		if kl != nil {
			for _, p := range t.pointers {
				kl.add(p)
			}
		}
		// A child not indexed yet (a dangling reference) still learns its
		// parent; it has nothing to forget.
		if e == linkAdd && t.addParent(obj.OID) || e == linkDrop && ok && t.removeParent(obj.OID) {
			nx.storeAux(t)
		}
	}
	return nil
}

// putPointers writes oid's 3-tuple with its pointer set replaced by the
// keys of kl; t holds the rest of the tuple.
func (nx *NestedInheritedIndex) putPointers(oid oodb.OID, t *auxTuple, kl *keyList) {
	t.pointers = t.pointers[:0]
	for i := 0; i < kl.len(); i++ {
		t.pointers = append(t.pointers, kl.key(i))
	}
	ms := &nx.ms
	ms.akey = AppendOID(ms.akey[:0], oid)
	nx.aux.Open(ms.akey, &ms.aux)
	nx.storeAux(t)
}

// OnInsert implements the insertion algorithm of Section 3.1: update the
// children's 3-tuples, add the object to the reachable primary records,
// and insert its own 3-tuple.
func (nx *NestedInheritedIndex) OnInsert(obj *oodb.Object) error {
	l, ok := nx.sp.LevelOf(obj.Class)
	if !ok {
		return fmt.Errorf("index: class %s not in subpath scope", obj.Class)
	}
	pos := nx.classPos[obj.Class]
	nx.owner[obj.OID] = pos

	// Step 2: visit children tuples, record parenthood, gather pointers.
	keys := &nx.ms.upd
	keys.reset()
	if err := nx.children(obj, l, keys, linkAdd, nil); err != nil {
		return err
	}
	keys.finish()

	// Step 3: add the object to each reachable primary record.
	v := &nx.ms.view
	for i := 0; i < keys.len(); i++ {
		if err := v.open(keys.key(i)); err != nil {
			return err
		}
		if j := v.find(pos, obj.OID); j >= 0 {
			v.setCount(pos, j, v.count(pos, j)+keys.count(i))
		} else {
			v.add(pos, obj.OID, keys.count(i))
		}
		v.flush()
	}

	// Step 4: the object's own 3-tuple (levels above A only; the first
	// class and its subclasses have no parents and no tuples).
	if l > nx.sp.A {
		t := nx.tuple(l)
		t.reset()
		nx.putPointers(obj.OID, t, keys)
	}
	return nil
}

// OnDelete implements the deletion algorithm of Section 3.1 with the
// numchild cascade: remove the object from every primary record containing
// it, decrement its parents' counts, and propagate removals whose counts
// reach zero.
func (nx *NestedInheritedIndex) OnDelete(obj *oodb.Object) error {
	l, ok := nx.sp.LevelOf(obj.Class)
	if !ok {
		return fmt.Errorf("index: class %s not in subpath scope", obj.Class)
	}

	// Step 1/2: determine SV; update children's tuples; fetch own tuple.
	// Level-A objects have no tuple; their records are reachable through
	// their children (or are the values themselves at B==A).
	keys := &nx.ms.old
	keys.reset()
	var parents []oodb.OID
	if l > nx.sp.A {
		if err := nx.children(obj, l, nil, linkDrop, nil); err != nil {
			return err
		}
		t := nx.tuple(l)
		ok, err := nx.loadAux(obj.OID, t)
		if err != nil {
			return err
		}
		if ok {
			for _, p := range t.pointers {
				keys.add(p)
			}
			parents = t.parents
			nx.dropAux()
		}
	} else if err := nx.children(obj, l, keys, linkDrop, nil); err != nil {
		return err
	}
	keys.finish()

	// Step 3: remove the object from each primary record and cascade.
	v := &nx.ms.view
	for i := 0; i < keys.len(); i++ {
		k := keys.key(i)
		if err := v.open(k); err != nil {
			return err
		}
		if err := nx.cascadeRemove(v, k, l, obj.OID, parents); err != nil {
			return err
		}
		v.flush()
	}
	delete(nx.owner, obj.OID)
	return nil
}

// OnUpdate implements incremental in-place update maintenance. The
// subpath attribute of the object's level is diffed:
//
//   - children dropped by a re-link lose this object from their 3-tuples'
//     parent lists, gained children acquire it;
//   - primary keys the object no longer reaches get the full deletion
//     cascade (its entry removed, ancestors' numchild decremented,
//     zero-count ancestors dropped recursively — cascadeRemove);
//   - keys newly reached get the mirror-image insertion cascade: the
//     object's entry added and the chain of ancestors above it re-keyed
//     into the record through the auxiliary index (cascadeAdd), never by
//     navigating the database;
//   - keys reached before and after only have the entry's numchild
//     reseeded.
//
// A delete-then-reinsert of the whole chain would touch every record the
// object reaches; the diff touches only the records whose membership
// actually changes.
func (nx *NestedInheritedIndex) OnUpdate(old, upd *oodb.Object) error {
	l, ok := nx.sp.LevelOf(old.Class)
	if !ok {
		return fmt.Errorf("index: class %s not in subpath scope", old.Class)
	}
	attr := nx.sp.Attr(l)
	oldVals, updVals := old.Values(attr), upd.Values(attr)
	if oodb.ValuesEqual(oldVals, updVals) {
		return nil
	}
	// The keys reached before come from the object's own 3-tuple (level-A
	// objects have none; their keys are re-derived through their old
	// children), the keys reached after from the new state. The same two
	// passes re-parent the children's 3-tuples (their pointer sets are
	// untouched: pointers track the keys a child reaches, not who
	// references it).
	oldKeys, newKeys := &nx.ms.old, &nx.ms.upd
	oldKeys.reset()
	newKeys.reset()
	var parents []oodb.OID
	own := nx.tuple(l)
	if l > nx.sp.A {
		if err := nx.children(old, l, nil, linkDrop, updVals); err != nil {
			return err
		}
		if _, err := nx.loadAux(old.OID, own); err != nil {
			return err
		}
		for _, p := range own.pointers {
			oldKeys.add(p)
		}
		parents = own.parents
	} else if err := nx.children(old, l, oldKeys, linkDrop, updVals); err != nil {
		return err
	}
	if err := nx.children(upd, l, newKeys, linkAdd, oldVals); err != nil {
		return err
	}
	oldKeys.finish()
	newKeys.finish()

	v := &nx.ms.view
	for i := 0; i < oldKeys.len(); i++ {
		k := oldKeys.key(i)
		if _, keep := newKeys.find(k); keep {
			continue
		}
		if err := v.open(k); err != nil {
			return err
		}
		if err := nx.cascadeRemove(v, k, l, old.OID, parents); err != nil {
			return err
		}
		v.flush()
	}
	pos := nx.classPos[old.Class]
	for i := 0; i < newKeys.len(); i++ {
		k, cnt := newKeys.key(i), newKeys.count(i)
		// Keys reached both before and after only need their numchild
		// reseeded — and not even that when the count is unchanged: at
		// level A the old counts were just derived (skip without touching
		// the tree), above it the read confirms before any write.
		j, kept := oldKeys.find(k)
		if kept && l == nx.sp.A && oldKeys.count(j) == cnt {
			continue
		}
		if err := v.open(k); err != nil {
			return err
		}
		if !kept {
			if err := nx.cascadeAdd(v, k, l, old.OID, cnt, parents); err != nil {
				return err
			}
		} else if e := v.find(pos, old.OID); e < 0 {
			v.add(pos, old.OID, cnt)
		} else if v.count(pos, e) != cnt {
			v.setCount(pos, e, cnt)
		}
		v.flush()
	}
	// Refresh the object's own pointer set to the keys now reached.
	if l > nx.sp.A {
		nx.putPointers(old.OID, own, newKeys)
	}
	return nil
}

// cascadeAdd inserts the entry (oid, count) at level l into the record v
// (keyed by k) and repairs the chain above it — the mirror image of
// cascadeRemove: an aggregation parent already present in the record gains
// one child (numchild incremented); a parent not yet in the record enters
// it with numchild 1, k is added to its pointer set, and the cascade
// recurses with the parent's own parents from the auxiliary index. An
// update deep in the path thereby re-keys every ancestor without touching
// the object store.
func (nx *NestedInheritedIndex) cascadeAdd(v *nixView, k []byte, l int, oid oodb.OID, count uint32, parents []oodb.OID) error {
	pos, ok := nx.owner[oid]
	if !ok {
		return fmt.Errorf("index: NIX has no class recorded for object %d", oid)
	}
	if i := v.find(pos, oid); i >= 0 {
		v.setCount(pos, i, v.count(pos, i)+count)
	} else {
		v.add(pos, oid, count)
	}
	if l == nx.sp.A {
		return nil // no parents within the subpath
	}
	for _, p := range parents {
		if pp, ok := nx.owner[p]; ok {
			if j := v.find(pp, p); j >= 0 {
				v.setCount(pp, j, v.count(pp, j)+1)
				continue // the parent already reached k through another child
			}
		}
		var grandparents []oodb.OID
		if l-1 > nx.sp.A {
			t := nx.tuple(l - 1)
			ok, err := nx.loadAux(p, t)
			if err != nil {
				return err
			}
			if ok {
				if t.addPointer(k) {
					nx.storeAux(t)
				}
				grandparents = t.parents
			}
		}
		if err := nx.cascadeAdd(v, k, l-1, p, 1, grandparents); err != nil {
			return err
		}
	}
	return nil
}

// cascadeRemove deletes the entry of oid at level l from the record v
// (keyed by k) and propagates numchild decrements to the given parents;
// parents whose count reaches zero are removed recursively, their own
// parents fetched from the auxiliary index (steps 3a–3c).
func (nx *NestedInheritedIndex) cascadeRemove(v *nixView, k []byte, l int, oid oodb.OID, parents []oodb.OID) error {
	if pos, ok := nx.owner[oid]; ok {
		if i := v.find(pos, oid); i >= 0 {
			v.remove(pos, i)
		}
	}
	if l == nx.sp.A {
		return nil // no parents within the subpath
	}
	for _, p := range parents {
		pos, ok := nx.owner[p]
		if !ok {
			continue
		}
		i := v.find(pos, p)
		if i < 0 {
			continue // parent does not reach this record
		}
		if c := v.count(pos, i); c > 1 {
			v.setCount(pos, i, c-1)
			continue
		}
		// Count reaches zero: remove the parent entry, fix its tuple, and
		// recurse with its own parents.
		var grandparents []oodb.OID
		if l-1 > nx.sp.A {
			t := nx.tuple(l - 1)
			ok, err := nx.loadAux(p, t)
			if err != nil {
				return err
			}
			if ok {
				if t.removePointer(k) {
					nx.storeAux(t)
				}
				grandparents = t.parents
			}
		}
		if err := nx.cascadeRemove(v, k, l-1, p, grandparents); err != nil {
			return err
		}
	}
	return nil
}

// BoundaryDelete removes the primary record keyed by a deleted level-B+1
// OID and erases the dangling pointers from the auxiliary tuples of every
// object the record listed (Definition 4.2, NIX case with delpoint).
func (nx *NestedInheritedIndex) BoundaryDelete(oid oodb.OID) error {
	if nx.sp.EndsPath() {
		return nil
	}
	ms := &nx.ms
	ms.pkey = AppendOID(ms.pkey[:0], oid)
	v := &ms.view
	if err := v.open(ms.pkey); err != nil || !v.h.Exists() {
		return err
	}
	for pos, l := range nx.posLevel {
		if l == nx.sp.A {
			continue // level-A objects have no tuples
		}
		t := nx.tuple(l)
		for i := 0; i < v.dir[pos].cnt; i++ {
			ok, err := nx.loadAux(v.oid(pos, i), t)
			if err != nil {
				return err
			}
			if ok && t.removePointer(ms.pkey) {
				nx.storeAux(t)
			}
		}
	}
	v.h.Delete()
	v.h.Flush()
	return nil
}
