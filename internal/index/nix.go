package index

import (
	"bytes"
	"cmp"
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
	reads
	sp       *Subpath
	pager    *storage.Pager
	primary  *btree.Tree
	aux      *btree.Tree
	posLevel []int // section position (the subpath's scope order) -> level
	win      oidWindow
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
		sp:      sp,
		pager:   pager,
		primary: btree.New(pager, "nix/primary"),
		aux:     btree.New(pager, "nix/aux"),
		owner:   make(map[oodb.OID]int),
	}
	for l := a; l <= b; l++ {
		for range sp.classesAt(l) {
			nx.posLevel = append(nx.posLevel, l)
		}
	}
	nx.reads = reads{nx}
	nx.ms.tup = make([]auxTuple, b-a+1)
	nx.ms.view = newNixView(nx.primary, len(nx.posLevel))
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
func (nx *NestedInheritedIndex) headerLen() int { return 4 + 8*len(nx.posLevel) }

// ---- lookup -------------------------------------------------------------

// Collect reads the target class's section(s) of the records hop selects.
func (nx *NestedInheritedIndex) Collect(hop Hop, targetClass string, hierarchy bool, sc *Scratch) error {
	return collect(nx.lookup, hop, targetClass, hierarchy, sc)
}

// CollectKeys reads them off the records under a sorted OID set.
func (nx *NestedInheritedIndex) CollectKeys(keys []oodb.OID, targetClass string, hierarchy bool, sc *Scratch) error {
	return run(nx.lookup, firstHop{keys: keys}, targetClass, hierarchy, sc)
}

// lookup is the NIX kernel: every record the hop yields is opened once, and
// the class directory and then only the asked-for sections are read through
// that one handle — the covering pages of a multi-page record, each charged
// once, whichever hop found it — each section decoded straight into sc's
// set. The sections asked for are resolved once per lookup, from the
// subpath's pre-resolved table.
func (nx *NestedInheritedIndex) lookup(hop firstHop, targetClass string, hierarchy bool, sc *Scratch) error {
	pos, ok := nx.sp.sections(targetClass, hierarchy)
	if !ok {
		return fmt.Errorf("index: class %s not in subpath scope", targetClass)
	}
	set := &sc.set
	nx.win.hint(set)
	hl := nx.headerLen()
	return hop.records(nx.primary, sc, func(r *btree.Record) error {
		if r.Len() < hl {
			return fmt.Errorf("index: truncated NIX record (%d bytes)", r.Len())
		}
		head := r.Read(0, hl)
		for _, p := range pos {
			off := int(binary.BigEndian.Uint32(head[4+8*p:]))
			cnt := int(binary.BigEndian.Uint32(head[8+8*p:]))
			if cnt == 0 {
				continue
			}
			if off+cnt*nixEntryLen > r.Len() {
				return fmt.Errorf("index: NIX section %d out of bounds", p)
			}
			set.AddEncoded(r.Read(off, cnt*nixEntryLen), cnt, nixEntryLen)
		}
		return nil
	})
}

// ---- maintenance ---------------------------------------------------------
//
// Every operation follows Section 3.1 and pays what the section charges,
// CMT's distinct pages: it first lists what it will touch, then visits each
// tree through one sweep in key order. The children's 3-tuples and the
// object's own are read, edited and written back along one ascending sweep
// of the auxiliary index; the primary records come after, along one sweep
// of the primary, each opened once (nixView), patched where it changes and
// flushed once however long the cascade inside it, and the ancestors'
// tuples a cascade edits are sought on the auxiliary sweep. Records are
// visited in key order and children in OID order, never in map order, so
// the same operations always build the same trees.

// parentLink says what an operation does to the parent lists of the
// children it visits.
type parentLink int

const (
	linkKeep parentLink = iota
	linkAdd             // the object becomes a parent of its children
	linkDrop            // the object stops being one
)

// childVisit is one reference from a maintained object to a child whose
// 3-tuple the children sweep reads: the tuple's pointers — the primary keys
// the child reaches — are counted into ms.keys[kl] (none when kl < 0), and
// link is applied to its parent list on the object's behalf.
type childVisit struct {
	child, parent oodb.OID
	kl            int
	link          parentLink
}

// visit lists obj's level-l children for the children sweep: link applies
// to every child that except does not reference as well, and a child that
// neither feeds keys nor changes links is left out. At level B the
// "children" are the ending values themselves and go straight into
// ms.keys[kl].
func (nx *NestedInheritedIndex) visit(obj *oodb.Object, l, kl int, link parentLink, except []oodb.Value) {
	ms := &nx.ms
	vals := obj.Values(nx.sp.Attr(l))
	if l == nx.sp.B {
		if kl >= 0 {
			for _, v := range vals {
				ms.keys[kl].addValue(v)
			}
		}
		return
	}
	for _, v := range vals {
		if v.Kind != oodb.RefVal {
			continue
		}
		e := link
		if e != linkKeep && slices.ContainsFunc(except, v.Equal) {
			e = linkKeep
		}
		if kl >= 0 || e != linkKeep {
			ms.visits = append(ms.visits, childVisit{child: v.Ref, parent: obj.OID, kl: kl, link: e})
		}
	}
}

// sweepChildren reads the tuples of the listed level-(l+1) children in
// ascending OID order on the auxiliary sweep, each once however many visits
// name it, applies the visits in the order they were listed, and writes a
// tuple back once if a link changed it.
func (nx *NestedInheritedIndex) sweepChildren(l int) error {
	ms := &nx.ms
	vs := ms.visits
	defer func() { ms.visits = vs[:0] }()
	if len(vs) == 0 {
		return nil
	}
	slices.SortStableFunc(vs, func(a, b childVisit) int { return cmp.Compare(a.child, b.child) })
	t := nx.tuple(l + 1)
	for i := 0; i < len(vs); {
		c := vs[i].child
		ok, err := nx.loadAux(c, t)
		if err != nil {
			return err
		}
		changed := false
		for ; i < len(vs) && vs[i].child == c; i++ {
			v := &vs[i]
			if v.kl >= 0 {
				for _, p := range t.pointers {
					ms.keys[v.kl].add(p)
				}
			}
			// A child not indexed yet (a dangling reference) still learns its
			// parent; it has nothing to forget.
			if v.link == linkAdd && t.addParent(v.parent) {
				changed, ok = true, true
			} else if v.link == linkDrop && ok && t.removeParent(v.parent) {
				changed = true
			}
		}
		if changed {
			nx.storeAux(t)
		}
	}
	return nil
}

// putPointers rewrites the tuple loadAux last opened, t, with its pointer
// set replaced by the keys of kl.
func (nx *NestedInheritedIndex) putPointers(t *auxTuple, kl *keyList) {
	t.pointers = t.pointers[:0]
	for i := 0; i < kl.len(); i++ {
		t.pointers = append(t.pointers, kl.key(i))
	}
	nx.storeAux(t)
}

// entryEdit is one change an operation makes to a primary record: oid's
// entry at level l removed with the deletion cascade, added with the
// insertion cascade, or — set — its numchild reseeded to count.
type entryEdit struct {
	key     []byte // in a keyList's arena
	oid     oodb.OID
	l       int
	count   uint32
	op      entryOp
	parents []oodb.OID // oid's aggregation parents, for the cascades
}

type entryOp uint8

const (
	entryAdd entryOp = iota
	entryRemove
	entrySet
)

// stage lists the edits that move oid at level l from the keys it reached
// before to those it reaches after: the keys it no longer reaches get the
// deletion cascade, the keys it newly reaches the insertion cascade, and
// keys reached before and after only have the entry's numchild reseeded —
// and not even that when the count is unchanged at level A, where the old
// counts were just derived (skipped without touching the tree; above it the
// read confirms before any write).
func (nx *NestedInheritedIndex) stage(oid oodb.OID, l int, before, after *keyList, parents []oodb.OID) {
	ms := &nx.ms
	for i := 0; i < before.len(); i++ {
		if _, kept := after.find(before.key(i)); !kept {
			ms.edits = append(ms.edits, entryEdit{key: before.key(i), oid: oid, l: l, op: entryRemove, parents: parents})
		}
	}
	for i := 0; i < after.len(); i++ {
		e := entryEdit{key: after.key(i), oid: oid, l: l, count: after.count(i), op: entryAdd, parents: parents}
		if j, kept := before.find(e.key); kept {
			if l == nx.sp.A && before.count(j) == e.count {
				continue
			}
			e.op = entrySet
		}
		ms.edits = append(ms.edits, e)
	}
}

// applyEdits opens the records the staged edits name in ascending key order
// on one primary sweep, applies each record's edits in the order they were
// staged and flushes it before the next key is sought.
func (nx *NestedInheritedIndex) applyEdits() error {
	ms := &nx.ms
	es := ms.edits
	defer func() { clear(es); ms.edits = es[:0] }()
	slices.SortStableFunc(es, func(a, b entryEdit) int { return bytes.Compare(a.key, b.key) })
	v := &ms.view
	v.sw.Reset(nx.primary)
	defer v.sw.Reset(nil)
	for i := 0; i < len(es); {
		k := es[i].key
		if err := v.seek(k); err != nil {
			return err
		}
		for ; i < len(es) && bytes.Equal(es[i].key, k); i++ {
			if err := nx.applyEdit(v, &es[i]); err != nil {
				return err
			}
		}
		v.flush()
	}
	return nil
}

func (nx *NestedInheritedIndex) applyEdit(v *nixView, e *entryEdit) error {
	switch e.op {
	case entryAdd:
		return nx.cascadeAdd(v, e.key, e.l, e.oid, e.count, e.parents)
	case entryRemove:
		return nx.cascadeRemove(v, e.key, e.l, e.oid, e.parents)
	}
	pos, ok := nx.owner[e.oid]
	if !ok {
		return fmt.Errorf("index: NIX has no class recorded for object %d", e.oid)
	}
	if i := v.find(pos, e.oid); i < 0 {
		v.add(pos, e.oid, e.count)
	} else if v.count(pos, i) != e.count {
		v.setCount(pos, i, e.count)
	}
	return nil
}

// OnInsert implements the insertion algorithm of Section 3.1: update the
// children's 3-tuples, insert the object's own 3-tuple, and add the object
// to the reachable primary records.
func (nx *NestedInheritedIndex) OnInsert(obj *oodb.Object) error {
	l, ok := nx.sp.LevelOf(obj.Class)
	if !ok {
		return fmt.Errorf("index: class %s not in subpath scope", obj.Class)
	}
	pos, _ := nx.sp.sections(obj.Class, false)
	nx.owner[obj.OID] = pos[0]
	nx.win.see(obj.OID)
	ms := &nx.ms
	kls := ms.keyLists(2)
	keys := &kls[1]
	ms.sw.Reset(nx.aux)
	defer ms.sw.Reset(nil)

	// Step 2: visit children tuples, record parenthood, gather pointers.
	nx.visit(obj, l, 1, linkAdd, nil)
	if err := nx.sweepChildren(l); err != nil {
		return err
	}
	keys.finish()

	// Step 4, on the same sweep: the object's own 3-tuple (levels above A
	// only; the first class and its subclasses have no parents and no
	// tuples).
	if l > nx.sp.A {
		t := nx.tuple(l)
		nx.seekAux(obj.OID)
		t.reset()
		nx.putPointers(t, keys)
	}

	// Step 3: add the object to each reachable primary record.
	nx.stage(obj.OID, l, &kls[0], keys, nil)
	return nx.applyEdits()
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
	ms := &nx.ms
	kls := ms.keyLists(2)
	keys := &kls[0]
	ms.sw.Reset(nx.aux)
	defer ms.sw.Reset(nil)

	// Step 1/2: determine SV; update children's tuples; fetch own tuple.
	// Level-A objects have no tuple; their records are reachable through
	// their children (or are the values themselves at B==A).
	var parents []oodb.OID
	if l > nx.sp.A {
		nx.visit(obj, l, -1, linkDrop, nil)
		if err := nx.sweepChildren(l); err != nil {
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
	} else {
		nx.visit(obj, l, 0, linkDrop, nil)
		if err := nx.sweepChildren(l); err != nil {
			return err
		}
	}
	keys.finish()

	// Step 3: remove the object from each primary record and cascade.
	nx.stage(obj.OID, l, keys, &kls[1], parents)
	if err := nx.applyEdits(); err != nil {
		return err
	}
	delete(nx.owner, obj.OID)
	return nil
}

// OnUpdates implements incremental in-place update maintenance. For each
// pair the subpath attribute of the object's level is diffed:
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
//
// The pairs of level-A objects are one operation (relinkFirst); every other
// pair is its own (update), in batch order. An object's pairs keep their
// order, pairs of different objects describe store states reachable in
// either order, and maintenance reads nothing but the index and the pairs,
// so the index ends where applying the batch one pair at a time would.
func (nx *NestedInheritedIndex) OnUpdates(pairs []Pair) error {
	ms := &nx.ms
	ms.first = ms.first[:0]
	for _, p := range pairs {
		l, ok := nx.sp.LevelOf(p.Old.Class)
		if !ok {
			return fmt.Errorf("index: class %s not in subpath scope", p.Old.Class)
		}
		if l == nx.sp.A {
			ms.first = append(ms.first, p)
		} else if err := nx.update(p, l); err != nil {
			return err
		}
	}
	err := nx.relinkFirst(ms.first)
	clear(ms.first)
	return err
}

// relinkFirst maintains level-A pairs as one operation. A level-A object
// has no tuple and no parents within the subpath, so its edits never
// cascade: they touch its children's parent lists and its own entries,
// nothing another object's pair reads or writes, and commute with every
// other object's. All the pairs' children are read on one auxiliary sweep
// and all their records on one primary sweep, each record opened once and
// its edits applied in batch order, so an object updated twice ends as its
// last pair says.
func (nx *NestedInheritedIndex) relinkFirst(pairs []Pair) error {
	a := nx.sp.A
	attr := nx.sp.Attr(a)
	ms := &nx.ms
	kls := ms.keyLists(2 * len(pairs))
	ms.sw.Reset(nx.aux)
	defer ms.sw.Reset(nil)
	// The keys reached before are re-derived through the old children (the
	// object has no tuple to hold them), those reached after through the
	// new; the same visits re-parent the children.
	for i, p := range pairs {
		oldVals, updVals := p.Old.Values(attr), p.New.Values(attr)
		if !oodb.ValuesEqual(oldVals, updVals) {
			nx.visit(p.Old, a, 2*i, linkDrop, updVals)
			nx.visit(p.New, a, 2*i+1, linkAdd, oldVals)
		}
	}
	if err := nx.sweepChildren(a); err != nil {
		return err
	}
	for i, p := range pairs {
		before, after := &kls[2*i], &kls[2*i+1]
		before.finish()
		after.finish()
		nx.stage(p.Old.OID, a, before, after, nil)
	}
	return nx.applyEdits()
}

// update maintains one pair whose object lies above level A. The keys
// reached before come from the object's own 3-tuple and the keys reached
// after from its new children; the children's parent lists are re-linked on
// the same auxiliary sweep (their pointer sets are untouched: pointers track
// the keys a child reaches, not who references it).
func (nx *NestedInheritedIndex) update(p Pair, l int) error {
	attr := nx.sp.Attr(l)
	oldVals, updVals := p.Old.Values(attr), p.New.Values(attr)
	if oodb.ValuesEqual(oldVals, updVals) {
		return nil
	}
	ms := &nx.ms
	kls := ms.keyLists(2)
	before, after := &kls[0], &kls[1]
	ms.sw.Reset(nx.aux)
	defer ms.sw.Reset(nil)
	nx.visit(p.Old, l, -1, linkDrop, updVals)
	nx.visit(p.New, l, 1, linkAdd, oldVals)
	if err := nx.sweepChildren(l); err != nil {
		return err
	}
	// The object's own tuple, read and rewritten in one visit: its parents
	// feed the cascades, its pointers are the keys reached before and
	// become the keys reached after. No cascade edits the tuple of the
	// object it starts from.
	own := nx.tuple(l)
	if _, err := nx.loadAux(p.Old.OID, own); err != nil {
		return err
	}
	for _, k := range own.pointers {
		before.add(k)
	}
	before.finish()
	after.finish()
	parents := own.parents
	nx.putPointers(own, after)
	nx.stage(p.Old.OID, l, before, after, parents)
	return nx.applyEdits()
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
// object the record listed (Definition 4.2, NIX case with delpoint), those
// tuples visited in OID order on one sweep.
func (nx *NestedInheritedIndex) BoundaryDelete(oid oodb.OID) error {
	if nx.sp.EndsPath() {
		return nil
	}
	ms := &nx.ms
	ms.pkey = AppendOID(ms.pkey[:0], oid)
	v := &ms.view
	defer v.sw.Reset(nil)
	if err := v.open(ms.pkey); err != nil || !v.h.Exists() {
		return err
	}
	ms.oids = ms.oids[:0]
	for pos, l := range nx.posLevel {
		if l == nx.sp.A {
			continue // level-A objects have no tuples
		}
		for i := 0; i < v.dir[pos].cnt; i++ {
			ms.oids = append(ms.oids, v.oid(pos, i))
		}
	}
	slices.Sort(ms.oids)
	t := nx.tuple(nx.sp.B)
	ms.sw.Reset(nx.aux)
	defer ms.sw.Reset(nil)
	for _, o := range ms.oids {
		ok, err := nx.loadAux(o, t)
		if err != nil {
			return err
		}
		if ok && t.removePointer(ms.pkey) {
			nx.storeAux(t)
		}
	}
	v.h.Delete()
	v.h.Flush()
	return nil
}
