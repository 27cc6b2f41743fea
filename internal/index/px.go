package index

import (
	"encoding/binary"
	"fmt"

	"repro/internal/btree"
	"repro/internal/cost"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/storage"
)

// PathIndexPX is the working path index of [6] (the Section 6
// incorporation): a single B+-tree mapping each ending value to the set of
// *instantiation suffixes* — OID sequences (o_l, ..., o_B) for every level
// l of the subpath — that reach the value. A query with respect to any
// class projects the heads of the suffixes starting at its level; no
// auxiliary structure exists, so maintenance locates affected records by
// forward navigation through the object store (whose page reads are
// charged to the store's pager, as the PX cost model assumes).
type PathIndexPX struct {
	sp         *Subpath
	store      *oodb.Store
	pager      *storage.Pager
	tree       *btree.Tree
	ownerClass map[oodb.OID]string
}

// NewPathIndexPX allocates the PX for subpath [a..b] of p over store.
func NewPathIndexPX(store *oodb.Store, p *schema.Path, a, b, pageSize int) (*PathIndexPX, error) {
	if store == nil {
		return nil, fmt.Errorf("index: PX needs a store for navigation")
	}
	sp, err := NewSubpath(p, a, b)
	if err != nil {
		return nil, err
	}
	pager, err := storage.NewPager(pageSize, 0)
	if err != nil {
		return nil, err
	}
	return &PathIndexPX{
		sp:         sp,
		store:      store,
		pager:      pager,
		tree:       btree.New(pager, "px"),
		ownerClass: make(map[oodb.OID]string),
	}, nil
}

// Org returns cost.PX.
func (px *PathIndexPX) Org() cost.Organization { return cost.PX }

// Bounds returns the covered levels.
func (px *PathIndexPX) Bounds() (int, int) { return px.sp.A, px.sp.B }

// Stats returns the index pager counters (store navigation is charged to
// the store's own pager).
func (px *PathIndexPX) Stats() storage.Stats { return px.pager.Stats() }

// ResetStats zeroes the index pager counters.
func (px *PathIndexPX) ResetStats() { px.pager.ResetStats() }

// Tree exposes the underlying B+-tree for geometry assertions.
func (px *PathIndexPX) Tree() *btree.Tree { return px.tree }

// ---- record serialization -------------------------------------------

// pxRecord holds, per subpath level (index 0 = level A), the instantiation
// suffixes starting at that level. A suffix starting at level l has
// B-l+1 components.
type pxRecord struct {
	suffixes [][][]oodb.OID
}

func (px *PathIndexPX) newRecord() *pxRecord {
	return &pxRecord{suffixes: make([][][]oodb.OID, px.sp.B-px.sp.A+1)}
}

func (r *pxRecord) empty() bool {
	for _, s := range r.suffixes {
		if len(s) > 0 {
			return false
		}
	}
	return true
}

func (px *PathIndexPX) encodeRecord(r *pxRecord) []byte {
	size := 4
	for li, sufs := range r.suffixes {
		size += 4 + len(sufs)*8*(px.sp.B-px.sp.A-li+1)
	}
	out := make([]byte, size)
	binary.BigEndian.PutUint32(out, uint32(len(r.suffixes)))
	off := 4
	for li, sufs := range r.suffixes {
		binary.BigEndian.PutUint32(out[off:], uint32(len(sufs)))
		off += 4
		want := px.sp.B - px.sp.A - li + 1
		for _, s := range sufs {
			for i := 0; i < want; i++ {
				binary.BigEndian.PutUint64(out[off:], uint64(s[i]))
				off += 8
			}
		}
	}
	return out
}

func (px *PathIndexPX) decodeRecord(b []byte) (*pxRecord, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("index: truncated PX record")
	}
	nl := int(binary.BigEndian.Uint32(b))
	if nl != px.sp.B-px.sp.A+1 {
		return nil, fmt.Errorf("index: PX record with %d levels, want %d", nl, px.sp.B-px.sp.A+1)
	}
	r := px.newRecord()
	off := 4
	for li := 0; li < nl; li++ {
		if len(b) < off+4 {
			return nil, fmt.Errorf("index: PX record level header out of bounds")
		}
		cnt := int(binary.BigEndian.Uint32(b[off:]))
		off += 4
		want := px.sp.B - px.sp.A - li + 1
		if len(b) < off+cnt*8*want {
			return nil, fmt.Errorf("index: PX record level %d out of bounds", li)
		}
		for j := 0; j < cnt; j++ {
			s := make([]oodb.OID, want)
			for i := 0; i < want; i++ {
				s[i] = oodb.OID(binary.BigEndian.Uint64(b[off:]))
				off += 8
			}
			r.suffixes[li] = append(r.suffixes[li], s)
		}
	}
	return r, nil
}

// ---- lookup -----------------------------------------------------------

// LookupInto projects the record under key.
func (px *PathIndexPX) LookupInto(key oodb.Value, targetClass string, hierarchy bool, dst []oodb.OID, sc *Scratch) ([]oodb.OID, error) {
	return px.lookup(pointHop(sc, key), targetClass, hierarchy, dst, sc)
}

// LookupKeys projects the records under a sorted OID set.
func (px *PathIndexPX) LookupKeys(keys []oodb.OID, targetClass string, hierarchy bool, dst []oodb.OID, sc *Scratch) ([]oodb.OID, error) {
	return px.lookup(firstHop{keys: keys}, targetClass, hierarchy, dst, sc)
}

// LookupRange projects every record in [lo, hi).
func (px *PathIndexPX) LookupRange(lo, hi oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	return lookupRange(px.lookup, lo, hi, targetClass, hierarchy)
}

// lookup is the PX kernel: the heads of the suffixes starting at the
// target class's level, filtered to the class(es) asked for. PX records
// decode into per-level suffix slices, so this path allocates; PX is an
// extended organization, not part of the paper's serving-path column set,
// and is exempt from the zero-allocation guarantee.
func (px *PathIndexPX) lookup(hop firstHop, targetClass string, hierarchy bool, dst []oodb.OID, sc *Scratch) ([]oodb.OID, error) {
	l, ok := px.sp.LevelOf(targetClass)
	if !ok {
		return dst, fmt.Errorf("index: class %s not in subpath scope", targetClass)
	}
	err := hop.records(px.tree, sc, func(r *btree.Record) error {
		rec, err := px.decodeRecord(r.Read(0, r.Len()))
		if err != nil {
			return err
		}
		for _, s := range rec.suffixes[l-px.sp.A] {
			if cls, ok := px.ownerClass[s[0]]; ok && px.sp.targetMatch(cls, targetClass, hierarchy) {
				dst = append(dst, s[0])
			}
		}
		return nil
	})
	return dst, err
}

// ---- maintenance -------------------------------------------------------

// reachedKeys navigates forward from obj to the subpath's ending
// attribute, returning the encoded keys it reaches. excl, when non-zero,
// is treated as already deleted.
func (px *PathIndexPX) reachedKeys(obj *oodb.Object, l int, excl oodb.OID) (map[string]bool, error) {
	keys := make(map[string]bool)
	var walk func(o *oodb.Object, i int) error
	walk = func(o *oodb.Object, i int) error {
		if i == px.sp.B {
			for _, v := range o.Values(px.sp.Attr(i)) {
				keys[string(EncodeValue(v))] = true
			}
			return nil
		}
		for _, r := range o.Refs(px.sp.Attr(i)) {
			if r == excl {
				continue
			}
			child, err := px.store.Get(r)
			if err != nil {
				continue // dangling reference
			}
			if err := walk(child, i+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(obj, l); err != nil {
		return nil, err
	}
	return keys, nil
}

// OnInsert extends the reachable records with the object's suffixes:
// itself at level B, or itself prepended to its children's suffixes.
func (px *PathIndexPX) OnInsert(obj *oodb.Object) error {
	l, ok := px.sp.LevelOf(obj.Class)
	if !ok {
		return fmt.Errorf("index: class %s not in subpath scope", obj.Class)
	}
	px.ownerClass[obj.OID] = obj.Class
	keys, err := px.reachedKeys(obj, l, 0)
	if err != nil {
		return err
	}
	children := make(map[oodb.OID]bool)
	for _, r := range obj.Refs(px.sp.Attr(l)) {
		children[r] = true
	}
	for _, k := range sortedKeys(keys) {
		rec, err := px.loadRecord([]byte(k))
		if err != nil {
			return err
		}
		li := l - px.sp.A
		if l == px.sp.B {
			rec.suffixes[li] = append(rec.suffixes[li], []oodb.OID{obj.OID})
		} else {
			for _, child := range rec.suffixes[li+1] {
				if children[child[0]] {
					s := append([]oodb.OID{obj.OID}, child...)
					rec.suffixes[li] = append(rec.suffixes[li], s)
				}
			}
		}
		px.storeRecord([]byte(k), rec)
	}
	return nil
}

// OnUpdates maintains the pairs one by one through update. Navigation reads
// the store as it is at the call, so the executor hands PX each pair as the
// store applies it.
func (px *PathIndexPX) OnUpdates(pairs []Pair) error {
	for _, p := range pairs {
		if err := px.update(p.Old, p.New); err != nil {
			return err
		}
	}
	return nil
}

// update re-keys every instantiation suffix the object participates in.
// PX has no auxiliary structure, so repair navigates: the keys reached
// before and after come from forward navigation; suffixes through the
// object (its own and the ancestors' longer ones) are dropped from every
// affected record; and in the records the object now reaches, its
// suffixes are rebuilt from the level below and the ancestor chains over
// them grafted back by scanning the classes of the levels above — the
// reverse-pointer-free navigation PX's maintenance cost model charges.
func (px *PathIndexPX) update(old, upd *oodb.Object) error {
	l, ok := px.sp.LevelOf(old.Class)
	if !ok {
		return fmt.Errorf("index: class %s not in subpath scope", old.Class)
	}
	if oodb.ValuesEqual(old.Values(px.sp.Attr(l)), upd.Values(px.sp.Attr(l))) {
		return nil
	}
	before, err := px.reachedKeys(old, l, 0)
	if err != nil {
		return err
	}
	after, err := px.reachedKeys(upd, l, 0)
	if err != nil {
		return err
	}
	newChildren := refSet(upd.Refs(px.sp.Attr(l)))
	keys := make(map[string]bool, len(before)+len(after))
	for k := range before {
		keys[k] = true
	}
	for k := range after {
		keys[k] = true
	}
	for _, k := range sortedKeys(keys) {
		rec, err := px.loadRecord([]byte(k))
		if err != nil {
			return err
		}
		// Drop every suffix through the object, at its own level and
		// inside ancestors' longer suffixes (as deletion does).
		for li := 0; li <= l-px.sp.A; li++ {
			pos := l - px.sp.A - li
			kept := rec.suffixes[li][:0]
			for _, s := range rec.suffixes[li] {
				if pos < len(s) && s[pos] == old.OID {
					continue
				}
				kept = append(kept, s)
			}
			rec.suffixes[li] = kept
		}
		if after[k] {
			// Rebuild the object's own suffixes over the record's
			// level-below suffixes (its children already reach the key)...
			li := l - px.sp.A
			var mine [][]oodb.OID
			if l == px.sp.B {
				mine = append(mine, []oodb.OID{old.OID})
			} else {
				for _, child := range rec.suffixes[li+1] {
					if newChildren[child[0]] {
						mine = append(mine, append([]oodb.OID{old.OID}, child...))
					}
				}
			}
			rec.suffixes[li] = append(rec.suffixes[li], mine...)
			// ...then graft the ancestor chains back on top of them.
			px.graftAncestors(rec, l, mine)
		}
		px.storeRecord([]byte(k), rec)
	}
	return nil
}

// graftAncestors extends rec upward over freshly added suffixes at level
// l (all sharing one head object): every object of level l-1 referencing
// the head gains the one-longer suffixes, recursively up to the subpath's
// start. Parents are found by scanning their classes in the object store.
func (px *PathIndexPX) graftAncestors(rec *pxRecord, l int, sufs [][]oodb.OID) {
	if l == px.sp.A || len(sufs) == 0 {
		return
	}
	head := sufs[0][0]
	attr := px.sp.Attr(l - 1)
	li := l - 1 - px.sp.A
	for _, cn := range px.sp.classesAt(l - 1) {
		px.store.ScanClass(cn, func(p *oodb.Object) bool {
			for _, r := range p.Refs(attr) {
				if r != head {
					continue
				}
				var mine [][]oodb.OID
				for _, s := range sufs {
					mine = append(mine, append([]oodb.OID{p.OID}, s...))
				}
				rec.suffixes[li] = append(rec.suffixes[li], mine...)
				px.graftAncestors(rec, l-1, mine)
				break
			}
			return true
		})
	}
}

// OnDelete removes every suffix in which the object participates, at its
// own level and inside ancestors' longer suffixes.
func (px *PathIndexPX) OnDelete(obj *oodb.Object) error {
	l, ok := px.sp.LevelOf(obj.Class)
	if !ok {
		return fmt.Errorf("index: class %s not in subpath scope", obj.Class)
	}
	keys, err := px.reachedKeys(obj, l, 0)
	if err != nil {
		return err
	}
	delete(px.ownerClass, obj.OID)
	for _, k := range sortedKeys(keys) {
		rec, err := px.loadRecord([]byte(k))
		if err != nil {
			return err
		}
		for li := 0; li <= l-px.sp.A; li++ {
			pos := l - px.sp.A - li // component index of level l in a suffix starting at level A+li
			kept := rec.suffixes[li][:0]
			for _, s := range rec.suffixes[li] {
				if pos < len(s) && s[pos] == obj.OID {
					continue
				}
				kept = append(kept, s)
			}
			rec.suffixes[li] = kept
		}
		px.storeRecord([]byte(k), rec)
	}
	return nil
}

// BoundaryDelete drops the record keyed by a deleted level-B+1 OID.
func (px *PathIndexPX) BoundaryDelete(oid oodb.OID) error {
	if px.sp.EndsPath() {
		return nil
	}
	px.tree.Delete(EncodeOID(oid))
	return nil
}

func (px *PathIndexPX) loadRecord(k []byte) (*pxRecord, error) {
	raw, ok := px.tree.Get(k)
	if !ok {
		return px.newRecord(), nil
	}
	return px.decodeRecord(raw)
}

func (px *PathIndexPX) storeRecord(k []byte, rec *pxRecord) {
	if rec.empty() {
		px.tree.Delete(k)
		return
	}
	px.tree.Insert(k, px.encodeRecord(rec))
}
