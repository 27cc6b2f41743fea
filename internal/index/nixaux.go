package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/oodb"
)

// auxTuple is a decoded 3-tuple (Figure 4): the object's aggregation
// parents, ascending, and the primary keys whose records contain the
// object. It is scratch: decodeAux fills it from a tuple's bytes, keeping
// its own copy of them for the pointers to alias, and an added pointer
// aliases the caller's key until the tuple is encoded.
type auxTuple struct {
	raw      []byte
	parents  []oodb.OID
	pointers [][]byte // encoded primary keys
}

func (t *auxTuple) reset() {
	t.parents, t.pointers = t.parents[:0], t.pointers[:0]
}

// encodeAux appends the tuple's encoding to dst.
func encodeAux(dst []byte, t *auxTuple) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(t.parents)))
	for _, p := range t.parents {
		dst = binary.BigEndian.AppendUint64(dst, uint64(p))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(t.pointers)))
	for _, p := range t.pointers {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(p)))
		dst = append(dst, p...)
	}
	return dst
}

// decodeAux decodes b into t, replacing its contents.
func decodeAux(b []byte, t *auxTuple) error {
	t.reset()
	if len(b) < 8 {
		return fmt.Errorf("index: truncated aux tuple")
	}
	t.raw = append(t.raw[:0], b...)
	b = t.raw
	np := int(binary.BigEndian.Uint32(b))
	off := 4
	if len(b) < off+8*np+4 {
		return fmt.Errorf("index: aux tuple parents out of bounds")
	}
	for i := 0; i < np; i++ {
		t.parents = append(t.parents, oodb.OID(binary.BigEndian.Uint64(b[off:])))
		off += 8
	}
	nq := int(binary.BigEndian.Uint32(b[off:]))
	off += 4
	for i := 0; i < nq; i++ {
		if len(b) < off+2 {
			return fmt.Errorf("index: aux tuple pointer header out of bounds")
		}
		l := int(binary.BigEndian.Uint16(b[off:]))
		off += 2
		if len(b) < off+l {
			return fmt.Errorf("index: aux tuple pointer out of bounds")
		}
		t.pointers = append(t.pointers, b[off:off+l:off+l])
		off += l
	}
	return nil
}

// The four edits report whether they changed the tuple, so an edit that
// did nothing is not written back.

func (t *auxTuple) addParent(p oodb.OID) bool {
	i, found := slices.BinarySearch(t.parents, p)
	if !found {
		t.parents = slices.Insert(t.parents, i, p)
	}
	return !found
}

func (t *auxTuple) removeParent(p oodb.OID) bool {
	i, found := slices.BinarySearch(t.parents, p)
	if found {
		t.parents = slices.Delete(t.parents, i, i+1)
	}
	return found
}

func (t *auxTuple) pointerIndex(key []byte) int {
	return slices.IndexFunc(t.pointers, func(p []byte) bool { return bytes.Equal(p, key) })
}

func (t *auxTuple) addPointer(key []byte) bool {
	if t.pointerIndex(key) >= 0 {
		return false
	}
	t.pointers = append(t.pointers, key)
	return true
}

func (t *auxTuple) removePointer(key []byte) bool {
	i := t.pointerIndex(key)
	if i >= 0 {
		t.pointers = slices.Delete(t.pointers, i, i+1)
	}
	return i >= 0
}

// keyList is a multiset of encoded primary keys held in one arena: the
// keys an object reaches, each with the number of its children reaching it
// (the numchild seed of its entries). After finish the keys are distinct
// and in byte order, which is the order maintenance visits records in — so
// two builds of the same data shape the same trees.
type keyList struct {
	buf  []byte
	ents []keyEnt
}

type keyEnt struct{ off, n, count int }

func (kl *keyList) reset() { kl.buf, kl.ents = kl.buf[:0], kl.ents[:0] }

func (kl *keyList) add(k []byte) {
	kl.ents = append(kl.ents, keyEnt{off: len(kl.buf), n: len(k), count: 1})
	kl.buf = append(kl.buf, k...)
}

func (kl *keyList) addValue(v oodb.Value) {
	off := len(kl.buf)
	kl.buf = AppendValue(kl.buf, v)
	kl.ents = append(kl.ents, keyEnt{off: off, n: len(kl.buf) - off, count: 1})
}

func (kl *keyList) len() int { return len(kl.ents) }

func (kl *keyList) key(i int) []byte { return kl.bytesOf(kl.ents[i]) }

func (kl *keyList) bytesOf(e keyEnt) []byte { return kl.buf[e.off : e.off+e.n : e.off+e.n] }

func (kl *keyList) count(i int) uint32 { return uint32(kl.ents[i].count) }

// finish sorts the keys and folds equal ones into one entry carrying their
// total.
func (kl *keyList) finish() {
	slices.SortFunc(kl.ents, func(a, b keyEnt) int { return bytes.Compare(kl.bytesOf(a), kl.bytesOf(b)) })
	out := kl.ents[:0]
	for _, e := range kl.ents {
		if last := len(out) - 1; last >= 0 && bytes.Equal(kl.bytesOf(e), kl.bytesOf(out[last])) {
			out[last].count += e.count
			continue
		}
		out = append(out, e)
	}
	kl.ents = out
}

// find locates k in a finished list.
func (kl *keyList) find(k []byte) (int, bool) {
	return slices.BinarySearchFunc(kl.ents, k, func(e keyEnt, k []byte) int { return bytes.Compare(kl.bytesOf(e), k) })
}

// maintScratch is the write-side twin of Scratch: everything one NIX
// maintenance operation needs between its tree accesses, owned by the
// index and reused, so a steady-state update allocates next to nothing.
// Maintenance runs under the owner's exclusive lock, one operation at a
// time.
type maintScratch struct {
	view nixView      // the primary record being maintained, and the primary sweep
	pkey []byte       // its key, when the operation had to encode one
	sw   btree.Sweep  // the operation's one path through the auxiliary index
	aux  btree.Record // the 3-tuple being read, edited and written back
	akey []byte       // its key
	enc  []byte       // its new encoding
	// tup[l-A] is where the tuple of a level-l object decodes. A cascade at
	// level l walks tup[l-A].parents while it edits tuples one level up in
	// tup[l-1-A], so every level needs its own.
	tup []auxTuple
	// keys[2i] and keys[2i+1] are the keys the i-th object of the operation
	// reaches before and after it.
	keys   []keyList
	visits []childVisit // children whose tuples the operation reads
	edits  []entryEdit  // primary-record changes, applied in key order
	first  []Pair       // a batch's level-A pairs, maintained together
	oids   []oodb.OID   // the objects a dropped record listed
}

// keyLists returns n empty key lists, reusing their arenas.
func (ms *maintScratch) keyLists(n int) []keyList {
	for len(ms.keys) < n {
		ms.keys = append(ms.keys, keyList{})
	}
	kls := ms.keys[:n]
	for i := range kls {
		kls[i].reset()
	}
	return kls
}

// tuple returns the scratch tuple of level l.
func (nx *NestedInheritedIndex) tuple(l int) *auxTuple { return &nx.ms.tup[l-nx.sp.A] }

// seekAux positions the tuple handle on oid's 3-tuple through the
// operation's auxiliary sweep and reports whether the tuple exists.
func (nx *NestedInheritedIndex) seekAux(oid oodb.OID) bool {
	ms := &nx.ms
	ms.akey = AppendOID(ms.akey[:0], oid)
	return ms.sw.Seek(ms.akey, &ms.aux)
}

// loadAux opens oid's 3-tuple and decodes it into t; an object without a
// tuple leaves t empty. The tuple stays open for storeAux or dropAux until
// the next loadAux.
func (nx *NestedInheritedIndex) loadAux(oid oodb.OID, t *auxTuple) (bool, error) {
	if !nx.seekAux(oid) {
		t.reset()
		return false, nil
	}
	aux := &nx.ms.aux
	return true, decodeAux(aux.Read(0, aux.Len()), t)
}

// storeAux writes t as the tuple loadAux last opened.
func (nx *NestedInheritedIndex) storeAux(t *auxTuple) {
	ms := &nx.ms
	ms.enc = encodeAux(ms.enc[:0], t)
	ms.aux.SetValue(ms.enc)
	ms.aux.Flush()
}

// dropAux deletes the tuple loadAux last opened.
func (nx *NestedInheritedIndex) dropAux() {
	nx.ms.aux.Delete()
	nx.ms.aux.Flush()
}
