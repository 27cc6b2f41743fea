package btree

import (
	"fmt"
	"math/bits"

	"repro/internal/storage"
)

// Record is a handle on one key's record: Open descends to the leaf once,
// and everything after it is page-granular access to that record alone.
// Bytes are read through Read, changed through Patch and Move, the length
// through Resize; every overflow page is counted as read at most once per
// handle, however many times its bytes are looked at, and Flush writes
// every page that changed exactly once. Point reads, Insert, Update and
// Delete are all short programs over a handle, so the page accounting of
// the tree is the accounting of this file.
//
// What is charged: a value stored in the leaf (at most MaxInline bytes)
// costs nothing to read beyond the descent and one leaf write to change. A
// longer value owns ceil(len/pageSize) overflow pages; reading or changing
// bytes touches the pages they fall on, growing or shrinking the value
// allocates or frees pages at the chain's tail and leaves the others alone,
// and only a value crossing MaxInline is re-made (every page written, the
// leaf too). The chain's page list is bookkeeping kept beside the parsed
// leaf, budgeted at ptrLen like a child pointer; following it is free.
//
// A handle belongs to one goroutine and is spent by Flush: Open it again
// for the next operation, which also lets it keep its page sets' storage.
// A handle that only reads needs no Flush.
type Record struct {
	t    *Tree
	key  []byte // the caller's; copied if the key is inserted
	leaf *node
	idx  int     // the key's slot in leaf, or where it would go
	rec  *record // nil while the key is absent

	seen      pageSet // overflow pages already counted as read
	dirty     pageSet // overflow pages changed since Open
	leafDirty bool
}

// pageSet is a bit set over a record's overflow-page positions. The first
// words live in the set itself, so a handle on the stack tracks a record of
// up to 128 pages without allocating.
type pageSet struct {
	lo [2]uint64
	hi []uint64 // positions 128 and up
}

// word returns the w-th 64 positions for reading, nil beyond the set.
func (s *pageSet) word(w int) *uint64 {
	if w < len(s.lo) {
		return &s.lo[w]
	}
	if w -= len(s.lo); w < len(s.hi) {
		return &s.hi[w]
	}
	return nil
}

func (s *pageSet) words() int { return len(s.lo) + len(s.hi) }

func (s *pageSet) has(p int) bool {
	w := s.word(p >> 6)
	return w != nil && *w&(1<<(p&63)) != 0
}

func (s *pageSet) set(p int) {
	for s.words() <= p>>6 {
		s.hi = append(s.hi, 0)
	}
	*s.word(p >> 6) |= 1 << (p & 63)
}

func (s *pageSet) unset(p int) {
	if w := s.word(p >> 6); w != nil {
		*w &^= 1 << (p & 63)
	}
}

func (s *pageSet) reset() { s.lo, s.hi = [2]uint64{}, s.hi[:0] }

// Open positions h on key's record through one counted descent. key must
// stay unchanged until the handle is flushed or abandoned.
func (t *Tree) Open(key []byte, h *Record) {
	n := t.descend(key)
	i, ok := leafIndex(n.keys, key)
	h.at(t, key, n, i, ok)
}

// at puts a fresh handle on slot i of leaf n, where key is (ok) or would go.
func (h *Record) at(t *Tree, key []byte, n *node, i int, ok bool) {
	h.t, h.key, h.leaf, h.idx, h.rec, h.leafDirty = t, key, n, i, nil, false
	h.seen.reset()
	h.dirty.reset()
	if ok {
		h.rec = n.vals[i]
	}
}

// Exists reports whether the key has a record.
func (h *Record) Exists() bool { return h.rec != nil }

// Len returns the value's length, zero when the key is absent.
func (h *Record) Len() int {
	if h.rec == nil {
		return 0
	}
	return len(h.rec.val)
}

// span returns the overflow-page positions covering val[off:off+n], n > 0.
func (h *Record) span(off, n int) (first, last int) {
	ps := h.t.pager.PageSize()
	return off / ps, (off + n - 1) / ps
}

// Read returns val[off:off+n], counting a read of every overflow page under
// it the handle has not read yet. The slice is the record's own storage:
// valid until the next Resize or SetValue, and not to be written through.
func (h *Record) Read(off, n int) []byte {
	r := h.rec
	if n > 0 && len(r.overflow) > 0 {
		first, last := h.span(off, n)
		for p := first; p <= last; p++ {
			if !h.seen.has(p) {
				h.t.readPage(r.overflow[p])
				h.seen.set(p)
			}
		}
	}
	return r.val[off : off+n : off+n]
}

// Patch overwrites val[off:off+len(b)] with b.
func (h *Record) Patch(off int, b []byte) {
	copy(h.rec.val[off:off+len(b)], b)
	h.changed(off, len(b))
}

// Move copies val[from:from+n] onto val[to:to+n]; the ranges may overlap.
func (h *Record) Move(to, from, n int) {
	copy(h.rec.val[to:to+n], h.Read(from, n))
	h.changed(to, n)
}

// changed marks val[off:off+n] as rewritten. A page the range covers only
// in part is read before it is modified, unless the handle already has.
func (h *Record) changed(off, n int) {
	r := h.rec
	if len(r.overflow) == 0 {
		h.leafDirty = true
		return
	}
	if n == 0 {
		return
	}
	ps := h.t.pager.PageSize()
	first, last := h.span(off, n)
	for p := first; p <= last; p++ {
		if !h.seen.has(p) {
			if off > p*ps || off+n < min((p+1)*ps, len(r.val)) {
				h.t.readPage(r.overflow[p])
			}
			h.seen.set(p)
		}
		h.dirty.set(p)
	}
}

// Resize sets the value's length to n, creating the record if the key is
// absent. Bytes gained are zero. An overflow chain grows or shrinks at its
// tail by whole pages; crossing MaxInline either way re-makes the record.
func (h *Record) Resize(n int) {
	t := h.t
	if h.rec == nil {
		h.rec = &record{}
		lf := h.leaf
		lf.keys = insertAt(lf.keys, h.idx, append([]byte(nil), h.key...))
		lf.vals = insertRecAt(lf.vals, h.idx, h.rec)
		t.size++
		h.leafDirty = true
	}
	r := h.rec
	old := len(r.val)
	if n <= cap(r.val) {
		r.val = r.val[:n]
		if n > old {
			clear(r.val[old:])
		}
	} else {
		r.val = append(r.val, make([]byte, n-old)...)
	}
	ps := t.pager.PageSize()
	want := 0
	if n > t.MaxInline() {
		want = (n + ps - 1) / ps
	}
	if want == 0 && n != old || (want == 0) != (len(r.overflow) == 0) {
		h.leafDirty = true // the leaf's bytes changed length, or the entry turns from bytes into a chain or back
	}
	for len(r.overflow) < want {
		p := len(r.overflow)
		r.overflow = append(r.overflow, t.pager.Alloc(t.ovfName))
		h.seen.set(p) // a fresh page: nothing to read, everything to write
		h.dirty.set(p)
	}
	for len(r.overflow) > want {
		p := len(r.overflow) - 1
		t.freePage(r.overflow[p])
		r.overflow[p] = nil
		r.overflow = r.overflow[:p]
		h.seen.unset(p)
		h.dirty.unset(p)
	}
}

// SetValue replaces the whole value with val, which may alias the old one.
func (h *Record) SetValue(val []byte) {
	h.Resize(len(val))
	h.Patch(0, val)
}

// Delete removes the key and frees its overflow pages; a no-op when the
// key is absent.
func (h *Record) Delete() {
	if h.rec == nil {
		return
	}
	for _, pg := range h.rec.overflow {
		h.t.freePage(pg)
	}
	lf := h.leaf
	lf.keys = append(lf.keys[:h.idx], lf.keys[h.idx+1:]...)
	lf.vals = append(lf.vals[:h.idx], lf.vals[h.idx+1:]...)
	h.t.size--
	h.rec = nil
	h.dirty.reset()
	h.leafDirty = true
}

// Flush writes every overflow page changed through the handle once, then
// the leaf if its own content changed, splitting upward when the leaf
// outgrew its page. It ends the handle's operation.
func (h *Record) Flush() {
	t := h.t
	if h.rec != nil {
		for w := 0; w < h.dirty.words(); w++ {
			for set := *h.dirty.word(w); set != 0; set &= set - 1 {
				t.writePage(h.rec.overflow[w<<6+bits.TrailingZeros64(set)])
			}
		}
	}
	h.dirty.reset()
	if h.leafDirty {
		h.leafDirty = false
		t.writePage(h.leaf.page)
		t.splitUp(h.leaf)
	}
}

func (t *Tree) freePage(pg *storage.Page) {
	if err := t.pager.Free(pg.ID); err != nil {
		panic(fmt.Sprintf("btree %s: double free of overflow page %d: %v", t.name, pg.ID, err))
	}
}
