// Package btree implements the page-based B+-tree underlying every index
// organization of the paper: chained leaves, byte-budgeted nodes (one node
// per page), and overflow chains for index records that exceed a page —
// the "index record occupies more than one page" case of Section 3.1.
//
// Every node visit and overflow-page access goes through a storage.Pager,
// so the page-access counts the analytic cost model predicts can be
// measured on the running structure. Node contents are kept as parsed
// in-memory entries, and a record's bytes contiguous beside them, with
// exact byte accounting against the page budget rather than being
// physically serialized into the page; the access pattern, fan-out, height
// and split behaviour are those of an on-disk tree (see DESIGN.md).
//
// All record access runs on one primitive, the Record handle (record.go):
// one descent to the leaf, then reads, patches and length changes charged
// to the pages they touch — each page read at most once per handle, each
// changed page written exactly once at Flush. Section 3.1 prices the
// maintenance of a record at CML = h − 1 + pm, the pages of the record
// that change; an index organization that edits a record through a handle
// pays exactly that, and Get, GetSectionInto, Insert and Delete are the
// handle's simplest uses. Reaching many records hands out the same handle:
// a Sweep (sweep.go) positions it on each key of a sorted set, entering
// every node once, and ScanInto on each record of a key range, so whoever
// reads through it pays for the pages it asks for and no others. A sweep
// also edits: each record is flushed before the next key is sought, and a
// flush that split a node sends the next seek back to the root, counted
// again, since the path it kept no longer describes the tree.
//
// Deletion is lazy: entries are removed but nodes are not merged, so the
// height never shrinks — the usual simplification in storage simulators.
package btree

import (
	"bytes"
	"fmt"

	"repro/internal/storage"
)

const (
	entryHeader = 4 // per-entry bookkeeping bytes budgeted in a node
	ptrLen      = 8 // budgeted size of a page pointer
)

// Tree is a B+-tree keyed by byte slices in bytes.Compare order. Any number
// of goroutines may read it at once; a write needs the tree to itself.
type Tree struct {
	pager   *storage.Pager
	name    string
	ovfName string // the tag of this tree's overflow pages
	root    *node
	size    int    // number of keys
	splits  uint64 // nodes split so far: a Sweep's path is stale once this moves

	w Record // the handle Insert and Delete run on
}

// record is one key's value. The bytes stay contiguous beside the parsed
// node, as node contents do; a value too long to share a leaf page owns a
// chain of overflow pages, page p standing for val[p*pageSize:(p+1)*pageSize],
// and every access to those bytes is counted against the page it falls on.
type record struct {
	val      []byte
	overflow []*storage.Page
}

type node struct {
	page   *storage.Page
	parent *node // nil at the root
	leaf   bool
	keys   [][]byte
	kids   []*node   // internal: len(kids) == len(keys)+1
	vals   []*record // leaf: parallel to keys
	next   *node     // leaf chain
}

// New creates an empty tree whose pages come from pager. name tags pages
// for diagnostics.
func New(pager *storage.Pager, name string) *Tree {
	t := &Tree{pager: pager, name: name, ovfName: name + "/ovf"}
	t.root = t.newNode(true)
	return t
}

func (t *Tree) newNode(leaf bool) *node {
	return &node{page: t.pager.Alloc(t.name), leaf: leaf}
}

// Len returns the number of keys in the tree.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels, counting the leaf level; an empty
// tree has height 1. Overflow chains do not add levels.
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.kids[0] {
		h++
	}
	return h
}

// Pager exposes the tree's pager for access accounting.
func (t *Tree) Pager() *storage.Pager { return t.pager }

// MaxInline is the longest value stored in the leaf itself; a longer one
// owns whole overflow pages.
func (t *Tree) MaxInline() int { return t.pager.PageSize() / 2 }

// LeafPages returns the number of leaf pages (excluding overflow chains).
func (t *Tree) LeafPages() int {
	n := t.root
	for !n.leaf {
		n = n.kids[0]
	}
	count := 0
	for ; n != nil; n = n.next {
		count++
	}
	return count
}

// bytesOf returns the budgeted byte cost of one entry.
func (t *Tree) bytesOf(n *node, i int) int {
	if n.leaf {
		r := n.vals[i]
		if len(r.overflow) > 0 {
			return entryHeader + len(n.keys[i]) + ptrLen
		}
		return entryHeader + len(n.keys[i]) + len(r.val)
	}
	return entryHeader + len(n.keys[i]) + ptrLen
}

func (t *Tree) nodeBytes(n *node) int {
	total := 0
	for i := range n.keys {
		total += t.bytesOf(n, i)
	}
	if !n.leaf {
		total += ptrLen // the extra child pointer
	}
	return total
}

// readPage counts a read of a node's or an overflow chain's page.
func (t *Tree) readPage(pg *storage.Page) {
	if _, err := t.pager.Read(pg.ID); err != nil {
		panic(fmt.Sprintf("btree %s: lost page %d: %v", t.name, pg.ID, err))
	}
}

// writePage counts a write of a node's or an overflow chain's page.
func (t *Tree) writePage(pg *storage.Page) {
	if err := t.pager.Write(pg); err != nil {
		panic(fmt.Sprintf("btree %s: lost page %d: %v", t.name, pg.ID, err))
	}
}

// enter counts the visit of node n.
func (t *Tree) enter(n *node) *node {
	t.readPage(n.page)
	return n
}

// descend walks from the root to the leaf covering key, counting every
// node visit; a nil key leads to the first leaf. The descent is read-only
// and allocation-free: it compares against the nodes' own key slices and
// never copies them.
func (t *Tree) descend(key []byte) *node {
	n := t.enter(t.root)
	for !n.leaf {
		n = t.enter(n.kids[childIndex(n.keys, key)])
	}
	return n
}

// Get returns the value stored under key, reading the full record.
func (t *Tree) Get(key []byte) ([]byte, bool) {
	return t.GetInto(key, nil)
}

// GetInto is Get appending the value to dst instead of allocating a fresh
// slice — the allocation-free read kernel of the serving path.
func (t *Tree) GetInto(key, dst []byte) ([]byte, bool) {
	return t.GetSectionInto(key, 0, int(^uint(0)>>1), dst)
}

// GetSectionInto appends value[off:off+length] to dst, reading only the
// overflow pages that cover the section; a section running past the
// value's end is clipped. On a miss or an out-of-bounds offset dst is
// returned unchanged.
func (t *Tree) GetSectionInto(key []byte, off, length int, dst []byte) ([]byte, bool) {
	n := t.descend(key)
	i, ok := leafIndex(n.keys, key)
	if !ok {
		return dst, false
	}
	// A handle that only reads, set up without Open's bookkeeping: on a
	// point read of an inline value that costs a fifth of the whole call.
	h := Record{t: t, rec: n.vals[i]}
	if off < 0 || off > h.Len() {
		return dst, false
	}
	return append(dst, h.Read(off, min(length, h.Len()-off))...), true
}

// Insert stores val under key, replacing any existing value.
func (t *Tree) Insert(key, val []byte) {
	if key == nil {
		panic("btree: nil key")
	}
	t.Open(key, &t.w)
	t.w.SetValue(val)
	t.w.Flush()
}

// Delete removes key, reporting whether it was present. Nodes are not
// merged (lazy deletion).
func (t *Tree) Delete(key []byte) bool {
	t.Open(key, &t.w)
	ok := t.w.Exists()
	t.w.Delete()
	t.w.Flush()
	return ok
}

// split halves a node, returning the separator key and the new right node.
func (t *Tree) split(n *node) ([]byte, *node) {
	t.splits++
	right := t.newNode(n.leaf)
	right.parent = n.parent
	h := len(n.keys) / 2
	if n.leaf {
		right.keys = append(right.keys, n.keys[h:]...)
		right.vals = append(right.vals, n.vals[h:]...)
		n.keys = n.keys[:h:h]
		n.vals = n.vals[:h:h]
		right.next = n.next
		n.next = right
		sep := append([]byte(nil), right.keys[0]...)
		t.writePage(n.page)
		t.writePage(right.page)
		return sep, right
	}
	// Internal: the middle key moves up.
	sep := n.keys[h]
	right.keys = append(right.keys, n.keys[h+1:]...)
	right.kids = append(right.kids, n.kids[h+1:]...)
	for _, kid := range right.kids {
		kid.parent = right
	}
	n.keys = n.keys[:h:h]
	n.kids = n.kids[: h+1 : h+1]
	t.writePage(n.page)
	t.writePage(right.page)
	return sep, right
}

// splitUp restores the byte budget after n grew: an over-full node is
// halved and its separator pushed into the parent, level by level, a new
// root growing above the old one when the split reaches it. Halving is by
// key count, so where entries are large against the page a half can still
// be over budget: both are checked again before the parent is.
func (t *Tree) splitUp(n *node) {
	if t.nodeBytes(n) <= t.pager.PageSize() || len(n.keys) < 2 {
		return // in budget, or one entry that no split can help
	}
	mid, right := t.split(n)
	p := n.parent
	if p == nil {
		p = t.newNode(false)
		p.keys = [][]byte{mid}
		p.kids = []*node{n, right}
		n.parent, right.parent = p, p
		t.root = p
	} else {
		ci := childIndex(p.keys, mid) // mid lies in n's key range, so this is n's slot
		p.keys = insertAt(p.keys, ci, mid)
		p.kids = insertNodeAt(p.kids, ci+1, right)
	}
	t.writePage(p.page)
	t.splitUp(n)
	t.splitUp(right)
	t.splitUp(p)
}

// Ascend calls fn for every key/value in order until fn returns false.
// Each leaf page and overflow page read is counted. Key and value are
// fresh copies the callback may retain.
func (t *Tree) Ascend(fn func(key, val []byte) bool) {
	t.AscendRange(nil, nil, fn)
}

// AscendRange calls fn for keys in [lo, hi) in order until fn returns
// false. A nil lo starts at the smallest key; nil hi runs to the end.
// Every leaf page and every overflow page of every record in the range is
// counted. Key and value are fresh copies the callback may retain.
func (t *Tree) AscendRange(lo, hi []byte, fn func(key, val []byte) bool) {
	var h Record
	t.ScanInto(lo, hi, &h, func(key []byte) bool {
		return fn(append([]byte(nil), key...), append([]byte(nil), h.Read(0, h.Len())...))
	})
}

// ScanInto positions h for reading on every record with a key in [lo, hi),
// in order, and calls fn with the key until it returns false. It counts
// the descent to lo and each leaf after it; a record's own pages are
// counted as fn reads them through h, so a reader that wants one section of
// a multi-page record pays for that section. key is the tree's own, valid
// during the call.
func (t *Tree) ScanInto(lo, hi []byte, h *Record, fn func(key []byte) bool) {
	n := t.descend(lo)
	i, _ := leafIndex(n.keys, lo)
	for ; n != nil; n, i = n.next, 0 {
		for ; i < len(n.keys); i++ {
			if hi != nil && bytes.Compare(n.keys[i], hi) >= 0 {
				return
			}
			h.at(t, n.keys[i], n, i, true)
			if !fn(n.keys[i]) {
				return
			}
		}
		if n.next != nil {
			t.readPage(n.next.page)
		}
	}
}

// Validate checks the tree's structural invariants: key ordering within and
// across nodes, separator correctness, byte budgets, parent links, leaf
// chaining, and that every value has exactly the overflow pages its length
// calls for.
func (t *Tree) Validate() error {
	ps := t.pager.PageSize()
	var prevLeafKey []byte
	var walk func(n *node, lo, hi []byte) error
	walk = func(n *node, lo, hi []byte) error {
		if t.nodeBytes(n) > ps {
			return fmt.Errorf("btree %s: node %d over budget (%d > %d)", t.name, n.page.ID, t.nodeBytes(n), ps)
		}
		for i := 1; i < len(n.keys); i++ {
			if bytes.Compare(n.keys[i-1], n.keys[i]) >= 0 {
				return fmt.Errorf("btree %s: node %d keys out of order", t.name, n.page.ID)
			}
		}
		for _, k := range n.keys {
			if lo != nil && bytes.Compare(k, lo) < 0 {
				return fmt.Errorf("btree %s: node %d key below separator", t.name, n.page.ID)
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return fmt.Errorf("btree %s: node %d key above separator", t.name, n.page.ID)
			}
		}
		if n.leaf {
			if len(n.keys) != len(n.vals) {
				return fmt.Errorf("btree %s: node %d keys/vals mismatch", t.name, n.page.ID)
			}
			for i, k := range n.keys {
				if prevLeafKey != nil && bytes.Compare(prevLeafKey, k) >= 0 {
					return fmt.Errorf("btree %s: leaf chain out of order at %q", t.name, k)
				}
				prevLeafKey = k
				want, r := 0, n.vals[i]
				if len(r.val) > t.MaxInline() {
					want = (len(r.val) + ps - 1) / ps
				}
				if len(r.overflow) != want {
					return fmt.Errorf("btree %s: %d-byte value of %q on %d overflow pages, want %d", t.name, len(r.val), k, len(r.overflow), want)
				}
			}
			return nil
		}
		if len(n.kids) != len(n.keys)+1 {
			return fmt.Errorf("btree %s: node %d kids/keys mismatch", t.name, n.page.ID)
		}
		for i, kid := range n.kids {
			var klo, khi []byte
			if i > 0 {
				klo = n.keys[i-1]
			} else {
				klo = lo
			}
			if i < len(n.keys) {
				khi = n.keys[i]
			} else {
				khi = hi
			}
			if kid.parent != n {
				return fmt.Errorf("btree %s: node %d does not point back at its parent %d", t.name, kid.page.ID, n.page.ID)
			}
			if err := walk(kid, klo, khi); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, nil, nil)
}

// childIndex returns the index of the child to descend into for key:
// the first i with key < keys[i], i.e. kids[i] covers keys < keys[i].
func childIndex(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(key, keys[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// leafIndex finds key exactly within a leaf's keys.
func leafIndex(keys [][]byte, key []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(key, keys[mid]) {
		case 0:
			return mid, true
		case -1:
			hi = mid
		default:
			lo = mid + 1
		}
	}
	return lo, false
}

func insertAt(s [][]byte, i int, v []byte) [][]byte {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertRecAt(s []*record, i int, v *record) []*record {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertNodeAt(s []*node, i int, v *node) []*node {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
