package btree

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// The handle tests pin the page accounting every organization's
// maintenance cost rests on: one descent per Open, a page read at most
// once per handle, a changed page written exactly once per Flush, and a
// chain that grows and shrinks at its tail without touching the rest.

// openOn opens a fresh handle on k and returns the pager counters the
// descent itself cost, so tests can assert on what the handle adds.
func openOn(tr *Tree, k []byte) (*Record, storage.Stats) {
	tr.Pager().ResetStats()
	h := &Record{}
	tr.Open(k, h)
	return h, tr.Pager().Stats()
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i/256)
	}
	return b
}

func pageIDs(h *Record) []storage.PageID {
	var ids []storage.PageID
	for _, pg := range h.rec.overflow {
		ids = append(ids, pg.ID)
	}
	return ids
}

func mustValidate(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRecordReadsEachPageOnce(t *testing.T) {
	tr := newTree(t, 256)
	val := pattern(2000) // 8 overflow pages
	tr.Insert(key(1), val)
	h, open := openOn(tr, key(1))
	if int(open.Reads) != tr.Height() || open.Writes != 0 {
		t.Fatalf("Open cost %+v, want %d reads", open, tr.Height())
	}
	reads := func() int { return int(tr.Pager().Stats().Reads - open.Reads) }
	if got := h.Read(300, 100); !bytes.Equal(got, val[300:400]) || reads() != 1 {
		t.Fatalf("Read(300,100): %d page reads, want 1 (page 1)", reads())
	}
	h.Read(300, 100)
	h.Read(260, 10)
	if reads() != 1 {
		t.Errorf("re-reading page 1 through the same handle counted again: %d reads", reads())
	}
	if got := h.Read(200, 400); !bytes.Equal(got, val[200:600]) || reads() != 3 {
		t.Errorf("Read(200,400) spans pages 0..2, one already read: %d reads in all, want 3", reads())
	}
	h.Read(0, len(val))
	if reads() != 8 {
		t.Errorf("whole value: %d reads in all, want 8", reads())
	}
	if h.Read(40, 0); reads() != 8 {
		t.Errorf("empty read counted a page")
	}
	if s := tr.Pager().Stats(); s.Writes != 0 {
		t.Errorf("reads wrote %d pages", s.Writes)
	}
	// A second handle starts over.
	h2, open2 := openOn(tr, key(1))
	h2.Read(300, 100)
	if got := tr.Pager().Stats().Reads - open2.Reads; got != 1 {
		t.Errorf("fresh handle: %d reads, want 1", got)
	}
}

func TestRecordFlushWritesDirtyOnce(t *testing.T) {
	tr := newTree(t, 256)
	val := pattern(2000)
	tr.Insert(key(1), val)
	h, open := openOn(tr, key(1))
	// Three patches on page 2, one straddling pages 4 and 5.
	h.Patch(520, []byte("abc"))
	h.Patch(600, []byte("defg"))
	h.Patch(520, []byte("xyz"))
	h.Patch(1278, []byte("straddle"))
	copy(val[600:], "defg")
	copy(val[520:], "xyz")
	copy(val[1278:], "straddle")
	if s := tr.Pager().Stats(); s.Writes != 0 || s.Reads-open.Reads != 3 {
		t.Fatalf("before Flush: %d writes, %d reads; want 0 and 3 (a partly patched page is read first)", s.Writes, s.Reads-open.Reads)
	}
	h.Flush()
	s := tr.Pager().Stats()
	if s.Writes != 3 || s.Allocs != 0 || s.Frees != 0 {
		t.Errorf("Flush: %+v, want exactly 3 writes (pages 2, 4, 5; not the leaf)", s)
	}
	if s.Reads-open.Reads != 3 {
		t.Errorf("Flush read pages: %d", s.Reads-open.Reads)
	}
	if got, _ := tr.Get(key(1)); !bytes.Equal(got, val) {
		t.Error("patched value differs")
	}
	mustValidate(t, tr)

	// A whole-page patch needs no read; a spent handle writes nothing more.
	h, open = openOn(tr, key(1))
	h.Patch(256, bytes.Repeat([]byte{9}, 256))
	h.Flush()
	h.Flush()
	if s := tr.Pager().Stats(); s.Reads != open.Reads || s.Writes != 1 {
		t.Errorf("whole-page patch: %+v, want 0 reads past the descent and 1 write", s)
	}

	// An inline value lives in its leaf: any patch is one leaf write.
	tr.Insert(key(2), []byte("0123456789"))
	h, open = openOn(tr, key(2))
	h.Patch(2, []byte("AB"))
	h.Patch(7, []byte("C"))
	h.Flush()
	if s := tr.Pager().Stats(); s.Reads != open.Reads || s.Writes != 1 {
		t.Errorf("inline patch: %+v, want 1 write", s)
	}
	if got, _ := tr.Get(key(2)); string(got) != "01AB456C89" {
		t.Errorf("inline patch = %q", got)
	}
}

func TestRecordResizeLeavesOtherPagesAlone(t *testing.T) {
	tr := newTree(t, 256)
	val := pattern(1000) // 4 pages, the last partly used
	tr.Insert(key(1), val)
	tr.Insert(key(2), []byte("neighbour"))
	base := tr.Pager().NumPages()

	h, open := openOn(tr, key(1))
	before := pageIDs(h)
	h.Resize(1500) // 6 pages
	h.Patch(1000, []byte("tail"))
	h.Flush()
	mustValidate(t, tr)
	s := tr.Pager().Stats()
	// Page 3 gains bytes past its old end without being rewritten only if
	// nothing is put there; the patch at 1000 lands on it.
	if s.Allocs != 2 || s.Frees != 0 || s.Writes != 3 || s.Reads-open.Reads != 1 {
		t.Errorf("extend: %+v, want 2 allocs, 3 writes (2 new pages + the patched one), 1 read", s)
	}
	h, _ = openOn(tr, key(1))
	after := pageIDs(h)
	if len(after) != 6 || !equalIDs(after[:4], before) {
		t.Errorf("extend changed existing pages: %v -> %v", before, after)
	}
	want := append(append([]byte(nil), val...), make([]byte, 500)...)
	copy(want[1000:], "tail")
	if got, _ := tr.Get(key(1)); !bytes.Equal(got, want) {
		t.Error("extended value differs")
	}

	h, open = openOn(tr, key(1))
	h.Resize(600) // 3 pages
	h.Flush()
	mustValidate(t, tr)
	s = tr.Pager().Stats()
	if s.Frees != 3 || s.Allocs != 0 || s.Writes != 0 || s.Reads != open.Reads {
		t.Errorf("truncate: %+v, want 3 frees and nothing else", s)
	}
	h, _ = openOn(tr, key(1))
	if ids := pageIDs(h); !equalIDs(ids, before[:3]) {
		t.Errorf("truncate changed the surviving pages: %v -> %v", before, ids)
	}
	if got, _ := tr.Get(key(1)); !bytes.Equal(got, want[:600]) {
		t.Error("truncated value differs")
	}

	// Growing again exposes zeros, not what was cut off.
	h, _ = openOn(tr, key(1))
	h.Resize(700)
	h.Flush()
	if got, _ := tr.Get(key(1)); !bytes.Equal(got[600:], make([]byte, 100)) {
		t.Error("regrown bytes are not zero")
	}

	// Crossing MaxInline re-makes the record: chain freed, leaf written.
	h, open = openOn(tr, key(1))
	h.Resize(100)
	h.Flush()
	mustValidate(t, tr)
	if s := tr.Pager().Stats(); s.Frees != 3 || s.Writes != 1 {
		t.Errorf("to inline: %+v, want 3 frees and the leaf write", s)
	}
	if tr.Pager().NumPages() != base-4 {
		t.Errorf("NumPages = %d, want %d", tr.Pager().NumPages(), base-4)
	}
	h, _ = openOn(tr, key(1))
	h.SetValue(val)
	h.Flush()
	mustValidate(t, tr)
	if s := tr.Pager().Stats(); s.Allocs != 4 || s.Writes != 5 {
		t.Errorf("to overflow: %+v, want 4 allocs and 5 writes (chain + leaf)", s)
	}
	if got, _ := tr.Get(key(1)); !bytes.Equal(got, val) {
		t.Error("re-made value differs")
	}
}

func equalIDs(a, b []storage.PageID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRecordDeleteFreesOnce(t *testing.T) {
	tr := newTree(t, 256)
	base := tr.Pager().NumPages()
	tr.Insert(key(1), pattern(1000))
	h, _ := openOn(tr, key(1))
	h.Patch(10, []byte("dirty page that must not be written after the free"))
	h.Delete()
	h.Delete() // the key is gone: nothing left to free
	h.Flush()
	mustValidate(t, tr)
	if s := tr.Pager().Stats(); s.Frees != 4 || s.Writes != 1 {
		t.Errorf("delete: %+v, want 4 frees and the leaf write", s)
	}
	if tr.Pager().NumPages() != base || tr.Len() != 0 {
		t.Errorf("NumPages = %d (base %d), Len = %d", tr.Pager().NumPages(), base, tr.Len())
	}
	// A handle on an absent key creates the record on Resize.
	h, _ = openOn(tr, key(1))
	if h.Exists() || h.Len() != 0 {
		t.Fatal("deleted key still has a record")
	}
	h.Resize(5)
	h.Patch(0, []byte("again"))
	h.Flush()
	if got, ok := tr.Get(key(1)); !ok || string(got) != "again" || tr.Len() != 1 {
		t.Errorf("recreated = %q, %v", got, ok)
	}
}

// TestRecordRandomOpsAgainstModel drives handles with random reads,
// patches, moves, resizes and deletes over a handful of keys against plain
// byte slices, validating the tree and the page accounting at every step.
func TestRecordRandomOpsAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New(storage.MustNewPager(128, 0), "model")
		model := map[string][]byte{}
		var h Record
		for step := 0; step < 600; step++ {
			k := key(rng.Intn(6))
			tr.Pager().ResetStats()
			tr.Open(k, &h)
			cur, ok := model[string(k)]
			if h.Exists() != ok || h.Len() != len(cur) {
				t.Fatalf("seed %d step %d: handle sees (%v, %d), model (%v, %d)", seed, step, h.Exists(), h.Len(), ok, len(cur))
			}
			chain := 0
			if ok {
				chain = len(h.rec.overflow)
			}
			for n := rng.Intn(4); n >= 0; n-- {
				switch op := rng.Intn(10); {
				case op < 3 && len(cur) > 0:
					off := rng.Intn(len(cur))
					n := rng.Intn(len(cur) - off + 1)
					if !bytes.Equal(h.Read(off, n), cur[off:off+n]) {
						t.Fatalf("seed %d step %d: Read(%d,%d) differs", seed, step, off, n)
					}
				case op < 5 && len(cur) > 0:
					off := rng.Intn(len(cur))
					b := pattern(rng.Intn(len(cur) - off + 1))
					h.Patch(off, b)
					copy(cur[off:], b)
				case op < 6 && len(cur) > 1:
					n := 1 + rng.Intn(len(cur)/2)
					from, to := rng.Intn(len(cur)-n+1), rng.Intn(len(cur)-n+1)
					h.Move(to, from, n)
					copy(cur[to:to+n], cur[from:from+n])
				case op < 9:
					n := rng.Intn(700)
					h.Resize(n)
					if n <= len(cur) {
						cur = cur[:n:n]
					} else {
						cur = append(cur, make([]byte, n-len(cur))...)
					}
					if cur == nil {
						cur = []byte{}
					}
					model[string(k)] = cur
					ok = true
				default:
					h.Delete()
					delete(model, string(k))
					cur, ok = nil, false
				}
			}
			h.Flush()
			if err := tr.Validate(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			// No page is read or written twice: the counters are bounded by
			// the pages the record ever had during the operation, plus the
			// descent and the leaf with any split above it.
			after := 0
			if ok {
				after = (len(cur) + 127) / 128
			}
			s := tr.Pager().Stats()
			pages := uint64(max(chain, after)) + s.Allocs
			if s.Reads > uint64(tr.Height())+pages || s.Writes > pages+uint64(2*tr.Height()+1) {
				t.Fatalf("seed %d step %d: %+v for a record of at most %d pages", seed, step, s, pages)
			}
			got, found := tr.Get(k)
			if found != ok || !bytes.Equal(got, cur) {
				t.Fatalf("seed %d step %d: Get = (%d bytes, %v), model (%d bytes, %v)", seed, step, len(got), found, len(cur), ok)
			}
		}
		for k := range model {
			tr.Delete([]byte(k))
		}
		// Nodes are never merged, so they stay; every overflow page must be
		// gone.
		if got, nodes := tr.Pager().NumPages(), countNodes(tr.root); got != nodes {
			t.Errorf("seed %d: %d pages left for %d nodes", seed, got, nodes)
		}
	}
}

func countNodes(n *node) int {
	count := 1
	for _, kid := range n.kids {
		count += countNodes(kid)
	}
	return count
}
