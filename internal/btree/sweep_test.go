package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// sweepRig is a randomized tree for the sweep's contract: keys 2, 4, 6, …
// (odd keys are the misses between them), inline and multi-page values,
// some keys deleted again.
func sweepRig(t testing.TB, seed int64, n int) *Tree {
	tr := newTree(t, 256)
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(n) {
		val := make([]byte, 1+rng.Intn(40))
		if rng.Intn(8) == 0 {
			val = make([]byte, 129+rng.Intn(600)) // past MaxInline: one to three pages
		}
		rng.Read(val)
		tr.Insert(key(2*i+2), val)
	}
	for i := 0; i < n/8; i++ {
		tr.Delete(key(2*rng.Intn(n) + 2))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// pathNodes adds the nodes on key's root-to-leaf path to seen, choosing
// children by a linear scan of its own.
func pathNodes(tr *Tree, k []byte, seen map[*node]bool) {
	for n := tr.root; ; {
		seen[n] = true
		if n.leaf {
			return
		}
		i := 0
		for i < len(n.keys) && bytes.Compare(k, n.keys[i]) >= 0 {
			i++
		}
		n = n.kids[i]
	}
}

// checkSweep seeks keys in the order given and compares every answer with
// Get's; it returns the page reads of the seeks alone.
func checkSweep(t *testing.T, tr *Tree, keys []int) uint64 {
	t.Helper()
	var sw Sweep
	var h Record
	sw.Reset(tr)
	var reads uint64
	for _, k := range keys {
		before := tr.Pager().Stats().Reads
		ok := sw.Seek(key(k), &h)
		reads += tr.Pager().Stats().Reads - before
		want, wantOK := tr.Get(key(k))
		if ok != wantOK || ok != h.Exists() {
			t.Fatalf("Seek(%d) = %v, Get says %v", k, ok, wantOK)
		}
		if ok && !bytes.Equal(h.Read(0, h.Len()), want) {
			t.Fatalf("Seek(%d): value differs from Get's", k)
		}
	}
	return reads
}

func FuzzSweep(f *testing.F) {
	f.Add(int64(1), uint16(200), []byte{0, 10, 0, 10, 0, 3, 1, 200, 0, 0, 255, 255}) // duplicates, a step back, a key past the end
	f.Add(int64(2), uint16(0), []byte{0, 1, 0, 2})                                   // the empty tree
	f.Add(int64(3), uint16(600), []byte{1, 0, 1, 1, 1, 2, 1, 3, 4, 0, 4, 1})         // two dense runs, leaves apart
	f.Fuzz(func(t *testing.T, seed int64, n uint16, data []byte) {
		size := int(n) % 1500
		tr := sweepRig(t, seed, size)
		keys := make([]int, 0, len(data)/2)
		for i := 0; i+1 < len(data) && len(keys) < 300; i += 2 {
			keys = append(keys, (int(data[i])<<8|int(data[i+1]))%(2*size+6))
		}
		checkSweep(t, tr, keys)

		// Ascending, the seeks read each node on the keys' paths once.
		slices.Sort(keys)
		nodes := map[*node]bool{}
		for _, k := range keys {
			pathNodes(tr, key(k), nodes)
		}
		if got := checkSweep(t, tr, keys); got != uint64(len(nodes)) || got > uint64(len(keys)*tr.Height()) {
			t.Fatalf("%d ascending keys read %d pages, their paths hold %d nodes (height %d)", len(keys), got, len(nodes), tr.Height())
		}

		// A tree that changed shape since the last sweep: Reset forgets it.
		for i := 0; i < 40; i++ {
			tr.Insert(key(2*(size+i)+1), bytes.Repeat([]byte{byte(i)}, 30))
		}
		slices.Reverse(keys)
		checkSweep(t, tr, keys)
	})
}

// TestSweepOneKeyCostsADescent: a sweep of one key reads Height() pages,
// like GetInto, whether the key exists or not.
func TestSweepOneKeyCostsADescent(t *testing.T) {
	tr := sweepRig(t, 7, 1200)
	if tr.Height() < 3 {
		t.Fatalf("height %d; the test wants 3 levels", tr.Height())
	}
	for _, k := range []int{2, 3, 1200, 2401, 9999} {
		if got := checkSweep(t, tr, []int{k}); got != uint64(tr.Height()) {
			t.Errorf("one-key sweep of %d read %d pages, height %d", k, got, tr.Height())
		}
	}
}

// TestSweepReadModifyWrite: a handle a sweep positions reads, replaces and
// deletes the record it stands on, and creates the record of an absent key.
func TestSweepReadModifyWrite(t *testing.T) {
	tr := newTree(t, 256)
	var sw Sweep
	var h Record
	sw.Reset(tr)
	if sw.Seek(key(1), &h) {
		t.Fatal("absent key found")
	}
	h.SetValue([]byte("one"))
	h.Flush()
	if !sw.Seek(key(1), &h) {
		t.Fatal("inserted key not found")
	}
	h.SetValue(append(h.Read(0, h.Len()), "+two"...))
	h.Flush()
	if v, _ := tr.Get(key(1)); string(v) != "one+two" {
		t.Errorf("read-modify-write left %q", v)
	}
	sw.Seek(key(1), &h)
	h.Delete()
	h.Flush()
	if _, ok := tr.Get(key(1)); ok {
		t.Error("key survived its delete")
	}
	if sw.Seek(key(42), &h) { // deleting an absent key changes nothing
		t.Fatal("absent key found")
	}
	h.Delete()
	h.Flush()
	if tr.Len() != 0 {
		t.Errorf("Len = %d after deleting everything", tr.Len())
	}
	sw.Reset(nil)
}

// TestWriteSweepOneKeyCostsCML: editing one in-leaf record through a sweep
// costs Section 3.1's CML = h + 1, the descent and the leaf's write; an edit
// that changes nothing writes nothing.
func TestWriteSweepOneKeyCostsCML(t *testing.T) {
	tr := newTree(t, 256)
	for i := 0; i < 2000; i++ {
		tr.Insert(key(i), []byte("v"))
	}
	h := tr.Height()
	var sw Sweep
	var rec Record
	for _, tc := range []struct {
		name string
		k    []byte
		edit func()
	}{
		{"change", key(700), func() { rec.SetValue(append(rec.Read(0, rec.Len()), '+')) }},
		{"delete", key(701), rec.Delete},
	} {
		tr.Pager().ResetStats()
		sw.Reset(tr)
		sw.Seek(tc.k, &rec)
		tc.edit()
		rec.Flush()
		if s := tr.Pager().Stats(); int(s.Reads) != h || s.Writes != 1 {
			t.Errorf("%s: %d reads, %d writes; want h = %d and 1 (CML = h + 1)", tc.name, s.Reads, s.Writes, h)
		}
	}
	tr.Pager().ResetStats()
	sw.Reset(tr)
	sw.Seek(key(99999), &rec)
	rec.Delete()
	rec.Flush()
	if s := tr.Pager().Stats(); int(s.Reads) != h || s.Writes != 0 {
		t.Errorf("no-op delete: %+v", s)
	}
	sw.Reset(nil)
	mustValidate(t, tr)
}

// TestWriteSweepRestartsAfterSplit: a write whose flush splits the leaf the
// sweep stands on sends the next Seek back to the root once — the pages of
// the first key's path, then those of the later keys' paths in the tree as
// it is after the split, each counted once — and the later keys are found
// where the split put them.
func TestWriteSweepRestartsAfterSplit(t *testing.T) {
	tr := newTree(t, 256)
	for i := 0; i < 400; i++ {
		tr.Insert(key(i), []byte{byte(i)})
	}
	if tr.Height() < 2 {
		t.Fatalf("height %d; the test wants a root above the leaves", tr.Height())
	}
	// The fullest leaf: a value of MaxInline bytes in its first key must
	// split it.
	leaf := tr.root
	for !leaf.leaf {
		leaf = leaf.kids[0]
	}
	full := leaf
	for n := leaf; n != nil; n = n.next {
		if tr.nodeBytes(n) > tr.nodeBytes(full) {
			full = n
		}
	}
	if tr.nodeBytes(full)+tr.MaxInline() <= tr.Pager().PageSize() || len(full.keys) < 4 {
		t.Fatalf("fullest leaf holds %d bytes in %d keys; a %d-byte value would not split it", tr.nodeBytes(full), len(full.keys), tr.MaxInline())
	}
	first := int(binary.BigEndian.Uint64(full.keys[0]))
	later := []int{first + len(full.keys) - 2, first + len(full.keys) - 1}

	var sw Sweep
	var h Record
	tr.Pager().ResetStats()
	height, splits := uint64(tr.Height()), tr.splits
	sw.Reset(tr)
	sw.Seek(key(first), &h)
	h.SetValue(bytes.Repeat([]byte{0xAB}, tr.MaxInline()))
	h.Flush()
	if tr.splits == splits {
		t.Fatal("the write did not split its leaf")
	}
	afterFirst := tr.Pager().Stats().Reads
	for _, k := range later {
		if !sw.Seek(key(k), &h) {
			t.Fatalf("key %d lost after the split", k)
		}
		h.Patch(0, []byte{0xCD})
		h.Flush()
	}
	sw.Reset(nil)
	mustValidate(t, tr)

	nodes := map[*node]bool{}
	for _, k := range later {
		pathNodes(tr, key(k), nodes)
	}
	if afterFirst != height {
		t.Errorf("first key read %d pages, height %d", afterFirst, height)
	}
	if got, want := tr.Pager().Stats().Reads-afterFirst, uint64(len(nodes)); got != want {
		t.Errorf("after the split the sweep read %d pages; one restart reads the %d nodes on the later keys' paths", got, want)
	}
	for _, k := range later {
		if v, _ := tr.Get(key(k)); !bytes.Equal(v, []byte{0xCD}) {
			t.Errorf("key %d = %x after its patch", k, v)
		}
	}
}

// FuzzWriteSweep drives batches of edits through write sweeps: each batch's
// keys are sorted and every key gets an insert, a resize, a patch or a
// delete, flushed before the next Seek. Pages are small enough that leaves
// and internal nodes split in the middle of a batch. After every batch the
// tree must equal a map model, pass Validate and answer Get as the model
// does.
func FuzzWriteSweep(f *testing.F) {
	f.Add([]byte{5, 10, 0, 200, 11, 0, 8, 12, 1, 90, 13, 2, 7, 14, 3, 0})
	f.Add([]byte{23, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 6, 0, 0, 7, 0, 0, 8, 0, 0, 9, 0, 0, 10, 0, 0, 11, 0, 0, 12, 0, 0})
	f.Add([]byte{3, 40, 1, 255, 40, 2, 17, 40, 3, 0, 1, 40, 0, 64})
	// A resize alone of an inline value grows its leaf, which must then be
	// written and split like any other leaf change.
	f.Add([]byte("1000000\"000000000000000000000000000000000'110000000000000000000j010000000000000000000002000j1 "))
	f.Fuzz(func(t *testing.T, data []byte) {
		type edit struct {
			k         int
			kind, arg byte
		}
		tr := newTree(t, 128)
		model := map[string][]byte{}
		var sw Sweep
		var h Record
		for batches := 0; len(data) > 0 && batches < 64; batches++ {
			n := 1 + int(data[0])%24
			data = data[1:]
			var batch []edit
			for ; n > 0 && len(data) >= 3; n-- {
				batch = append(batch, edit{int(data[0]), data[1], data[2]})
				data = data[3:]
			}
			slices.SortStableFunc(batch, func(a, b edit) int { return a.k - b.k })
			sw.Reset(tr)
			for _, e := range batch {
				k := key(e.k)
				cur, ok := model[string(k)]
				if sw.Seek(k, &h) != ok || h.Len() != len(cur) {
					t.Fatalf("Seek(%d) = (%v, %d bytes), model (%v, %d bytes)", e.k, h.Exists(), h.Len(), ok, len(cur))
				}
				if ok && !bytes.Equal(h.Read(0, h.Len()), cur) {
					t.Fatalf("Seek(%d): value differs from the model's", e.k)
				}
				switch e.kind % 4 {
				case 0: // insert or replace: inline, or on overflow pages
					n := int(e.arg) % 40
					if e.arg%4 == 0 {
						n = tr.MaxInline() + int(e.arg)
					}
					val := bytes.Repeat([]byte{e.arg}, n)
					h.SetValue(val)
					model[string(k)] = val
				case 1: // resize, creating an absent record
					n := 2 * int(e.arg)
					h.Resize(n)
					grown := append(cur[:min(n, len(cur)):min(n, len(cur))], make([]byte, max(n-len(cur), 0))...)
					model[string(k)] = grown
				case 2: // patch
					if ok && len(cur) > 0 {
						off := int(e.arg) % len(cur)
						b := bytes.Repeat([]byte{e.arg ^ 0x5A}, min(len(cur)-off, 1+int(e.arg)%150))
						h.Patch(off, b)
						copy(cur[off:], b)
					}
				default:
					h.Delete()
					delete(model, string(k))
				}
				h.Flush()
			}
			sw.Reset(nil)
			checkModel(t, tr, model)
		}
	})
}

// checkModel compares the whole tree with the model: Validate, the ordered
// contents, and Get on every model key and on the misses between them.
func checkModel(t *testing.T, tr *Tree, model map[string][]byte) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(model) {
		t.Fatalf("Len = %d, model holds %d keys", tr.Len(), len(model))
	}
	var prev []byte
	tr.Ascend(func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("keys out of order at %x", k)
		}
		prev = k
		if want, ok := model[string(k)]; !ok || !bytes.Equal(v, want) {
			t.Fatalf("tree holds %x = %d bytes, model (%v, %d bytes)", k, len(v), ok, len(want))
		}
		return true
	})
	for i := 0; i < 258; i++ {
		want, ok := model[string(key(i))]
		if got, found := tr.Get(key(i)); found != ok || !bytes.Equal(got, want) {
			t.Fatalf("Get(%d) = (%d bytes, %v), model (%d bytes, %v)", i, len(got), found, len(want), ok)
		}
	}
}

// BenchmarkSweep is the layer's own benchmark: t ascending keys drawn
// uniformly from a tree of 100,000, sought through one Sweep, through an
// Open per key (the point hop) and through a GetInto per key. Each cell
// rotates through 64 key sets so the branch predictor does not learn one.
func BenchmarkSweep(b *testing.B) {
	const n, sets = 100_000, 64
	tr := newTree(b, 4096)
	val := make([]byte, 28) // an OID set of three
	for i := 0; i < n; i++ {
		tr.Insert(key(i), val)
	}
	runtime.GC() // the build's garbage is not the first cell's to collect
	for _, t := range []int{1, 4, 64, 1024} {
		rng := rand.New(rand.NewSource(int64(t)))
		probes := make([][][]byte, sets)
		for s := range probes {
			ks := rng.Perm(n)[:t]
			slices.Sort(ks)
			for _, k := range ks {
				probes[s] = append(probes[s], key(k))
			}
		}
		run := func(name string, probe func(keys [][]byte)) {
			b.Run(fmt.Sprintf("%s/t=%d", name, t), func(b *testing.B) {
				tr.Pager().ResetStats()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					probe(probes[i%sets])
				}
				keys := float64(b.N * t)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/keys, "ns/key")
				b.ReportMetric(float64(tr.Pager().Stats().Reads)/keys, "pages/key")
			})
		}
		var sw Sweep
		var h Record
		var buf []byte
		run("sweep", func(keys [][]byte) {
			sw.Reset(tr)
			for _, k := range keys {
				if sw.Seek(k, &h) {
					buf = append(buf[:0], h.Read(0, h.Len())...)
				}
			}
		})
		run("open", func(keys [][]byte) { // a point hop per key
			for _, k := range keys {
				if tr.Open(k, &h); h.Exists() {
					buf = append(buf[:0], h.Read(0, h.Len())...)
				}
			}
		})
		run("getinto", func(keys [][]byte) {
			for _, k := range keys {
				buf, _ = tr.GetInto(k, buf[:0])
			}
		})
	}
}
