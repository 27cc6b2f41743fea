package btree

import (
	"bytes"
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
