package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

func key(i int) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(i))
	return b
}

func newTree(t testing.TB, pageSize int) *Tree {
	t.Helper()
	return New(storage.MustNewPager(pageSize, 0), "t")
}

func TestEmptyTree(t *testing.T) {
	tr := newTree(t, 256)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Errorf("empty: len=%d height=%d", tr.Len(), tr.Height())
	}
	if _, ok := tr.Get(key(1)); ok {
		t.Error("Get on empty found a key")
	}
	if tr.Delete(key(1)) {
		t.Error("Delete on empty reported success")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestInsertGet(t *testing.T) {
	tr := newTree(t, 256)
	for i := 0; i < 500; i++ {
		tr.Insert(key(i), []byte(fmt.Sprintf("val-%d", i)))
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		v, ok := tr.Get(key(i))
		if !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(%d) = %q,%v", i, v, ok)
		}
	}
	if _, ok := tr.Get(key(500)); ok {
		t.Error("found non-existent key")
	}
	if tr.Height() < 2 {
		t.Errorf("height = %d, expected splits", tr.Height())
	}
}

func TestInsertReplace(t *testing.T) {
	tr := newTree(t, 256)
	tr.Insert(key(7), []byte("a"))
	tr.Insert(key(7), []byte("b"))
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
	v, ok := tr.Get(key(7))
	if !ok || string(v) != "b" {
		t.Errorf("Get = %q,%v", v, ok)
	}
}

func TestDelete(t *testing.T) {
	tr := newTree(t, 256)
	for i := 0; i < 200; i++ {
		tr.Insert(key(i), []byte("v"))
	}
	for i := 0; i < 200; i += 2 {
		if !tr.Delete(key(i)) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tr.Len())
	}
	for i := 0; i < 200; i++ {
		_, ok := tr.Get(key(i))
		if want := i%2 == 1; ok != want {
			t.Errorf("Get(%d) ok=%v, want %v", i, ok, want)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOverflowRecords(t *testing.T) {
	tr := newTree(t, 256)
	big := bytes.Repeat([]byte("x"), 1000) // ~4 overflow pages at 256B
	tr.Insert(key(1), big)
	got, ok := tr.Get(key(1))
	if !ok || !bytes.Equal(got, big) {
		t.Fatalf("big record round-trip failed (len %d)", len(got))
	}
	// Accesses: reading the record must touch its overflow pages.
	tr.Pager().ResetStats()
	tr.Get(key(1))
	s := tr.Pager().Stats()
	if s.Reads < 4 {
		t.Errorf("reads = %d, want >= 4 (overflow pages)", s.Reads)
	}
	// Replacing frees old overflow pages.
	before := tr.Pager().NumPages()
	tr.Insert(key(1), []byte("small"))
	after := tr.Pager().NumPages()
	if after >= before {
		t.Errorf("overflow pages not freed: %d -> %d", before, after)
	}
}

func TestGetSectionPartialReads(t *testing.T) {
	tr := newTree(t, 256)
	val := make([]byte, 2000)
	for i := range val {
		val[i] = byte(i)
	}
	tr.Insert(key(9), val)
	tr.Pager().ResetStats()
	sec, ok := tr.GetSectionInto(key(9), 300, 100, nil)
	if !ok || !bytes.Equal(sec, val[300:400]) {
		t.Fatalf("GetSectionInto wrong: ok=%v len=%d", ok, len(sec))
	}
	s := tr.Pager().Stats()
	// Section [300,400) lies within overflow page 1 of 8: far fewer reads
	// than the full record's 8 pages.
	if s.Reads > 4 {
		t.Errorf("partial read touched %d pages, want <= 4", s.Reads)
	}
	// Section beyond the record end clips.
	sec, ok = tr.GetSectionInto(key(9), 1990, 100, nil)
	if !ok || len(sec) != 10 {
		t.Errorf("clipped section = %d bytes, ok=%v", len(sec), ok)
	}
	if _, ok := tr.GetSectionInto(key(9), -1, 5, nil); ok {
		t.Error("negative offset accepted")
	}
	if _, ok := tr.GetSectionInto(key(404), 0, 5, nil); ok {
		t.Error("missing key accepted")
	}
}

func TestAscendOrder(t *testing.T) {
	tr := newTree(t, 256)
	perm := rand.New(rand.NewSource(1)).Perm(300)
	for _, i := range perm {
		tr.Insert(key(i), key(i))
	}
	var got []int
	tr.Ascend(func(k, v []byte) bool {
		if !bytes.Equal(k, v) {
			t.Fatal("value mismatch")
		}
		got = append(got, int(binary.BigEndian.Uint64(k)))
		return true
	})
	if len(got) != 300 {
		t.Fatalf("visited %d keys", len(got))
	}
	if !sort.IntsAreSorted(got) {
		t.Error("Ascend out of order")
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := newTree(t, 256)
	for i := 0; i < 100; i++ {
		tr.Insert(key(i), []byte("v"))
	}
	count := 0
	tr.Ascend(func(k, v []byte) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("visited %d, want 10", count)
	}
}

func TestAscendRange(t *testing.T) {
	tr := newTree(t, 256)
	for i := 0; i < 100; i++ {
		tr.Insert(key(i), []byte("v"))
	}
	var got []int
	tr.AscendRange(key(20), key(30), func(k, v []byte) bool {
		got = append(got, int(binary.BigEndian.Uint64(k)))
		return true
	})
	if len(got) != 10 || got[0] != 20 || got[9] != 29 {
		t.Errorf("range [20,30) = %v", got)
	}
	// Open-ended range.
	count := 0
	tr.AscendRange(nil, nil, func(k, v []byte) bool { count++; return true })
	if count != 100 {
		t.Errorf("full range visited %d", count)
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	tr := newTree(t, 256)
	lastHeight := tr.Height()
	for i := 0; i < 3000; i++ {
		tr.Insert(key(i), []byte("valuedata"))
		h := tr.Height()
		if h < lastHeight {
			t.Fatalf("height shrank on insert: %d -> %d", lastHeight, h)
		}
		lastHeight = h
	}
	if lastHeight < 3 || lastHeight > 8 {
		t.Errorf("height after 3000 inserts = %d, expected a shallow tree", lastHeight)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLeafPages(t *testing.T) {
	tr := newTree(t, 256)
	if tr.LeafPages() != 1 {
		t.Errorf("empty LeafPages = %d", tr.LeafPages())
	}
	for i := 0; i < 1000; i++ {
		tr.Insert(key(i), []byte("0123456789"))
	}
	lp := tr.LeafPages()
	// ~22 bytes/entry on 256-byte pages, split at half: expect on the order
	// of 1000*22/128 ≈ 170 leaves; sanity bounds only.
	if lp < 50 || lp > 500 {
		t.Errorf("LeafPages = %d, outside sane range", lp)
	}
}

func TestRandomOpsAgainstMapProperty(t *testing.T) {
	// Property: the tree behaves as a sorted map under random operations.
	f := func(seed int64, rawOps []uint16) bool {
		tr := New(storage.MustNewPager(128, 0), "prop")
		ref := map[string]string{}
		rng := rand.New(rand.NewSource(seed))
		for _, op := range rawOps {
			k := key(int(op % 64))
			switch rng.Intn(3) {
			case 0:
				v := fmt.Sprintf("v%d", rng.Intn(1000))
				tr.Insert(k, []byte(v))
				ref[string(k)] = v
			case 1:
				got := tr.Delete(k)
				_, want := ref[string(k)]
				if got != want {
					return false
				}
				delete(ref, string(k))
			case 2:
				got, ok := tr.Get(k)
				want, wok := ref[string(k)]
				if ok != wok || (ok && string(got) != want) {
					return false
				}
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSplitKeepsBothHalvesInBudget inserts values large against the page
// (up to 40 bytes on 128-byte pages): halving a node by key count can leave
// either half over the byte budget, and it must be split again.
func TestSplitKeepsBothHalvesInBudget(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := newTree(t, 128)
		ref := map[int][]byte{}
		for i := 0; i < 400; i++ {
			k, v := rng.Intn(1000), make([]byte, 1+rng.Intn(40))
			rng.Read(v)
			tr.Insert(key(k), v)
			ref[k] = v
			if err := tr.Validate(); err != nil {
				t.Fatalf("seed %d insert %d: %v", seed, i, err)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("seed %d: Len = %d, want %d", seed, tr.Len(), len(ref))
		}
		for k, v := range ref {
			if got, ok := tr.Get(key(k)); !ok || !bytes.Equal(got, v) {
				t.Fatalf("seed %d: Get(%d) = %x, %v; want %x", seed, k, got, ok, v)
			}
		}
	}
}

func TestAccessCountingMatchesHeight(t *testing.T) {
	tr := newTree(t, 256)
	for i := 0; i < 2000; i++ {
		tr.Insert(key(i), []byte("v"))
	}
	h := tr.Height()
	tr.Pager().ResetStats()
	tr.Get(key(999))
	s := tr.Pager().Stats()
	if int(s.Reads) != h {
		t.Errorf("point lookup reads = %d, want height %d", s.Reads, h)
	}
	if s.Writes != 0 {
		t.Errorf("point lookup wrote %d pages", s.Writes)
	}
}

func TestNilKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Insert(nil) did not panic")
		}
	}()
	newTree(t, 256).Insert(nil, []byte("v"))
}
