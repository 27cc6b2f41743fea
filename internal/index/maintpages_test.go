package index

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/oodb"
)

// The maintenance page-accounting tests: an operation visits each tree
// through one sweep of its sorted keys, so it reads the distinct pages on
// their paths — Section 3.1's CMT — and no page twice. The expected counts
// come from leafOf, which reads a tree's leaf layout off a scan rather than
// from the sweep under test.

// leafOf maps every key of tr to the ordinal of the leaf holding it. A scan
// counts the descent to the first leaf and then one read per leaf it moves
// on to, so the pager's counter, read as the scan reaches a key, names the
// key's leaf. The scan's own reads are counted: call it before resetting.
func leafOf(tr *btree.Tree) map[string]uint64 {
	p := tr.Pager()
	base := p.Stats().Reads
	out := map[string]uint64{}
	var h btree.Record
	tr.ScanInto(nil, nil, &h, func(k []byte) bool {
		out[string(k)] = p.Stats().Reads - base
		return true
	})
	return out
}

// distinctPages counts what reaching keys costs a tree of height 2 whose
// records live in their leaves: the root and every distinct leaf the keys
// lie on, each once.
func distinctPages(t *testing.T, tr *btree.Tree, keys [][]byte) uint64 {
	t.Helper()
	if tr.Height() != 2 {
		t.Fatalf("tree of height %d; the walker counts a root and its leaves", tr.Height())
	}
	leaves := leafOf(tr)
	seen := map[uint64]bool{}
	for _, k := range keys {
		l, ok := leaves[string(k)]
		if !ok {
			t.Fatalf("key %x is not in the tree", k)
		}
		if v, _ := tr.Get(k); len(v) > tr.MaxInline() {
			t.Fatalf("the record under %x is %d bytes, on overflow pages; the walker counts leaves only", k, len(v))
		}
		seen[l] = true
	}
	if len(seen) == 0 {
		return 0
	}
	return 1 + uint64(len(seen))
}

// brandKeys counts, per primary key of a whole-path NIX, how many of the
// given vehicles reach it: the numchild an owner of them has there.
func (f *fixture) brandKeys(t *testing.T, vehicles []oodb.Value) map[string]uint32 {
	t.Helper()
	out := map[string]uint32{}
	for _, v := range vehicles {
		veh, _ := f.store.Peek(v.Ref)
		comp, ok := f.store.Peek(veh.Refs("man")[0])
		if !ok {
			t.Fatalf("vehicle %d has no company", v.Ref)
		}
		out[string(EncodeValue(comp.Values("name")[0]))]++
	}
	return out
}

// relinkPlan is what re-linking persons costs a whole-path NIX: the
// children whose tuples the operation reads, those whose parent lists
// change, and the primary records whose entries change.
type relinkPlan struct {
	children, relinked, records map[string]bool
}

func (r *relinkPlan) add(t *testing.T, f *fixture, old, upd []oodb.Value) {
	t.Helper()
	for _, v := range old {
		r.children[string(EncodeOID(v.Ref))] = true
		if !slices.ContainsFunc(upd, v.Equal) {
			r.relinked[string(EncodeOID(v.Ref))] = true
		}
	}
	for _, v := range upd {
		r.children[string(EncodeOID(v.Ref))] = true
		if !slices.ContainsFunc(old, v.Equal) {
			r.relinked[string(EncodeOID(v.Ref))] = true
		}
	}
	before, after := f.brandKeys(t, old), f.brandKeys(t, upd)
	for k, c := range before {
		if after[k] != c {
			r.records[k] = true
		}
	}
	for k, c := range after {
		if before[k] != c {
			r.records[k] = true
		}
	}
}

func keysOf(set map[string]bool) [][]byte {
	var out [][]byte
	for k := range set {
		out = append(out, []byte(k))
	}
	return out
}

// relinkPersons re-links each person to two vehicles it does not own yet
// and maintains nx with the whole batch in one OnUpdates call, returning
// the pages the call read and wrote and the pages a sweep of each tree
// reads, as leafOf counts them.
func relinkPersons(t *testing.T, f *fixture, nx *NestedInheritedIndex, persons []oodb.OID, rng *rand.Rand) (reads, writes, wantReads, wantWrites uint64) {
	t.Helper()
	plan := relinkPlan{children: map[string]bool{}, relinked: map[string]bool{}, records: map[string]bool{}}
	all := f.allVehicles()
	var pairs []Pair
	for _, per := range persons {
		cur, _ := f.store.Peek(per)
		var owns []oodb.Value
		for len(owns) < 2 {
			v := oodb.RefV(all[rng.Intn(len(all))])
			if !slices.ContainsFunc(cur.Values("owns"), v.Equal) && !slices.ContainsFunc(owns, v.Equal) {
				owns = append(owns, v)
			}
		}
		old, upd, err := f.store.Update(per, map[string][]oodb.Value{"owns": owns})
		if err != nil {
			t.Fatal(err)
		}
		plan.add(t, f, old.Values("owns"), owns)
		pairs = append(pairs, Pair{Old: old, New: upd})
	}
	wantReads = distinctPages(t, nx.AuxTree(), keysOf(plan.children)) + distinctPages(t, nx.PrimaryTree(), keysOf(plan.records))
	nx.ResetStats()
	if err := nx.OnUpdates(pairs); err != nil {
		t.Fatal(err)
	}
	s := nx.Stats()
	if s.Allocs != 0 {
		t.Fatalf("the batch allocated %d pages: a split would restart a sweep and the walker's count would not hold", s.Allocs)
	}
	return s.Reads, s.Writes, wantReads, uint64(len(plan.relinked) + len(plan.records))
}

// TestNIXRelinkReadsAuxRootOnce: a person's re-link reads its old and new
// children's tuples on one sweep of the auxiliary index — the root once,
// each leaf once — and its changed primary records on one sweep of the
// primary; each changed tuple and record is written once. A descent per
// child and per record reads the roots once each.
func TestNIXRelinkReadsAuxRootOnce(t *testing.T) {
	f := buildFixture(t, 29, 6, 60, 40)
	nx := f.buildIndex(t, "NIX").(*NestedInheritedIndex)
	rng := rand.New(rand.NewSource(29))
	for _, per := range f.persons[:8] {
		reads, writes, wantReads, wantWrites := relinkPersons(t, f, nx, []oodb.OID{per}, rng)
		if reads != wantReads || writes != wantWrites {
			t.Errorf("person %d re-link: %d reads, %d writes; its sweeps read %d distinct pages and it changes %d tuples and records", per, reads, writes, wantReads, wantWrites)
		}
	}
}

// TestNIXFirstLevelBatchReadsEachPageOnce: sixteen person re-links in one
// batch are one operation — every child tuple of every pair on one
// auxiliary sweep, every changed record on one primary sweep — so the batch
// reads each auxiliary and primary page at most once, exactly the distinct
// pages under its keys.
func TestNIXFirstLevelBatchReadsEachPageOnce(t *testing.T) {
	f := buildFixture(t, 31, 6, 60, 40)
	nx := f.buildIndex(t, "NIX").(*NestedInheritedIndex)
	rng := rand.New(rand.NewSource(31))
	reads, writes, wantReads, wantWrites := relinkPersons(t, f, nx, f.persons[:16], rng)
	if reads != wantReads {
		t.Errorf("16-person batch read %d pages; the distinct pages under its keys are %d", reads, wantReads)
	}
	if writes != wantWrites {
		t.Errorf("16-person batch wrote %d pages for %d changed tuples and records", writes, wantWrites)
	}
	for _, brand := range f.brands {
		want := f.naiveMatch(t, brand, "Person", false)
		got, err := lookup(nx, oodb.StrV(brand), "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("after the batch, Lookup(%s, Person) = %v, want %v", brand, got, want)
		}
	}
}

// TestMXRelinkSharingALeafDescendsOnce: a person re-linked from one vehicle
// to another whose records share a leaf of the person index costs one
// descent, not one per key — and a write of that leaf per record.
func TestMXRelinkSharingALeafDescendsOnce(t *testing.T) {
	f := buildFixture(t, 37, 6, 60, 90)
	mx := f.buildIndex(t, "MX").(*MultiIndex)
	tree := mx.ClassIndex(1, "Person").Tree()
	h := uint64(tree.Height())
	if h < 2 {
		t.Fatalf("person index of height %d; the test wants a descent of 2 or more", h)
	}
	leaves := leafOf(tree)
	byLeaf := map[uint64][]oodb.OID{}
	for _, veh := range f.allVehicles() {
		if l, ok := leaves[string(EncodeOID(veh))]; ok {
			byLeaf[l] = append(byLeaf[l], veh)
		}
	}
	var from, to oodb.OID
	for _, vs := range byLeaf {
		if len(vs) >= 2 {
			from, to = vs[0], vs[1]
			break
		}
	}
	if from == 0 {
		t.Fatal("no leaf holds two vehicles' records")
	}
	per := f.persons[0]
	old, mid, err := f.store.Update(per, map[string][]oodb.Value{"owns": {oodb.RefV(from)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := mx.OnUpdates([]Pair{{Old: old, New: mid}}); err != nil {
		t.Fatal(err)
	}
	_, upd, err := f.store.Update(per, map[string][]oodb.Value{"owns": {oodb.RefV(to)}})
	if err != nil {
		t.Fatal(err)
	}
	mx.ResetStats()
	if err := mx.OnUpdates([]Pair{{Old: mid, New: upd}}); err != nil {
		t.Fatal(err)
	}
	if s := mx.Stats(); s.Reads != h || s.Writes != 2 {
		t.Errorf("re-link within one leaf: %d reads, %d writes; want one descent (%d) and the leaf written per record (2)", s.Reads, s.Writes, h)
	}
	for _, brand := range f.brands {
		want := f.naiveMatch(t, brand, "Person", false)
		if got, err := lookup(mx, oodb.StrV(brand), "Person", false); err != nil || !slices.Equal(got, want) {
			t.Fatalf("Lookup(%s, Person) = %v (%v), want %v", brand, got, err, want)
		}
	}
}
