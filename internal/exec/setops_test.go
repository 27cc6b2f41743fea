package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/oodb"
	"repro/internal/raceflag"
)

func oids(vs ...oodb.OID) []oodb.OID { return vs }

// refIntersect is the map-based reference the kernels are checked
// against.
func refIntersect(a, b []oodb.OID) []oodb.OID {
	in := make(map[oodb.OID]bool, len(a))
	for _, x := range a {
		in[x] = true
	}
	var out []oodb.OID
	for _, x := range b {
		if in[x] {
			out = append(out, x)
		}
	}
	return oodb.SortUnique(out)
}

func refUnion(runs ...[]oodb.OID) []oodb.OID {
	var all []oodb.OID
	for _, r := range runs {
		all = append(all, r...)
	}
	return oodb.SortUnique(all)
}

// randRun builds a sorted duplicate-free run with elements drawn from
// [0, span).
func randRun(rng *rand.Rand, n, span int) []oodb.OID {
	seen := map[oodb.OID]bool{}
	var out []oodb.OID
	for i := 0; i < n; i++ {
		x := oodb.OID(rng.Intn(span) + 1)
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return oodb.SortUnique(out)
}

func TestIntersectSortedOIDs(t *testing.T) {
	cases := []struct{ a, b, want []oodb.OID }{
		{nil, nil, nil},
		{oids(1, 2, 3), nil, nil},
		{nil, oids(1, 2, 3), nil},
		{oids(5), oids(5), oids(5)},
		{oids(5), oids(6), nil},
		{oids(1, 2, 3), oids(4, 5, 6), nil}, // disjoint ranges, fast path
		{oids(4, 5, 6), oids(1, 2, 3), nil}, // disjoint the other way
		{oids(1, 3, 5, 7), oids(2, 3, 6, 7), oids(3, 7)},
		{oids(1, 2, 3, 4), oids(1, 2, 3, 4), oids(1, 2, 3, 4)}, // identical runs
		{oids(2), oids(1, 2, 3, 4, 5, 6, 7, 8), oids(2)},       // tiny driver, gallop skips
		{oids(1, 100, 10000), oids(2, 100, 9999, 10000), oids(100, 10000)},
	}
	for _, c := range cases {
		got := IntersectSortedOIDs(nil, c.a, c.b)
		if !reflect.DeepEqual(oodb.SortUnique(got), oodb.SortUnique(c.want)) {
			t.Errorf("Intersect(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestIntersectAliasing checks the in-place contract: dst may share
// either input's backing array from position 0.
func TestIntersectAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		a := randRun(rng, rng.Intn(30), 50)
		b := randRun(rng, rng.Intn(30), 50)
		want := refIntersect(a, b)
		// Alias a.
		ac := append([]oodb.OID(nil), a...)
		got := IntersectSortedOIDs(ac[:0], ac, b)
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("alias-a trial %d: Intersect(%v, %v) = %v, want %v", trial, a, b, got, want)
			}
		}
		// Alias b.
		bc := append([]oodb.OID(nil), b...)
		got = IntersectSortedOIDs(bc[:0], a, bc)
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("alias-b trial %d: Intersect(%v, %v) = %v, want %v", trial, a, b, got, want)
			}
		}
	}
}

func TestMergeKSortedOIDs(t *testing.T) {
	cases := []struct {
		runs [][]oodb.OID
		want []oodb.OID
	}{
		{nil, nil},
		{[][]oodb.OID{nil, nil, nil}, nil},
		{[][]oodb.OID{oids(1, 2)}, oids(1, 2)},
		{[][]oodb.OID{oids(1, 2), nil, oids(3)}, oids(1, 2, 3)},              // ordered concat
		{[][]oodb.OID{oids(3), oids(1, 2)}, oids(1, 2, 3)},                   // out of order
		{[][]oodb.OID{oids(1, 4), oids(2, 4), oids(3, 4)}, oids(1, 2, 3, 4)}, // heap path with dups
		{[][]oodb.OID{oids(5), oids(5), oids(5), oids(5)}, oids(5)},          // all identical
	}
	for _, c := range cases {
		runs := make([][]oodb.OID, len(c.runs))
		copy(runs, c.runs)
		got := MergeKSortedOIDs(nil, runs...)
		if len(got) != len(c.want) || (len(got) > 0 && !reflect.DeepEqual(got, c.want)) {
			t.Errorf("MergeK(%v) = %v, want %v", c.runs, got, c.want)
		}
	}
}

// checkUnion compares MergeKSortedOIDs of runs against refUnion, appended
// to nil and after a non-empty prefix.
func checkUnion(t *testing.T, runs [][]oodb.OID) {
	t.Helper()
	want := refUnion(runs...)
	got := MergeKSortedOIDs(nil, slices.Clone(runs)...)
	if !slices.Equal(got, want) {
		t.Fatalf("MergeK of %d runs = %v, want %v", len(runs), got, want)
	}
	prefix := []oodb.OID{9, 3}
	got = MergeKSortedOIDs(slices.Clone(prefix), slices.Clone(runs)...)
	if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], want) {
		t.Fatalf("MergeK of %d runs after %v = %v, want the prefix, then %v", len(runs), prefix, got, want)
	}
}

// TestMergeKSortedOIDsRandomized: unions of 0–5 random runs drawn from a
// window of 60 OIDs, where interleaved runs overlap often, and from one of
// 2^20, where they rarely do.
func TestMergeKSortedOIDsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, span := range []int{60, 1 << 20} {
		for trial := 0; trial < 300; trial++ {
			k := rng.Intn(6)
			runs := make([][]oodb.OID, k)
			for i := range runs {
				runs[i] = randRun(rng, rng.Intn(20), span)
			}
			checkUnion(t, runs)
		}
	}
}

// TestIntersectAllocs is the zero-alloc guard on the steady-state
// intersect path: with dst capacity in place, the galloping kernel must
// not allocate. Runs under the CI alloc-guard step (-run 'Alloc').
func TestIntersectAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not stable under -race")
	}
	a := make([]oodb.OID, 0, 512)
	b := make([]oodb.OID, 0, 512)
	for i := 0; i < 512; i++ {
		a = append(a, oodb.OID(i*2)) // evens
		b = append(b, oodb.OID(i*3)) // multiples of 3
	}
	dst := make([]oodb.OID, 0, 512)
	allocs := testing.AllocsPerRun(200, func() {
		dst = IntersectSortedOIDs(dst[:0], a, b)
	})
	if allocs != 0 {
		t.Fatalf("intersect path allocated %.1f times per run", allocs)
	}
	if len(dst) == 0 || dst[0] != 0 {
		t.Fatalf("unexpected intersection head: %v", dst[:min(4, len(dst))])
	}
}

// FuzzIntersect cross-checks the galloping kernel — including the
// aliasing mode — against the map-based reference on arbitrary byte-
// derived runs.
func FuzzIntersect(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{255, 255}, []byte{1})
	f.Add([]byte{10, 20, 30, 40}, []byte{})
	f.Fuzz(func(t *testing.T, ra, rb []byte) {
		a := runFromBytes(ra)
		b := runFromBytes(rb)
		want := refIntersect(a, b)
		got := IntersectSortedOIDs(nil, a, b)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("Intersect(%v, %v) = %v, want %v", a, b, got, want)
		}
		// Aliased: dst reuses a's backing array.
		ac := append([]oodb.OID(nil), a...)
		got = IntersectSortedOIDs(ac[:0], ac, b)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("aliased Intersect(%v, %v) = %v, want %v", a, b, got, want)
		}
		// And the union side: MergeK of the two runs against the
		// reference union.
		wantU := refUnion(a, b)
		gotU := MergeKSortedOIDs(nil, append([]oodb.OID(nil), a...), append([]oodb.OID(nil), b...))
		if len(gotU) != len(wantU) || (len(gotU) > 0 && !reflect.DeepEqual(gotU, wantU)) {
			t.Fatalf("MergeK(%v, %v) = %v, want %v", a, b, gotU, wantU)
		}
	})
}

// runFromBytes folds fuzz bytes into a sorted duplicate-free run with
// small deltas, so overlaps between the two runs are common.
func runFromBytes(bs []byte) []oodb.OID {
	var out []oodb.OID
	cur := oodb.OID(0)
	for _, b := range bs {
		cur += oodb.OID(b%16) + 1
		out = append(out, cur)
		if b >= 128 {
			cur = oodb.OID(b % 8) // jump back to force duplicates pre-sort
		}
	}
	return oodb.SortUnique(out)
}

// FuzzSortUniqueWithin checks the filtered normalization the last hop of
// a chain run within candidates ends in, oodb.SortUniqueWithin, against
// normalizing and then intersecting: slices.Sort + slices.Compact +
// IntersectSortedOIDs. The OIDs are a walk of fuzz steps — short
// overlapping runs, as a hop yields — repeated to more than 200 OIDs;
// the candidates are a second walk, dense or spread by a
// stride, and with far set also a few OIDs near both ends of the OID
// space, so that their span is most of it.
func FuzzSortUniqueWithin(f *testing.F) {
	f.Add([]byte{1, 2, 3, 250, 4}, []byte{2, 3}, uint64(1), uint8(3), false)
	f.Add([]byte{5, 5, 5, 200, 9, 1}, []byte{1, 1, 1, 1, 1, 1, 1, 1}, uint64(1)<<40, uint8(1), true)
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), []byte("pack my box with five dozen liquor jugs"), uint64(1)<<20, uint8(1), false)
	f.Add(make([]byte, 40), make([]byte, 200), uint64(7), uint8(0), true)
	f.Fuzz(func(t *testing.T, rawOIDs, rawCands []byte, base uint64, stride uint8, far bool) {
		walk := func(bs []byte, step oodb.OID) []oodb.OID {
			out := make([]oodb.OID, len(bs))
			v := oodb.OID(base)
			for i, b := range bs {
				v += oodb.OID(int64(int8(b))) * step
				out[i] = v
			}
			return out
		}
		in := walk(rawOIDs, 1)
		if len(in) > 0 {
			in = slices.Repeat(in, 1+200/len(in))
		}
		cands := walk(rawCands, oodb.OID(stride)+1)
		if far {
			cands = append(cands, 1, 2, ^oodb.OID(0)-1, oodb.OID(base)>>1)
		}
		slices.Sort(cands)
		cands = slices.Compact(cands)

		ref := slices.Clone(in)
		slices.Sort(ref)
		want := IntersectSortedOIDs(nil, slices.Compact(ref), cands)
		got := oodb.SortUniqueWithin(slices.Clone(in), cands)
		if !slices.Equal(got, want) {
			t.Fatalf("SortUniqueWithin(%d OIDs, %d candidates) = %v, want %v", len(in), len(cands), got, want)
		}
	})
}

// BenchmarkMergeTwo times the two-run union net_pred's two shards take:
// interleaved stride-2 runs of n OIDs a side, merged into a reused dst.
func BenchmarkMergeTwo(b *testing.B) {
	for _, n := range []int{25, 435, 4000} {
		x, y := make([]oodb.OID, n), make([]oodb.OID, n)
		for i := range x {
			x[i], y[i] = oodb.OID(2*i), oodb.OID(2*i+1)
		}
		dst := make([]oodb.OID, 0, 2*n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst = mergeTwoInto(dst[:0], x, y)
			}
		})
	}
}
