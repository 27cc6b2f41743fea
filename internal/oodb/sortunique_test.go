package oodb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/raceflag"
)

// pdqSortUnique is SortUnique as it stood before the counting sort: the
// oracle of the differential tests and the baseline BenchmarkSortUnique
// measures the crossover against.
func pdqSortUnique(oids []OID) []OID {
	if len(oids) == 0 {
		return nil
	}
	slices.Sort(oids)
	return slices.Compact(oids)
}

// byteMask returns a mask of live whole bytes spread over the word: the
// low byte first, then alternating high and low, so that two live bytes
// are bytes 0 and 7 and the skipped bytes lie between them.
func byteMask(live int) OID {
	order := [8]uint{0, 7, 1, 6, 2, 5, 3, 4}
	var m OID
	for _, b := range order[:live] {
		m |= 0xff << (8 * b)
	}
	return m
}

// lowMask is the mask of the live low bytes: what a store's sequential
// OIDs differ in.
func lowMask(live int) OID {
	if live == 8 {
		return ^OID(0)
	}
	return OID(1)<<(8*uint(live)) - 1
}

// shaped returns n OIDs that agree with base outside mask, arranged as
// the named shape; dense ignores mask and starts its window at base.
func shaped(rng *rand.Rand, n int, base, mask OID, shape string) []OID {
	if shape == "dense" {
		return dense(rng, n, 13, base, 15*OID(n)/2, 1)
	}
	out := make([]OID, n)
	for i := range out {
		out[i] = base&^mask | OID(rng.Uint64())&mask
	}
	runs := 0
	switch shape {
	case "random":
	case "ascending":
		runs = 1
	case "descending":
		slices.Sort(out)
		slices.Reverse(out)
	case "equal":
		for i := range out {
			out[i] = out[0]
		}
	default:
		if _, err := fmt.Sscanf(shape, "runs%d", &runs); err != nil {
			panic("unknown shape " + shape)
		}
	}
	for r := 0; r < runs; r++ {
		slices.Sort(out[r*n/runs : (r+1)*n/runs])
	}
	return out
}

// dense returns n OIDs base + k·stride, k drawn from window consecutive
// values, in runs ascending runs: the union of a dozen NIX sections over a
// store's sequential OIDs that a chain hop normalises. The window wraps
// around the top of the OID space when base is near it.
func dense(rng *rand.Rand, n, runs int, base, window, stride OID) []OID {
	out := make([]OID, n)
	for i := range out {
		out[i] = base + OID(rng.Int63n(int64(window)))*stride
	}
	for r := 0; r < runs; r++ {
		slices.Sort(out[r*n/runs : (r+1)*n/runs])
	}
	return out
}

// takesBitmap reports whether SortUnique sorts in through the bitmap.
func takesBitmap(in []OID) bool {
	if len(in) < 2*radixMinPerPass || slices.IsSorted(in) {
		return false
	}
	_, diff := spread(in)
	return bitmapFits(diff, len(in))
}

// checkSortUnique runs SortUnique on in, stored behind a live prefix the
// way QueryInto's dst is, and compares with the oracle.
func checkSortUnique(t *testing.T, in []OID) {
	t.Helper()
	prefix := []OID{^OID(0), 0, 7}
	full := append(slices.Clone(prefix), in...)
	want := pdqSortUnique(slices.Clone(in))
	got := SortUnique(full[len(prefix):])
	if !slices.Equal(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("SortUnique of %d OIDs: got %d, want %d\n in  %x\n got %x\n want %x", len(in), len(got), len(want), in, got, want)
	}
	if !slices.Equal(full[:len(prefix)], prefix) {
		t.Fatalf("SortUnique wrote before its slice: %x", full[:len(prefix)])
	}
	if len(got) > 0 && &got[0] != &full[len(prefix)] {
		t.Fatalf("SortUnique did not sort in place")
	}
}

func TestSortUniqueEdgeCases(t *testing.T) {
	if got := SortUnique(nil); got != nil {
		t.Errorf("SortUnique(nil) = %v", got)
	}
	if got := SortUnique([]OID{}); got != nil {
		t.Errorf("SortUnique(empty) = %v", got)
	}
	for _, in := range [][]OID{{9}, {4, 4, 4, 4}, {3, 1, 2, 3, 1}, {1, 2, 2, 3}, {2, 1}} {
		checkSortUnique(t, in)
	}
}

func TestSortUniqueMatchesPdqsort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := []string{"random", "ascending", "descending", "equal", "runs2", "runs3", "runs4", "runs8"}
	bases := []OID{0, 1 << 63, 0x8000_1234_0000_ff00, ^OID(0)}
	// Lengths on both sides of the crossover for every count of live bytes.
	lengths := []int{1, 2, 3, 11, 13}
	for live := 1; live <= 8; live++ {
		x := radixMinPerPass * (1 + live)
		lengths = append(lengths, x-1, x, x+1)
	}
	lengths = append(lengths, 514, 3000)
	for _, live := range []int{1, 2, 3, 8} {
		for _, mask := range []OID{lowMask(live), byteMask(live)} {
			for _, shape := range shapes {
				for _, n := range lengths {
					checkSortUnique(t, shaped(rng, n, bases[rng.Intn(len(bases))], mask, shape))
				}
			}
		}
	}
	// Dense: 2 or 13 ascending runs over a window of about 7.5·n, and over
	// windows of n/8 to 4n words, on both sides of the bitmap's crossover.
	// A window from 1<<63 − 4096 wider than 4096 straddles 1<<63, so its
	// OIDs differ up to bit 63; from ^OID(0) the window wraps and they
	// differ in every bit: the counting sort's input, not the bitmap's.
	var bitmapInputs, otherInputs int
	for _, base := range []OID{1 << 20, 0x8000_1234_0000_0000, 1 << 63, 1<<63 - 4096, ^OID(0)} {
		for _, runs := range []int{2, 13} {
			for _, n := range []int{63, 64, 65, 200, 514, 801, 2700} {
				for _, window := range []OID{15 * OID(n) / 2, 8 * OID(n), 32 * OID(n), 64 * OID(n), 256 * OID(n)} {
					in := dense(rng, n, runs, base, window, 1)
					if takesBitmap(in) {
						bitmapInputs++
					} else {
						otherInputs++
					}
					checkSortUnique(t, in)
				}
			}
		}
	}
	if bitmapInputs == 0 || otherInputs == 0 {
		t.Fatalf("%d dense inputs took the bitmap, %d did not: want both", bitmapInputs, otherInputs)
	}
}

// TestSortUniqueStridedShards covers the OIDs a sharded store hands out,
// first + k·stride, in hop order: a few ascending runs that overlap.
func TestSortUniqueStridedShards(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, stride := range []OID{1, 2, 3, 8, 1 << 20, 1<<40 + 1} {
		for _, first := range []OID{1, 1<<63 - 50*stride, ^OID(0) - 4000*stride} {
			for _, n := range []int{10, 100, 1000} {
				in := make([]OID, n)
				for i := range in {
					in[i] = first + OID(rng.Intn(2*n))*stride
				}
				for r := 0; r < 4; r++ {
					slices.Sort(in[r*n/4 : (r+1)*n/4])
				}
				checkSortUnique(t, in)
			}
		}
	}
	// Dense stride-2 and stride-3 shards: each holds every second or third
	// OID of the store, so its hop output is dense in its own sequence and
	// takes the bitmap unless it straddles 1<<63 or wraps past ^OID(0).
	for _, stride := range []OID{2, 3} {
		for _, first := range []OID{1 << 20, 1<<63 - 4096, ^OID(0)} {
			for _, n := range []int{1000, 2700} {
				in := dense(rng, n, 13, first, 2*OID(n), stride)
				if first == 1<<20 && !takesBitmap(in) {
					t.Fatalf("stride %d, %d OIDs: a dense shard's hop output did not take the bitmap", stride, n)
				}
				checkSortUnique(t, in)
			}
		}
	}
}

func TestSortUniqueZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	rng := rand.New(rand.NewSource(3))
	for _, live := range []int{2, 8} {
		in := shaped(rng, 514, 1, lowMask(live), "runs4")
		work := make([]OID, len(in))
		if avg := testing.AllocsPerRun(200, func() {
			copy(work, in)
			SortUnique(work)
		}); avg != 0 {
			t.Errorf("%d live bytes: %v allocs per SortUnique, want 0", live, avg)
		}
	}
	in := shaped(rng, 2700, 1<<20, 0, "dense")
	if !takesBitmap(in) {
		t.Fatal("dense input does not take the bitmap")
	}
	work := make([]OID, len(in))
	if avg := testing.AllocsPerRun(200, func() {
		copy(work, in)
		SortUnique(work)
	}); avg != 0 {
		t.Errorf("dense: %v allocs per SortUnique, want 0", avg)
	}
}

// withinOracle is SortUniqueWithin by the textbook route: normalize, then
// keep what the candidates hold.
func withinOracle(oids, within []OID) []OID {
	var out []OID
	for _, o := range pdqSortUnique(slices.Clone(oids)) {
		if _, ok := slices.BinarySearch(within, o); ok {
			out = append(out, o)
		}
	}
	return out
}

// takesWithinBitmap reports whether SortUniqueWithin filters through the
// candidates' bitmap.
func takesWithinBitmap(oids, within []OID) bool {
	return len(within) > 0 && len(oids) >= len(within) && bitmapFits(within[len(within)-1]-within[0], len(within))
}

// TestSortUniqueWithin covers both routes of the filter: candidates dense
// enough for a bitmap over their own window, and candidates too sparse for
// one — among them a handful spanning most of the OID space, whose bitmap
// would be 2^58 words — against OIDs from inside the candidates' window,
// around it and all over the space.
func TestSortUniqueWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	routes := map[bool]int{}
	for _, base := range []OID{1 << 20, 1<<63 - 4096} {
		for _, nc := range []int{1, 7, 64, 600} {
			for _, cand := range [][]OID{
				pdqSortUnique(dense(rng, nc, 1, base, 2*OID(nc), 1)),                       // dense
				pdqSortUnique(dense(rng, nc, 1, base, 4096*OID(nc), 1)),                    // sparse
				pdqSortUnique(append(dense(rng, nc, 1, base, 2*OID(nc), 1), 3, ^OID(0)-5)), // spans the space
			} {
				for _, n := range []int{0, 1, nc / 2, nc, 3 * nc, 2000} {
					in := dense(rng, n, 13, base-OID(nc), 4*OID(nc)+8, 1)
					for i := 0; i < n/10; i++ {
						in[rng.Intn(n)] = OID(rng.Uint64())
					}
					routes[takesWithinBitmap(in, cand)]++
					want := withinOracle(in, cand)
					got := SortUniqueWithin(in, cand)
					if !slices.Equal(got, want) {
						t.Fatalf("%d OIDs within %d candidates: got %d, want %d\n in   %x\n cand %x\n got  %x\n want %x",
							n, len(cand), len(got), len(want), in, cand, got, want)
					}
					if len(got) > 0 && &got[0] != &in[0] {
						t.Fatalf("SortUniqueWithin did not filter in place")
					}
				}
			}
		}
	}
	if routes[true] == 0 || routes[false] == 0 {
		t.Fatalf("%d inputs took the bitmap, %d did not: want both", routes[true], routes[false])
	}
	if got := SortUniqueWithin([]OID{5, 3}, nil); len(got) != 0 {
		t.Fatalf("no candidates kept %v", got)
	}
}

func TestSortUniqueWithinZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	rng := rand.New(rand.NewSource(43))
	in := dense(rng, 2700, 13, 1<<20, 8000, 1)
	work := make([]OID, len(in))
	for _, window := range []OID{2000, 1 << 30} {
		cand := pdqSortUnique(dense(rng, 1000, 1, 1<<20, window, 1))
		if avg := testing.AllocsPerRun(200, func() {
			copy(work, in)
			SortUniqueWithin(work, cand)
		}); avg != 0 {
			t.Errorf("candidates over a window of %d: %v allocs per SortUniqueWithin, want 0", window, avg)
		}
	}
}

// FuzzSortUnique is the differential against slices.Sort + slices.Compact
// on inputs the table cannot enumerate. One OID per input byte: hashed
// over the whole word, or — walk — a signed random walk in units of
// stride, which yields the short overlapping runs a chain hop produces;
// either way confined to the bytes of mask around base.
func FuzzSortUnique(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0), uint64(1), false)
	f.Add([]byte{3, 1, 2, 3, 1}, uint64(0), uint64(0xffff), uint64(1), true)
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over the crossover"), uint64(1)<<63, uint64(0xffff), uint64(3), true)
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over the crossover"), uint64(0xdead_beef_0000_0000), uint64(0xff00_0000_00ff_00ff), uint64(1), false)
	f.Add(make([]byte, 300), ^uint64(0), ^uint64(0), uint64(1)<<40, false)
	// A dense walk: 13 ascending runs of 19 steps of 2, each falling back 35,
	// 260 OIDs over a window of two words, so that the bitmap sorts it and
	// its long repetition below.
	denseWalk := make([]byte, 260)
	for i := range denseWalk {
		denseWalk[i] = 2
		if i%20 == 19 {
			denseWalk[i] = 256 - 35 // −35 as an int8
		}
	}
	f.Add(denseWalk, uint64(1)<<40, ^uint64(0), uint64(1), true)
	f.Fuzz(func(t *testing.T, data []byte, base, mask, stride uint64, walk bool) {
		in := make([]OID, len(data))
		v := base
		for i, b := range data {
			if walk {
				v += uint64(int64(int8(b))) * stride
			} else {
				v = (v + uint64(b) + 1) * 0x9e3779b97f4a7c15
			}
			in[i] = OID(base&^mask | v&mask)
		}
		checkSortUnique(t, in)
		if len(in) == 0 {
			return
		}
		// Fuzz inputs are short: repeat them past every crossover, each
		// copy moved a little so that it is not all duplicates.
		long := slices.Repeat(in, 1+radixMinPerPass*9/len(in))
		for i := range long {
			long[i] ^= OID(i/len(in)) & OID(mask)
		}
		checkSortUnique(t, long)
	})
}

var sinkOIDs []OID

// BenchmarkSortUnique is the layer's own benchmark: the kernel against the
// comparison sort it replaced, cell by cell, so that radixMinPerPass and
// bitmapMinPerWord are measured numbers. Each iteration pays one copy of
// its input on both sides, and a cell rotates through 32 inputs of its
// shape: sorting one input over and over trains the branch predictor on
// it, which flatters the comparison sort as no serving path would. The
// dense cells model a chain hop's union on embed_path, 13 ascending runs
// over a window of about 7.5·n, and time the counting sort alone beside
// the kernel. The crossover cells fill a window of 64 or 512 words with 1
// to 6 OIDs per word and time the bitmap and the counting sort alone on
// the same input, to find where one overtakes the other.
func BenchmarkSortUnique(b *testing.B) {
	type kernel struct {
		name string
		fn   func([]OID) []OID
	}
	radix, pdqsort := kernel{"radix", SortUnique}, kernel{"pdqsort", pdqSortUnique}
	bitmap := kernel{"bitmap", func(oids []OID) []OID {
		and, diff := spread(oids)
		return bitmapSort(oids, and, diff)
	}}
	counting := kernel{"counting", func(oids []OID) []OID {
		_, diff := spread(oids)
		radixSort(oids, diff)
		return slices.Compact(oids)
	}}
	run := func(name string, in *[32][]OID, kernels ...kernel) {
		work := make([]OID, len(in[0]))
		for _, k := range kernels {
			b.Run(name+"/"+k.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(work, in[i%len(in)])
					sinkOIDs = k.fn(work)
				}
			})
		}
	}
	for _, n := range []int{8, 32, 64, 512, 4096} {
		for _, shape := range []string{"ascending", "runs4", "random"} {
			for _, live := range []int{2, 4, 8} {
				rng := rand.New(rand.NewSource(int64(n * live)))
				var in [32][]OID
				for i := range in {
					in[i] = shaped(rng, n, 1, lowMask(live), shape)
				}
				run(fmt.Sprintf("n=%d/shape=%s/bytes=%d", n, shape, live), &in, radix, pdqsort)
			}
		}
	}
	for _, n := range []int{512, 1024, 2700} {
		rng := rand.New(rand.NewSource(int64(n)))
		var in [32][]OID
		for i := range in {
			in[i] = shaped(rng, n, 1<<20, 0, "dense")
		}
		run(fmt.Sprintf("n=%d/shape=dense", n), &in, radix, counting, pdqsort)
	}
	// A window of 64·words values from 1<<20 spans exactly words words.
	for _, words := range []int{64, 512} {
		for _, perWord := range []float64{1, 1.5, 2, 3, 4, 6} {
			n := int(perWord * float64(words))
			rng := rand.New(rand.NewSource(int64(n)))
			var in [32][]OID
			for i := range in {
				in[i] = dense(rng, n, 13, 1<<20, 64*OID(words), 1)
			}
			run(fmt.Sprintf("words=%d/n=%d", words, n), &in, bitmap, counting)
		}
	}
}
