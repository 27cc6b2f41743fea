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
// the named shape.
func shaped(rng *rand.Rand, n int, base, mask OID, shape string) []OID {
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
// comparison sort it replaced, cell by cell, so that radixMinPerPass is a
// measured number. Each iteration pays one copy of its input on both
// sides, and a cell rotates through 32 inputs of its shape: sorting one
// input over and over trains the branch predictor on it, which flatters
// the comparison sort as no serving path would.
func BenchmarkSortUnique(b *testing.B) {
	kernels := []struct {
		name string
		fn   func([]OID) []OID
	}{{"radix", SortUnique}, {"pdqsort", pdqSortUnique}}
	for _, n := range []int{8, 32, 64, 512, 4096} {
		for _, shape := range []string{"ascending", "runs4", "random"} {
			for _, live := range []int{2, 4, 8} {
				rng := rand.New(rand.NewSource(int64(n * live)))
				var in [32][]OID
				for i := range in {
					in[i] = shaped(rng, n, 1, lowMask(live), shape)
				}
				work := make([]OID, n)
				for _, k := range kernels {
					b.Run(fmt.Sprintf("n=%d/shape=%s/bytes=%d/%s", n, shape, live, k.name), func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							copy(work, in[i%len(in)])
							sinkOIDs = k.fn(work)
						}
					})
				}
			}
		}
	}
}
