package oodb

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/raceflag"
)

// encodeAt encodes oids as entries of stride bytes, the OID big-endian in
// each entry's first eight: a NIX section (12) or an OID list (8).
func encodeAt(oids []OID, stride int) []byte {
	b := make([]byte, stride*len(oids))
	for i, o := range oids {
		binary.BigEndian.PutUint64(b[stride*i:], uint64(o))
	}
	return b
}

// oidStream is what one hop adds to a set: runs of ascending OIDs, each
// added encoded, and single OIDs added one by one.
type oidStream struct {
	runs    [][]OID
	singles map[int]OID // before run i
	stride  int
}

func (st oidStream) feed(s *OIDSet) (all []OID, promoted, demoted bool) {
	for i, run := range st.runs {
		if o, ok := st.singles[i]; ok {
			was := s.dense
			s.Add(o)
			all = append(all, o)
			promoted, demoted = promoted || !was && s.dense, demoted || was && !s.dense
		}
		was := s.dense
		s.AddEncoded(encodeAt(run, st.stride), len(run), st.stride)
		all = append(all, run...)
		promoted, demoted = promoted || !was && s.dense, demoted || was && !s.dense
	}
	return all, promoted, demoted
}

// TestOIDSetMatchesSortUnique: every read-back of a set answers as
// SortUnique (and SortUniqueWithin) of the OIDs added, whatever the hint —
// the OIDs' own window, one too narrow for some of them, one far too wide,
// none — so that sets stay a slice, are promoted, and are demoted again by
// an OID outside the window, some mid-stream — and, over hinted windows of
// 1 to 16 words, that a set of several runs promotes once it holds its
// promote count. One set is reused throughout, so a bitmap left dirty by
// one stream would show in the next.
func TestOIDSetMatchesSortUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	var s OIDSet
	var promotions, demotions, slices_ int
	for _, base := range []OID{1 << 20, 1<<63 - 3000, ^OID(0) - 9000} {
		for _, n := range []int{0, 1, 5, 100, 842, 3000} {
			for _, runs := range []int{1, 4, 20} {
				for _, hint := range []string{"exact", "narrow", "wide", "none"} {
					for _, stride := range []int{8, 12} {
						oids := dense(rng, n, 1, base, 8000, 1)
						st := oidStream{singles: map[int]OID{}, stride: stride}
						for r := 0; r < runs; r++ {
							run := oids[r*n/runs : (r+1)*n/runs]
							slices.Sort(run)
							st.runs = append(st.runs, run)
						}
						if runs > 1 && n > 0 {
							st.singles[runs/2] = base - 1 // outside every window below but "wide"
							st.singles[runs-1] = oids[0]
						}
						lo, hi := base, base+7999
						switch hint {
						case "narrow":
							hi = base + 4000
						case "wide":
							lo, hi = base-1<<20, base+1<<20
						}
						for mode := 0; mode < 3; mode++ {
							if hint != "none" {
								s.Hint(lo, hi)
							}
							all, p, d := st.feed(&s)
							if s.Added() != len(all) {
								t.Fatalf("Added %d after %d OIDs", s.Added(), len(all))
							}
							if p {
								promotions++
							}
							if d {
								demotions++
							}
							if !p && !d {
								slices_++
							}
							want := pdqSortUnique(slices.Clone(all))
							var got []OID
							switch mode {
							case 0:
								prefix := []OID{7, 3}
								got = s.AppendTo(slices.Clone(prefix))
								if !slices.Equal(got[:2], prefix) {
									t.Fatalf("AppendTo changed dst's prefix: %v", got[:2])
								}
								got = got[2:]
							case 1:
								within := pdqSortUnique(dense(rng, 1+n/2, 1, base-100, 9000, 1))
								want = withinOracle(all, within)
								got = s.AppendWithin(nil, within)
							default:
								got = s.Take()
								if (got == nil) != (len(want) == 0) || len(got) != cap(got) {
									t.Fatalf("Take: %d OIDs in a slice of capacity %d, nil %v", len(got), cap(got), got == nil)
								}
							}
							if !slices.Equal(got, want) {
								t.Fatalf("base %x, n %d, %d runs, hint %s, mode %d: got %d OIDs, want %d", base, n, runs, hint, mode, len(got), len(want))
							}
							if s.Added() != 0 || s.Dense() {
								t.Fatalf("a read-back left %d OIDs (dense %v)", s.Added(), s.Dense())
							}
						}
					}
				}
			}
		}
	}
	// Hinted windows of 1 to 16 words, narrower and wider than
	// promoteWordsPerOID: a stream of two runs that reaches its promote
	// count, one OID per promoteWordsPerOID words rounded up, ends dense.
	for words := 1; words <= 16; words++ {
		lo, hi := OID(1<<20), OID(1<<20+64*words-1)
		n := max(2, (words+promoteWordsPerOID-1)/promoteWordsPerOID)
		oids := dense(rng, n, 2, lo, hi-lo+1, 1)
		st := oidStream{runs: [][]OID{oids[:n/2], oids[n/2:]}, stride: 8 + 4*(words%2)}
		s.Hint(lo, hi)
		all, p, _ := st.feed(&s)
		if !p || !s.Dense() {
			t.Fatalf("%d OIDs in two runs over a window of %d words left the set a slice", n, words)
		}
		promotions++
		if got, want := s.AppendTo(nil), pdqSortUnique(slices.Clone(all)); !slices.Equal(got, want) {
			t.Fatalf("window of %d words: got %x, want %x", words, got, want)
		}
	}
	if promotions == 0 || demotions == 0 || slices_ == 0 {
		t.Fatalf("%d streams promoted, %d demoted, %d stayed a slice: want all three", promotions, demotions, slices_)
	}
}

// TestOIDSetWithinAroundWindow: a dense set read back through candidates
// that lie below its window, inside it and above it keeps exactly the
// candidates it holds, at either end of the OID space.
func TestOIDSetWithinAroundWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	var s OIDSet
	for _, base := range []OID{1 << 20, ^OID(0) - 64*40} {
		for _, below := range []OID{0, 1, 500} {
			lo, hi := base, base+64*32-1
			oids := dense(rng, 2000, 4, lo, hi-lo+1, 1)
			within := pdqSortUnique(dense(rng, 900, 1, lo-below, hi-lo+1+below+min(600, ^OID(0)-hi), 1))
			s.Hint(lo, hi)
			for r := 0; r < 4; r++ {
				run := oids[r*500 : (r+1)*500]
				s.AddEncoded(encodeAt(run, 12), len(run), 12)
			}
			if !s.Dense() {
				t.Fatalf("base %x: %d OIDs over 32 words left the set a slice", base, len(oids))
			}
			want := withinOracle(oids, within)
			if got := s.AppendWithin(nil, within); !slices.Equal(got, want) {
				t.Fatalf("base %x, %d below: %d OIDs kept, want %d", base, below, len(got), len(want))
			}
		}
	}
}

// TestOIDSetZeroAllocs pins the steady state of both of a set's modes: a
// hop decoded into a reused set and read back into a reused buffer, or
// through candidates, allocates nothing.
func TestOIDSetZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	rng := rand.New(rand.NewSource(61))
	oids := dense(rng, 2845, 4, 1<<20, 64*347, 1)
	var secs [][]byte
	for r := 0; r < 4; r++ {
		secs = append(secs, encodeAt(oids[r*len(oids)/4:(r+1)*len(oids)/4], 12))
	}
	within := pdqSortUnique(dense(rng, 1000, 1, 1<<20, 64*347, 1))
	var s OIDSet
	dst := make([]OID, 0, len(oids))
	for _, hinted := range []bool{true, false} {
		hop := func() {
			if hinted {
				s.Hint(1<<20, 1<<20+64*347-1)
			}
			for _, sec := range secs {
				s.AddEncoded(sec, len(sec)/12, 12)
			}
			if s.Dense() != hinted {
				t.Fatalf("hinted %v, dense %v", hinted, s.Dense())
			}
		}
		for name, read := range map[string]func(){
			"AppendTo":     func() { dst = s.AppendTo(dst[:0]) },
			"AppendWithin": func() { dst = s.AppendWithin(dst[:0], within) },
		} {
			hop()
			read()
			if avg := testing.AllocsPerRun(200, func() { hop(); read() }); avg != 0 {
				t.Errorf("dense %v, %s: %v allocs per hop, want 0", hinted, name, avg)
			}
		}
	}
}
