package cost

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
)

// probeBits are the bits of a descent's three fields.
func probeBits(p probe) [3]uint64 {
	return [3]uint64{math.Float64bits(p.t), math.Float64bits(p.inner), math.Float64bits(p.leaf)}
}

// paperGeom is the geometry of nk records of ln bytes on the paper's pages.
func paperGeom(tb testing.TB, nk, ln float64) *Geom {
	tb.Helper()
	var g Geom
	var buf [maxTreeHeight]LevelGeom
	if err := g.place(&buf, nk, ln, model.PaperParams()); err != nil {
		tb.Fatalf("geometry nk=%g ln=%g: %v", nk, ln, err)
	}
	g.Levels = append([]LevelGeom(nil), g.Levels...)
	return &g
}

// checkMultiPageDescent is the premise of the evaluator's descent memo:
// through two multi-page structures of the same record count, t records
// cost the same bits whatever the two record lengths.
func checkMultiPageDescent(t *testing.T, nk, tt, ln1, ln2 float64) {
	t.Helper()
	g1, g2 := paperGeom(t, nk, ln1), paperGeom(t, nk, ln2)
	if !g1.MultiPage() || !g2.MultiPage() {
		t.Fatalf("record lengths %g, %g: not multi-page", ln1, ln2)
	}
	if d1, d2 := descent(g1, tt), descent(g2, tt); probeBits(d1) != probeBits(d2) {
		t.Errorf("nk=%g t=%g: descent %+v at ln=%g, %+v at ln=%g", nk, tt, d1, ln1, d2, ln2)
	}
}

func TestMultiPageDescentIgnoresRecordLength(t *testing.T) {
	page := float64(model.PaperParams().PageSize)
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 2000; i++ {
		nk := (1 - rng.Float64()) * 1e7 // (0, 1e7]
		if i%2 == 0 {
			nk = math.Ceil(nk)
		}
		tt := rng.Float64() * 2 * nk
		if i%5 == 0 {
			tt = math.Floor(tt) // whole record counts, the loop side of Yao
		}
		ln1 := page + 1 + rng.Float64()*64*page
		ln2 := page + 1 + rng.Float64()*4096*page
		checkMultiPageDescent(t, nk, tt, ln1, ln2)
	}
	checkMultiPageDescent(t, 1, 0, page+1, 100*page)
	checkMultiPageDescent(t, 20000, 20000, page+1, 3*page)

	// Records within a page share their leaf pages: the leaf level's page
	// count, and with it the descent, reads the record length. This is why
	// the memo holds multi-page structures only.
	small, large := paperGeom(t, 1000, 100), paperGeom(t, 1000, 500)
	if small.MultiPage() || large.MultiPage() {
		t.Fatal("counter-example geometries span pages")
	}
	if d1, d2 := descent(small, 10), descent(large, 10); d1.leaf == d2.leaf {
		t.Errorf("single-page descents agree at the leaf (%g): the counter-example no longer pins the MultiPage guard", d1.leaf)
	}
}

func FuzzMultiPageDescent(f *testing.F) {
	page := float64(model.PaperParams().PageSize)
	f.Add(20000.0, 3.0, page+1, 4*page)
	f.Add(1e7, 1e7, 2*page, 1e4*page)
	f.Add(0.5, 0.25, page+0.5, page*1.5)
	f.Add(123457.0, 99.5, 5*page, 7*page)
	f.Fuzz(func(t *testing.T, nk, tt, ln1, ln2 float64) {
		// A record count the paper's statistics reach, a request for up to
		// twice it, and records of more than a page up to a bound that keeps
		// the leaf level's page count finite.
		if !(nk > 0 && nk <= 1e7) || !(tt >= 0 && tt <= 2*nk) ||
			!(ln1 > page && ln1 <= 1e12) || !(ln2 > page && ln2 <= 1e12) {
			t.Skip()
		}
		checkMultiPageDescent(t, nk, tt, ln1, ln2)
	})
}
