package cost

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/schema"
)

// TestSharedFigure7DerivedParameters pins the Section 3 derived parameters
// of the Figure 7 statistics — worked out by hand from the figure — on the
// level table that prices the matrix.
//
// KStar per level: 200000·1/20000 = 10; 6+4+4 = 14; 1000·4/1000 = 4; 1.
// NINAvg per level: 1; (10000·3 + 5000·2 + 5000·2)/20000 = 2.5; 4; 1.
func TestSharedFigure7DerivedParameters(t *testing.T) {
	near := func(t *testing.T, what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", what, got, want)
		}
	}
	sh, err := NewShared(model.Figure7Stats())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("noidStar", func(t *testing.T) {
		// noid*_5 = 1 (equality predicate boundary), noid*_l = KStar_l · noid*_{l+1}.
		for l, want := range map[int]float64{5: 1, 4: 1, 3: 4, 2: 56, 1: 560} {
			near(t, "noid*", sh.noidStar[l], want)
		}
	})
	t.Run("noidClass", func(t *testing.T) {
		// noid_{2,Vehicle} = k_{2,Vehicle} · noid*_3 = 6 · 4, read from the
		// star table of the whole path; within the subpath ending at level
		// 3 the chain below level 2 is KStar_3 alone, and empty at level 3.
		near(t, "noid(2, Vehicle, 4)", sh.noidS(2, 0, 4), 24)
		near(t, "star(1, 4)", sh.tab(sh.star, 1, 4), 56)
		near(t, "star(2, 3)", sh.tab(sh.star, 2, 3), 4)
		near(t, "star(3, 3)", sh.tab(sh.star, 3, 3), 1)
	})
	t.Run("par", func(t *testing.T) {
		// par_l, the aggregation parents of a level-l object, is KStar of
		// level l-1: the NIX 3-tuple of levels 2 and 3 holds 10 and 14
		// parent OIDs. Level 1 has no parents and no 3-tuple — par_1 = 0 is
		// the loop over levels a+1..b never asking.
		near(t, "par_2", sh.lv[0].kStar, 10)
		near(t, "par_3", sh.lv[1].kStar, 14)
		near(t, "star(1, 2)", sh.tab(sh.star, 1, 2), 14)
	})
	t.Run("ninBar", func(t *testing.T) {
		// nin̄_l: the product of the average fan-outs from level l to 4.
		for l, want := range map[int]float64{4: 1, 3: 4, 2: 10, 1: 10} {
			near(t, "ninBar", sh.ninBar(l, 4), want)
		}
		near(t, "ninBar(1, 2)", sh.ninBar(1, 2), 2.5)
	})
	t.Run("ninBarCappedByDistinct", func(t *testing.T) {
		p := schema.MustNewPath(schema.PaperSchema(), "Person", "owns", "man", "name")
		ps := model.NewPathStats(p, model.DefaultParams())
		ps.MustSet(1, model.ClassStats{Class: "Person", N: 1000, D: 10, NIN: 50}, model.Load{})
		ps.MustSet(2, model.ClassStats{Class: "Vehicle", N: 100, D: 10, NIN: 50}, model.Load{})
		ps.MustSet(2, model.ClassStats{Class: "Bus", N: 0, D: 0, NIN: 1}, model.Load{})
		ps.MustSet(2, model.ClassStats{Class: "Truck", N: 0, D: 0, NIN: 1}, model.Load{})
		ps.MustSet(3, model.ClassStats{Class: "Company", N: 10, D: 5, NIN: 1}, model.Load{})
		capped, err := NewShared(ps)
		if err != nil {
			t.Fatal(err)
		}
		// Raw product 50·50·1 = 2500 is capped at DMax of level 3 = 5.
		near(t, "ninBar(1, 3)", capped.ninBar(1, 3), 5)
	})
	t.Run("nar", func(t *testing.T) {
		// nar_{l+1} for the nin values of one object: one value over the
		// three vehicle classes touches one record; any number of values
		// over the single-class levels 3 and 4 touch one; beyond the path
		// there is nothing to touch.
		near(t, "nar(Person)", sh.lv[0].nar[0], 1)
		for x := range sh.lv[1].nar {
			near(t, "nar(level 2)", sh.lv[1].nar[x], 1)
		}
		near(t, "nar(Company)", sh.lv[2].nar[0], 1)
		near(t, "nar(Division)", sh.lv[3].nar[0], 0)
		// Two vehicles per person over classes of 10000, 5000 and 5000:
		// (1 − 0.5²) + 2·(1 − 0.75²) = 0.75 + 0.875.
		ps := model.Figure7Stats()
		ps.Level(1).Classes[0].NIN = 2
		two, err := NewShared(ps)
		if err != nil {
			t.Fatal(err)
		}
		near(t, "nar(Person, nin 2)", two.lv[0].nar[0], 1.625)
	})
}
