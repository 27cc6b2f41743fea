package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{PageSize: 10, OidLen: 8, KeyLen: 8, PtrLen: 8, CountLen: 4, OffsetLen: 12, RecHeader: 16},
		{PageSize: 4096, OidLen: 0, KeyLen: 8, PtrLen: 8, CountLen: 4, OffsetLen: 12, RecHeader: 16},
		{PageSize: 4096, OidLen: 8, KeyLen: -1, PtrLen: 8, CountLen: 4, OffsetLen: 12, RecHeader: 16},
		{PageSize: 128, OidLen: 8, KeyLen: 100, PtrLen: 100, CountLen: 4, OffsetLen: 12, RecHeader: 16},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, p)
		}
	}
}

func TestClassStatsK(t *testing.T) {
	c := ClassStats{Class: "Veh", N: 10000, D: 5000, NIN: 3}
	if got, want := c.K(), 6.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("K = %g, want %g", got, want)
	}
	if got := (ClassStats{Class: "X", N: 10, D: 0, NIN: 1}).K(); got != 0 {
		t.Errorf("K with D=0 = %g, want 0", got)
	}
}

func TestClassStatsValidate(t *testing.T) {
	if err := (ClassStats{Class: "A", N: 100, D: 50, NIN: 1}).Validate(); err != nil {
		t.Errorf("valid stats rejected: %v", err)
	}
	if err := (ClassStats{Class: "", N: 1, D: 1, NIN: 1}).Validate(); err == nil {
		t.Error("empty class name accepted")
	}
	if err := (ClassStats{Class: "A", N: -1, D: 1, NIN: 1}).Validate(); err == nil {
		t.Error("negative N accepted")
	}
	if err := (ClassStats{Class: "A", N: 10, D: 100, NIN: 1}).Validate(); err == nil {
		t.Error("D > N*NIN accepted")
	}
}

func TestFigure7Stats(t *testing.T) {
	ps := Figure7Stats()
	if err := ps.Validate(); err != nil {
		t.Fatalf("Figure7Stats invalid: %v", err)
	}
	if ps.Len() != 4 {
		t.Fatalf("len = %d, want 4", ps.Len())
	}
	// Level 2 is the Vehicle hierarchy with 3 classes.
	l2 := ps.Level(2)
	if l2.NC() != 3 {
		t.Fatalf("level 2 NC = %d, want 3", l2.NC())
	}
	if got, want := l2.NTotal(), 20000.0; got != want {
		t.Errorf("level 2 NTotal = %g, want %g", got, want)
	}
	if got, want := l2.DMax(), 5000.0; got != want {
		t.Errorf("level 2 DMax = %g, want %g", got, want)
	}
	// KStar level 2 = 10000*3/5000 + 5000*2/2500 + 5000*2/2500 = 6+4+4 = 14.
	if got, want := l2.KStar(), 14.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("level 2 KStar = %g, want %g", got, want)
	}
	// Person: alpha 0.3.
	if got := ps.Level(1).Loads[0].Alpha; got != 0.3 {
		t.Errorf("Person alpha = %g, want 0.3", got)
	}
	// Total load on level 2.
	tl := l2.TotalLoad()
	if math.Abs(tl.Alpha-0.35) > 1e-12 || math.Abs(tl.Beta-0.15) > 1e-12 || math.Abs(tl.Gamma-0.15) > 1e-12 {
		t.Errorf("level 2 total load = %+v", tl)
	}
}

func TestExpectedNonEmpty(t *testing.T) {
	// One bin: any positive t fills it.
	if got := ExpectedNonEmpty(3, []float64{10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("one bin = %g, want 1", got)
	}
	// Zero t: nothing.
	if got := ExpectedNonEmpty(0, []float64{1, 2}); got != 0 {
		t.Errorf("t=0 = %g, want 0", got)
	}
	// Empty sizes.
	if got := ExpectedNonEmpty(5, nil); got != 0 {
		t.Errorf("no bins = %g, want 0", got)
	}
	// Two equal bins, one ball: expect exactly 1 non-empty.
	if got := ExpectedNonEmpty(1, []float64{5, 5}); math.Abs(got-1) > 1e-9 {
		t.Errorf("2 bins 1 ball = %g, want 1", got)
	}
	// Many balls: approaches the number of bins.
	if got := ExpectedNonEmpty(1000, []float64{5, 5, 5}); math.Abs(got-3) > 1e-6 {
		t.Errorf("many balls = %g, want ~3", got)
	}
}

func TestExpectedNonEmptyProperties(t *testing.T) {
	// Property: for t >= 1, 0 <= result <= min(t, len(sizes)); monotone in t.
	// (For fractional t < 1 the continuous estimator may slightly exceed t,
	// so the property is stated for t >= 1, the regime the cost model uses.)
	f := func(rawT uint8, rawSizes []uint8) bool {
		t := float64(rawT%50) + 1
		sizes := make([]float64, 0, len(rawSizes))
		for _, s := range rawSizes {
			sizes = append(sizes, float64(s%100)+1)
		}
		got := ExpectedNonEmpty(t, sizes)
		if got < 0 || got > float64(len(sizes))+1e-9 || got > t+1e-9 {
			return false
		}
		return ExpectedNonEmpty(t+1, sizes) >= got-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetErrors(t *testing.T) {
	ps := Figure7Stats()
	if err := ps.SetClass(0, ClassStats{Class: "Person", N: 1, D: 1, NIN: 1}); err == nil {
		t.Error("level 0 accepted")
	}
	if err := ps.SetClass(1, ClassStats{Class: "Vehicle", N: 1, D: 1, NIN: 1}); err == nil {
		t.Error("wrong-hierarchy class accepted")
	}
	if err := ps.SetLoad(9, "Person", Load{}); err == nil {
		t.Error("out-of-range level accepted")
	}
	if err := ps.SetLoad(1, "Ghost", Load{}); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestValidateDetectsBrokenStats(t *testing.T) {
	ps := Figure7Stats()
	ps.Levels[0].Classes[0].N = -5
	if err := ps.Validate(); err == nil {
		t.Error("negative N not caught")
	}

	ps2 := Figure7Stats()
	ps2.Levels = ps2.Levels[:3]
	if err := ps2.Validate(); err == nil {
		t.Error("level/path length mismatch not caught")
	}
}

func TestLoadAdd(t *testing.T) {
	a := Load{Alpha: 1, Beta: 2, Gamma: 3}
	b := Load{Alpha: 0.5, Beta: 0.25, Gamma: 0.125}
	got := a.Add(b)
	if got.Alpha != 1.5 || got.Beta != 2.25 || got.Gamma != 3.125 {
		t.Errorf("Add = %+v", got)
	}
}
