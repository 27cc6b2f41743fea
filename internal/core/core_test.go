package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/model"
)

func TestConfigurationValidate(t *testing.T) {
	good := Configuration{Assignments: []Assignment{{A: 1, B: 2, Org: cost.MX}, {A: 3, B: 4, Org: cost.NIX}}}
	if err := good.Validate(4); err != nil {
		t.Errorf("valid configuration rejected: %v", err)
	}
	bad := []Configuration{
		{}, // empty
		{Assignments: []Assignment{{A: 2, B: 4}}},               // does not start at 1
		{Assignments: []Assignment{{A: 1, B: 2}}},               // does not cover to n
		{Assignments: []Assignment{{A: 1, B: 2}, {A: 4, B: 4}}}, // gap
		{Assignments: []Assignment{{A: 1, B: 2}, {A: 2, B: 4}}}, // overlap
		{Assignments: []Assignment{{A: 1, B: 0}, {A: 1, B: 4}}}, // inverted
		{Assignments: []Assignment{{A: 1, B: 4}, {A: 5, B: 5}}}, // beyond n
	}
	for i, c := range bad {
		if err := c.Validate(4); err == nil {
			t.Errorf("case %d: invalid configuration %v accepted", i, c)
		}
	}
}

func TestConfigurationString(t *testing.T) {
	c := Configuration{Assignments: []Assignment{{A: 1, B: 1, Org: cost.MX}, {A: 2, B: 4, Org: cost.NIX}}}
	if got, want := c.String(), "{(S1-1, MX), (S2-4, NIX)}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if c.Degree() != 2 {
		t.Errorf("Degree = %d", c.Degree())
	}
}

func TestFigure6MatrixShape(t *testing.T) {
	m := Figure6Matrix()
	if m.N != 4 {
		t.Fatalf("N = %d", m.N)
	}
	rows := m.Rows()
	// A path of length n yields n(n+1)/2 = 10 rows (Section 5).
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	// Min_Cost per the walkthrough.
	wantMin := map[[2]int]float64{
		{1, 1}: 3, {1, 2}: 6, {1, 3}: 8, {1, 4}: 9,
		{2, 2}: 4, {2, 3}: 5, {2, 4}: 5,
		{3, 3}: 2, {3, 4}: 6, {4, 4}: 4,
	}
	for ab, want := range wantMin {
		if _, got := m.MinCost(ab[0], ab[1]); got != want {
			t.Errorf("MinCost%v = %g, want %g", ab, got, want)
		}
	}
	// Specific organizations named in the walkthrough.
	if org, _ := m.MinCost(1, 4); org != cost.NIX {
		t.Errorf("MinCost(1,4) org = %v, want NIX", org)
	}
	if org, _ := m.MinCost(1, 3); org != cost.MIX {
		t.Errorf("MinCost(1,3) org = %v, want MIX", org)
	}
	if org, _ := m.MinCost(1, 1); org != cost.MX {
		t.Errorf("MinCost(1,1) org = %v, want MX", org)
	}
	if org, _ := m.MinCost(2, 4); org != cost.NIX {
		t.Errorf("MinCost(2,4) org = %v, want NIX", org)
	}
}

func TestFigure6Walkthrough(t *testing.T) {
	// Section 5: the optimal configuration for P_ex is
	// {(C1.A1, MX), (C2.A2.A3.A4, NIX)} with processing cost 8.
	m := Figure6Matrix()
	r := m.OptIndCon()
	if math.Abs(r.Best.Cost-8) > 1e-12 {
		t.Errorf("optimal cost = %g, want 8", r.Best.Cost)
	}
	if r.Best.Degree() != 2 {
		t.Fatalf("degree = %d, want 2: %v", r.Best.Degree(), r.Best)
	}
	a := r.Best.Assignments
	if a[0] != (Assignment{A: 1, B: 1, Org: cost.MX}) {
		t.Errorf("first assignment = %+v, want (1,1,MX)", a[0])
	}
	if a[1] != (Assignment{A: 2, B: 4, Org: cost.NIX}) {
		t.Errorf("second assignment = %+v, want (2,4,NIX)", a[1])
	}
	// The walkthrough evaluates 6 of the 8 recombinations and prunes 2.
	if r.Stats.TotalConfigurations != 8 {
		t.Errorf("total configurations = %d, want 2^3 = 8", r.Stats.TotalConfigurations)
	}
	if r.Stats.Evaluated != 6 {
		t.Errorf("evaluated = %d, want 6 (per the paper's trace)", r.Stats.Evaluated)
	}
	if r.Stats.Pruned != 2 {
		t.Errorf("pruned = %d, want 2 ({S11,S23} and {S11,S22,S33})", r.Stats.Pruned)
	}
}

func TestFigure6AgreesAcrossMethods(t *testing.T) {
	m := Figure6Matrix()
	bnb := m.OptIndCon()
	ex := m.Exhaustive()
	dp := m.DP()
	if math.Abs(bnb.Best.Cost-ex.Best.Cost) > 1e-12 || math.Abs(dp.Best.Cost-ex.Best.Cost) > 1e-12 {
		t.Errorf("costs disagree: bnb=%g ex=%g dp=%g", bnb.Best.Cost, ex.Best.Cost, dp.Best.Cost)
	}
	if ex.Stats.Evaluated != 8 {
		t.Errorf("exhaustive evaluated = %d, want 8", ex.Stats.Evaluated)
	}
}

func TestConfigurationCost(t *testing.T) {
	m := Figure6Matrix()
	c := Configuration{Assignments: []Assignment{
		{A: 1, B: 2, Org: cost.MIX}, {A: 3, B: 4, Org: cost.NIX},
	}}
	got, err := m.ConfigurationCost(c)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: concatenating C1.A1.A2 (MIX) and C3.A3.A4 (NIX) costs 12.
	if got != 12 {
		t.Errorf("cost = %g, want 12", got)
	}
	if _, err := m.ConfigurationCost(Configuration{Assignments: []Assignment{{A: 1, B: 4, Org: cost.NONE}}}); err == nil {
		t.Error("cost of unknown organization should fail")
	}
	if _, err := m.ConfigurationCost(Configuration{Assignments: []Assignment{{A: 1, B: 2, Org: cost.MX}}}); err == nil {
		t.Error("partial configuration should fail")
	}
}

func TestNewMatrixFromValuesErrors(t *testing.T) {
	if _, err := NewMatrixFromValues(0, nil, nil); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewMatrixFromValues(2, nil, map[[2]int][]float64{{1, 1}: {1, 1, 1}}); err == nil {
		t.Error("missing cells accepted")
	}
	if _, err := NewMatrixFromValues(1, nil, map[[2]int][]float64{{1, 1}: {1, 2}}); err == nil {
		t.Error("wrong column count accepted")
	}
	if _, err := NewMatrixFromValues(1, nil, map[[2]int][]float64{{1, 1}: {-1, 2, 3}}); err == nil {
		t.Error("negative cost accepted")
	}
	if _, err := NewMatrixFromValues(1, nil, map[[2]int][]float64{{1, 1}: {math.NaN(), 2, 3}}); err == nil {
		t.Error("NaN cost accepted")
	}
}

func TestCellLookups(t *testing.T) {
	m := Figure6Matrix()
	v, ok := m.Cell(3, 3, cost.MX)
	if !ok || v != 2 {
		t.Errorf("Cell(3,3,MX) = %g,%v", v, ok)
	}
	if _, ok := m.Cell(5, 5, cost.MX); ok {
		t.Error("out-of-range cell found")
	}
	if _, ok := m.Cell(1, 1, cost.NONE); ok {
		t.Error("unknown organization found")
	}
	e, ok := m.Entry(1, 4, cost.NIX)
	if !ok || e.SC.Total() != 9 {
		t.Errorf("Entry(1,4,NIX) = %+v,%v", e, ok)
	}
	if _, ok := m.Entry(9, 9, cost.NIX); ok {
		t.Error("Entry out of range found")
	}
	if _, ok := m.Entry(1, 1, cost.NONE); ok {
		t.Error("Entry unknown org found")
	}
}

// randomMatrix builds a matrix with random positive costs for property tests.
func randomMatrix(n int, rng *rand.Rand) *Matrix {
	values := make(map[[2]int][]float64)
	for a := 1; a <= n; a++ {
		for b := a; b <= n; b++ {
			values[[2]int{a, b}] = []float64{
				1 + 100*rng.Float64(),
				1 + 100*rng.Float64(),
				1 + 100*rng.Float64(),
			}
		}
	}
	m, err := NewMatrixFromValues(n, cost.Organizations, values)
	if err != nil {
		panic(err)
	}
	return m
}

func TestBranchAndBoundMatchesExhaustiveProperty(t *testing.T) {
	// Property: on random matrices of any length 1..9, branch-and-bound,
	// exhaustive enumeration and the DP all find the same optimal cost, and
	// branch-and-bound never evaluates more configurations than exhaustive.
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%9) + 1
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(n, rng)
		bnb := m.OptIndCon()
		ex := m.Exhaustive()
		dp := m.DP()
		if math.Abs(bnb.Best.Cost-ex.Best.Cost) > 1e-9 {
			return false
		}
		if math.Abs(dp.Best.Cost-ex.Best.Cost) > 1e-9 {
			return false
		}
		if bnb.Stats.Evaluated > ex.Stats.Evaluated {
			return false
		}
		if err := bnb.Best.Validate(n); err != nil {
			return false
		}
		if err := dp.Best.Validate(n); err != nil {
			return false
		}
		// Cross-check: pricing the returned configuration reproduces its cost.
		v, err := m.ConfigurationCost(bnb.Best)
		return err == nil && math.Abs(v-bnb.Best.Cost) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSplittingNeverWorseThanWholePath(t *testing.T) {
	// The optimum is at most the best whole-path single index (the
	// degree-1 configuration is in the search space).
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%8) + 1
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(n, rng)
		r := m.OptIndCon()
		_, whole := m.MinCost(1, n)
		return r.Best.Cost <= whole+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLengthOnePath(t *testing.T) {
	m, err := NewMatrixFromValues(1, cost.Organizations, map[[2]int][]float64{{1, 1}: {5, 4, 6}})
	if err != nil {
		t.Fatal(err)
	}
	r := m.OptIndCon()
	if r.Best.Cost != 4 || r.Best.Degree() != 1 {
		t.Errorf("length-1 result = %+v", r.Best)
	}
	if r.Best.Assignments[0].Org != cost.MIX {
		t.Errorf("org = %v, want MIX", r.Best.Assignments[0].Org)
	}
	if r.Stats.TotalConfigurations != 1 {
		t.Errorf("total = %d, want 1", r.Stats.TotalConfigurations)
	}
}

func TestSelectOnFigure7Stats(t *testing.T) {
	// End-to-end: statistics in, configuration out. The detailed Figure 8
	// assertions live in the experiments package; here we check structural
	// sanity and optimality against the exhaustive baseline.
	ps := model.Figure7Stats()
	r, m, err := Select(ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Best.Validate(ps.Len()); err != nil {
		t.Fatalf("invalid configuration: %v", err)
	}
	ex := m.Exhaustive()
	if math.Abs(r.Best.Cost-ex.Best.Cost) > 1e-9 {
		t.Errorf("bnb %g != exhaustive %g", r.Best.Cost, ex.Best.Cost)
	}
	if r.Best.Cost <= 0 {
		t.Errorf("cost = %g", r.Best.Cost)
	}
}

func TestMatrixFromStatsRejectsBadStats(t *testing.T) {
	ps := model.Figure7Stats()
	ps.Levels[0].Classes[0].N = -1
	if _, err := NewMatrixFromStats(ps, nil); err == nil {
		t.Error("invalid stats accepted")
	}
}

func TestSelectRejectsBadInput(t *testing.T) {
	// Regressions: each of these used to panic — nil statistics in
	// ps.Len(), an organization below zero indexing the column table —
	// or, for a repeated organization, silently shadowed a column.
	ps := model.Figure7Stats()
	if _, _, err := Select(nil, nil); err == nil {
		t.Error("Select accepted nil statistics")
	}
	if _, err := SelectMulti([]*model.PathStats{ps, nil}, nil); err == nil {
		t.Error("SelectMulti accepted a nil path")
	}
	for name, orgs := range map[string][]cost.Organization{
		"negative":  {cost.Organization(-1)},
		"unknown":   {cost.MX, cost.Organization(7)},
		"duplicate": {cost.MX, cost.NIX, cost.MX},
	} {
		if _, _, err := Select(ps, orgs); err == nil {
			t.Errorf("Select accepted %s organizations %v", name, orgs)
		}
		if _, err := NewMatrixFromValues(1, orgs, map[[2]int][]float64{{1, 1}: make([]float64, len(orgs))}); err == nil {
			t.Errorf("NewMatrixFromValues accepted %s organizations %v", name, orgs)
		}
	}
}

func TestRowsOrdered(t *testing.T) {
	m := Figure6Matrix()
	rows := m.Rows()
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[i-1], rows[i]
		if prev[0] > cur[0] || (prev[0] == cur[0] && prev[1] >= cur[1]) {
			t.Errorf("rows not ordered: %v before %v", prev, cur)
		}
	}
}
