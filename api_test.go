package ooindex

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestSelectFigure7(t *testing.T) {
	ps := Figure7Stats()
	res, m, err := Select(ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Degree() != 2 {
		t.Fatalf("degree = %d: %v", res.Best.Degree(), res.Best)
	}
	if res.Best.Assignments[0].Org != NIX || res.Best.Assignments[1].Org != MX {
		t.Errorf("orgs = %v, want NIX then MX", res.Best)
	}
	if m == nil {
		t.Fatal("nil matrix")
	}
	v, err := SubpathCost(ps, 1, 2, NIX)
	if err != nil {
		t.Fatal(err)
	}
	cell, ok := m.Cell(1, 2, NIX)
	if !ok || math.Abs(v-cell) > 1e-9 {
		t.Errorf("SubpathCost = %g, matrix cell = %g", v, cell)
	}
}

func TestSelectReturnsErrorsForBadInput(t *testing.T) {
	// Each of these panicked inside core before it validated its input.
	if _, _, err := Select(nil, nil); err == nil {
		t.Error("Select accepted nil statistics")
	}
	if _, err := SelectMulti([]*PathStats{nil}, nil); err == nil {
		t.Error("SelectMulti accepted a nil path")
	}
	if _, _, err := Select(Figure7Stats(), []Organization{-1}); err == nil {
		t.Error("Select accepted organization -1")
	}
	if _, _, err := Select(Figure7Stats(), []Organization{MX, MX}); err == nil {
		t.Error("Select accepted a repeated organization")
	}
	if _, err := SubpathCost(nil, 1, 1, MX); err == nil {
		t.Error("SubpathCost accepted nil statistics")
	}
	// Statistics no cost is finite under, or that are not numbers at all:
	// the first used to index from[-1] in the dynamic program, the others
	// were priced.
	for name, edit := range map[string]func(*PathStats){
		"overflowing load": func(ps *PathStats) { ps.Levels[0].Loads[0].Beta = 1e308 },
		"NaN statistic":    func(ps *PathStats) { ps.Levels[1].Classes[0].N = math.NaN() },
		"negative load":    func(ps *PathStats) { ps.Levels[0].Loads[0].Alpha = -5 },
	} {
		ps := Figure7Stats()
		edit(ps)
		if res, _, err := Select(ps, nil); err == nil {
			t.Errorf("Select accepted an %s and returned %v", name, res.Best)
		}
	}
}

func TestSelectWithNoIndexColumn(t *testing.T) {
	// With the NONE extension column, the optimum can only improve or stay
	// equal (the search space grows).
	ps := Figure7Stats()
	base, _, err := Select(ps, Organizations)
	if err != nil {
		t.Fatal(err)
	}
	ext, _, err := Select(ps, OrganizationsWithNoIndex)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Best.Cost > base.Best.Cost+1e-9 {
		t.Errorf("NONE column made the optimum worse: %g > %g", ext.Best.Cost, base.Best.Cost)
	}
}

func TestNoIndexWinsOnPureUpdateWorkload(t *testing.T) {
	// With zero queries, not indexing costs nothing; the NONE column must
	// take over the whole path.
	ps := Figure7Stats()
	for l := 1; l <= ps.Len(); l++ {
		ls := ps.Level(l)
		for x := range ls.Loads {
			ls.Loads[x].Alpha = 0
		}
	}
	res, _, err := Select(ps, OrganizationsWithNoIndex)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Cost != 0 {
		t.Errorf("pure-update NONE cost = %g, want 0", res.Best.Cost)
	}
	for _, a := range res.Best.Assignments {
		if a.Org != NoIndex {
			t.Errorf("assignment %v, want NoIndex everywhere", a)
		}
	}
}

func TestEndToEndWorkingDatabase(t *testing.T) {
	// Select a configuration analytically, build it physically, and check
	// a query end to end.
	ps := Figure7Stats()
	res, _, err := Select(ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Generate(ps, 0.002, 5) // 400 persons, tiny but structured
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(g.Store, g.Path, res.Best, ps.Params.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	v := g.EndValues[0]
	want, err := NaiveQuery(g.Store, g.Path, v, "Person", false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Query(v, "Person", false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Query = %v, want %v", got, want)
	}
}

func TestCustomSchemaRoundTrip(t *testing.T) {
	s := NewSchema()
	s.MustAddClass(&Class{Name: "Order", Attrs: []Attribute{
		{Name: "item", Kind: Ref, Domain: "Product"},
	}})
	s.MustAddClass(&Class{Name: "Product", Attrs: []Attribute{
		{Name: "vendor", Kind: Atomic, Domain: "string"},
	}})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := NewPath(s, "Order", "item", "vendor")
	if err != nil {
		t.Fatal(err)
	}
	ps := NewPathStats(p, DefaultParams())
	ps.MustSet(1, ClassStats{Class: "Order", N: 10000, D: 2000, NIN: 1}, Load{Alpha: 0.5, Beta: 0.2, Gamma: 0.2})
	ps.MustSet(2, ClassStats{Class: "Product", N: 2000, D: 500, NIN: 1}, Load{Alpha: 0.1, Beta: 0.05, Gamma: 0.05})
	res, _, err := Select(ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Validate(2); err != nil {
		t.Errorf("invalid configuration: %v", err)
	}
	if res.Best.Cost <= 0 {
		t.Errorf("cost = %g", res.Best.Cost)
	}
}

func TestSelectMulti(t *testing.T) {
	// Two paths sharing the Company.divs.name tail: the optimal configs
	// both index it, and the plan shares the structure.
	psA := Figure7Stats() // Person.owns.man.divs.name
	s := PaperSchema()
	pB, err := NewPath(s, "Vehicle", "man", "divs", "name")
	if err != nil {
		t.Fatal(err)
	}
	psB := NewPathStats(pB, PaperParams())
	psB.MustSet(1, ClassStats{Class: "Vehicle", N: 10000, D: 5000, NIN: 3}, Load{Alpha: 0.3, Gamma: 0.05})
	psB.MustSet(1, ClassStats{Class: "Bus", N: 5000, D: 2500, NIN: 2}, Load{Alpha: 0.05, Beta: 0.05, Gamma: 0.1})
	psB.MustSet(1, ClassStats{Class: "Truck", N: 5000, D: 2500, NIN: 2}, Load{Beta: 0.1})
	psB.MustSet(2, ClassStats{Class: "Company", N: 1000, D: 1000, NIN: 4}, Load{Alpha: 0.1, Beta: 0.1, Gamma: 0.1})
	psB.MustSet(3, ClassStats{Class: "Division", N: 1000, D: 1000, NIN: 1}, Load{Alpha: 0.2, Beta: 0.2, Gamma: 0.1})

	plan, err := SelectMulti([]*PathStats{psA, psB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Configs) != 2 {
		t.Fatalf("configs = %d", len(plan.Configs))
	}
	if plan.TotalCost > plan.UnsharedCost+1e-9 {
		t.Errorf("sharing increased cost: %g > %g", plan.TotalCost, plan.UnsharedCost)
	}
	// Whether sharing triggers depends on both optima choosing the same
	// (subpath, org); with these stats both tails are Company.divs.name.
	shared := false
	for _, s := range plan.SharedSubpaths {
		if strings.HasPrefix(s, "Company.divs.name/") {
			shared = true
		}
	}
	if shared && plan.TotalCost >= plan.UnsharedCost {
		t.Errorf("shared structure did not reduce cost: %g vs %g", plan.TotalCost, plan.UnsharedCost)
	}
	if _, err := SelectMulti(nil, nil); err == nil {
		t.Error("empty path list accepted")
	}
}

func TestSelectMultiSharingMerge(t *testing.T) {
	// Two structurally identical paths: the optima coincide, so every
	// indexed subpath is shared and the merge arithmetic is fully
	// predictable from one path's matrix.
	psA, psB := Figure7Stats(), Figure7Stats()
	plan, err := SelectMulti([]*PathStats{psA, psB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, m, err := Select(Figure7Stats(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range plan.Configs {
		if !cfg.Equal(res.Best) {
			t.Fatalf("config %d = %v, want %v", i, cfg, res.Best)
		}
	}

	var query, maint float64
	for _, asg := range res.Best.Assignments {
		entry, ok := m.Entry(asg.A, asg.B, asg.Org)
		if !ok {
			t.Fatalf("no matrix entry for %+v", asg)
		}
		query += entry.SC.Query
		maint += entry.SC.Maint + entry.SC.CMD
	}
	// Each path pays its own query load; a shared structure's
	// maintenance (including the Definition 4.2 boundary charge) is
	// counted once, not per path.
	if want := 2 * res.Best.Cost; math.Abs(plan.UnsharedCost-want) > 1e-9 {
		t.Errorf("UnsharedCost = %g, want %g", plan.UnsharedCost, want)
	}
	if want := 2*query + maint; math.Abs(plan.TotalCost-want) > 1e-9 {
		t.Errorf("TotalCost = %g, want 2*query + 1*maint = %g", plan.TotalCost, want)
	}
	if plan.TotalCost > plan.UnsharedCost+1e-9 {
		t.Errorf("sharing increased cost: %g > %g", plan.TotalCost, plan.UnsharedCost)
	}

	// Every assignment is shared, and the listing is deterministic:
	// sorted, and identical across runs.
	if len(plan.SharedSubpaths) != len(res.Best.Assignments) {
		t.Fatalf("SharedSubpaths = %v, want one per assignment of %v", plan.SharedSubpaths, res.Best)
	}
	if !sort.StringsAreSorted(plan.SharedSubpaths) {
		t.Errorf("SharedSubpaths not sorted: %v", plan.SharedSubpaths)
	}
	again, err := SelectMulti([]*PathStats{Figure7Stats(), Figure7Stats()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan.SharedSubpaths, again.SharedSubpaths) {
		t.Errorf("SharedSubpaths order unstable: %v vs %v", plan.SharedSubpaths, again.SharedSubpaths)
	}
}

func TestEngineLifecycleThroughAPI(t *testing.T) {
	// The measure–select–reconfigure loop through the public API: open
	// the engine, serve traffic, ask for advice, reconfigure.
	ps := Figure7Stats()
	res, _, err := Select(ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Generate(ps, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenWithOptions(g.Store, g.Path, res.Best, ps.Params.PageSize, EngineOptions{
		Params:  PaperParams(),
		Assumed: ps,
		MinOps:  16,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		if _, err := db.Query(g.EndValues[i%len(g.EndValues)], "Person", false); err != nil {
			t.Fatal(err)
		}
	}
	if w := db.WorkloadSnapshot(); w.Total != 24 {
		t.Fatalf("workload total = %d, want 24", w.Total)
	}
	adv, err := db.Advise()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := db.Reconfigure()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed != adv.Changed {
		t.Errorf("advice said changed=%v, reconfigure did changed=%v", adv.Changed, rep.Changed)
	}
	if !db.Config().Equal(adv.Config) {
		t.Errorf("active config %v, advice recommended %v", db.Config(), adv.Config)
	}
}

func TestValueConstructors(t *testing.T) {
	if IntV(3).Int != 3 || StrV("a").Str != "a" || RefV(9).Ref != 9 {
		t.Error("constructors broken")
	}
}

func TestPaperHelpers(t *testing.T) {
	if PaperSchema().Class("Vehicle") == nil {
		t.Error("PaperSchema missing Vehicle")
	}
	if PaperPath().Len() != 3 {
		t.Error("PaperPath length wrong")
	}
	if PaperParams().PageSize != 1024 || DefaultParams().PageSize != 4096 {
		t.Error("params wrong")
	}
	m, err := CostMatrix(Figure7Stats(), nil)
	if err != nil || m.N != 4 {
		t.Errorf("CostMatrix: %v", err)
	}
}
