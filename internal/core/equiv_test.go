// Equivalence tests for the selection engine: the dense matrix built from
// the level table must agree with a reference that prices every cell on
// its own, without tables (refcost_test.go) — to 1e-9 where only the order
// of summation differs, to 1e-6 against the O(t) Yao loop — and must pick
// the same organization for every subpath and the same configuration; the
// three search procedures must return bit-identical configurations, costs
// and statistics to the paper's recursive procedures run on the same
// cells. Checked on the paper's figures, on randomized statistics and on a
// copy of the benchmark's advise pool.
package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/schema"
)

// refMatrix is the reference cost matrix: cells stored in a map, minima
// rescanned per probe — the seed implementation kept as an executable
// specification.
type refMatrix struct {
	n     int
	orgs  []cost.Organization
	cells map[[2]int][]cost.SubpathCost
}

// newRefMatrix prices every cell with the table-free reference evaluator
// on the given Yao estimator.
func newRefMatrix(ps *model.PathStats, orgs []cost.Organization, yao func(t, n, m float64) float64) *refMatrix {
	m := &refMatrix{n: ps.Len(), orgs: orgs, cells: make(map[[2]int][]cost.SubpathCost)}
	for _, ab := range ps.Path.SubPaths() {
		row := make([]cost.SubpathCost, len(orgs))
		for i, org := range orgs {
			row[i] = refProcessingCost(ps, ab[0], ab[1], org, yao)
		}
		m.cells[[2]int{ab[0], ab[1]}] = row
	}
	return m
}

// refMatrixOf copies the cells of m, so that the reference search
// procedures can be run on exactly the costs m searches.
func refMatrixOf(t *testing.T, m *core.Matrix) *refMatrix {
	t.Helper()
	r := &refMatrix{n: m.N, orgs: m.Orgs, cells: make(map[[2]int][]cost.SubpathCost)}
	for _, ab := range m.Rows() {
		row := make([]cost.SubpathCost, len(m.Orgs))
		for i, org := range m.Orgs {
			e, ok := m.Entry(ab[0], ab[1], org)
			if !ok {
				t.Fatalf("missing entry %s", cellName(ab[0], ab[1], org))
			}
			row[i] = e.SC
		}
		r.cells[ab] = row
	}
	return r
}

// memoYaoLoop is the Yao loop behind a memo: the reference asks for the
// same large record sets once per cell, and the loop is O(t).
func memoYaoLoop() func(t, n, m float64) float64 {
	memo := make(map[[3]float64]float64)
	return func(t, n, m float64) float64 {
		k := [3]float64{t, n, m}
		v, ok := memo[k]
		if !ok {
			v = yaoLoop(t, n, m)
			memo[k] = v
		}
		return v
	}
}

func (m *refMatrix) minCost(a, b int) (cost.Organization, float64) {
	row := m.cells[[2]int{a, b}]
	best, bestV := m.orgs[0], row[0].Total()
	for i := 1; i < len(m.orgs); i++ {
		if v := row[i].Total(); v < bestV {
			best, bestV = m.orgs[i], v
		}
	}
	return best, bestV
}

// refOptIndCon is the seed's recursive branch-and-bound, verbatim.
func (m *refMatrix) refOptIndCon() core.Result {
	n := m.n
	res := core.Result{Stats: core.SelectionStats{TotalConfigurations: 1 << (n - 1)}}
	org1, c1 := m.minCost(1, n)
	res.Best = core.Configuration{Assignments: []core.Assignment{{A: 1, B: n, Org: org1}}, Cost: c1}
	res.Stats.Evaluated = 1
	var explore func(start int, prefix []core.Assignment, prefixCost float64)
	explore = func(start int, prefix []core.Assignment, prefixCost float64) {
		for h := n - 1; h >= start; h-- {
			org, c := m.minCost(start, h)
			if prefixCost+c >= res.Best.Cost {
				res.Stats.Pruned++
				continue
			}
			head := append(append([]core.Assignment(nil), prefix...), core.Assignment{A: start, B: h, Org: org})
			orgR, cR := m.minCost(h+1, n)
			total := prefixCost + c + cR
			res.Stats.Evaluated++
			if total < res.Best.Cost {
				res.Best = core.Configuration{
					Assignments: append(append([]core.Assignment(nil), head...), core.Assignment{A: h + 1, B: n, Org: orgR}),
					Cost:        total,
				}
			}
			explore(h+1, head, prefixCost+c)
		}
	}
	explore(1, nil, 0)
	return res
}

// refExhaustive is the seed's exhaustive enumeration, verbatim.
func (m *refMatrix) refExhaustive() core.Result {
	n := m.n
	res := core.Result{Stats: core.SelectionStats{TotalConfigurations: 1 << (n - 1)}}
	res.Best.Cost = math.Inf(1)
	for mask := 0; mask < 1<<(n-1); mask++ {
		var asg []core.Assignment
		a := 1
		var total float64
		for b := 1; b <= n; b++ {
			if b == n || mask&(1<<(b-1)) != 0 {
				org, c := m.minCost(a, b)
				asg = append(asg, core.Assignment{A: a, B: b, Org: org})
				total += c
				a = b + 1
			}
		}
		res.Stats.Evaluated++
		if total < res.Best.Cost {
			res.Best = core.Configuration{Assignments: asg, Cost: total}
		}
	}
	return res
}

// refDP is the seed's prefix dynamic program, verbatim.
func (m *refMatrix) refDP() core.Result {
	n := m.n
	res := core.Result{Stats: core.SelectionStats{TotalConfigurations: 1 << (n - 1)}}
	best := make([]float64, n+1)
	choice := make([]core.Assignment, n+1)
	for b := 1; b <= n; b++ {
		best[b] = math.Inf(1)
		for a := 1; a <= b; a++ {
			org, c := m.minCost(a, b)
			res.Stats.Evaluated++
			if v := best[a-1] + c; v < best[b] {
				best[b] = v
				choice[b] = core.Assignment{A: a, B: b, Org: org}
			}
		}
	}
	var asg []core.Assignment
	for b := n; b >= 1; b = choice[b].A - 1 {
		asg = append([]core.Assignment{choice[b]}, asg...)
	}
	res.Best = core.Configuration{Assignments: asg, Cost: best[n]}
	return res
}

// assertEquivalent checks the matrix of ps against the reference.
func assertEquivalent(t *testing.T, label string, ps *model.PathStats, orgs []cost.Organization) {
	t.Helper()
	m, err := core.NewMatrixFromStats(ps, orgs)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(orgs) == 0 {
		orgs = cost.Organizations
	}
	if m.N != ps.Len() {
		t.Fatalf("%s: N = %d, want %d", label, m.N, ps.Len())
	}
	// Cells and minima against the table-free reference, on the closed
	// form and on the loop.
	for _, ref := range []struct {
		name string
		m    *refMatrix
		tol  float64
	}{
		{"closed-form reference", newRefMatrix(ps, orgs, cost.Yao), 1e-9},
		{"loop reference", newRefMatrix(ps, orgs, memoYaoLoop()), 1e-6},
	} {
		for ab, row := range ref.m.cells {
			a, b := ab[0], ab[1]
			for i, org := range orgs {
				entry, ok := m.Entry(a, b, org)
				if !ok {
					t.Fatalf("%s: missing cell %s", label, cellName(a, b, org))
				}
				got, want := entry.SC, row[i]
				if got.A != a || got.B != b || got.Org != org {
					t.Errorf("%s: cell %s labelled %+v", label, cellName(a, b, org), got)
				}
				if d := max(relDiff(got.Query, want.Query), relDiff(got.Maint, want.Maint), relDiff(got.CMD, want.CMD), relDiff(got.Total(), want.Total())); d > ref.tol {
					t.Errorf("%s: cell %s = %+v, %s %+v (off by %.3g)", label, cellName(a, b, org), got, ref.name, want, d)
				}
				if cell, _ := m.Cell(a, b, org); cell != got.Total() {
					t.Errorf("%s: Cell %s = %v, entry total %v", label, cellName(a, b, org), cell, got.Total())
				}
			}
			gotOrg, gotV := m.MinCost(a, b)
			wantOrg, wantV := ref.m.minCost(a, b)
			if gotOrg != wantOrg || relDiff(gotV, wantV) > ref.tol {
				t.Errorf("%s: MinCost(%d,%d) = (%v,%v), %s (%v,%v)", label, a, b, gotOrg, gotV, ref.name, wantOrg, wantV)
			}
		}
		// The reference's own optimum is the configuration m selects.
		want, got := ref.m.refExhaustive().Best, m.DP().Best
		if !reflect.DeepEqual(physical(got), physical(want)) || relDiff(got.Cost, want.Cost) > ref.tol {
			t.Errorf("%s: selected %v, %s selects %v", label, got, ref.name, want)
		}
	}
	// The search procedures against the recursive ones on the same cells.
	same := refMatrixOf(t, m)
	checks := []struct {
		name string
		got  core.Result
		want core.Result
	}{
		{"OptIndCon", m.OptIndCon(), same.refOptIndCon()},
		{"Exhaustive", m.Exhaustive(), same.refExhaustive()},
		{"DP", m.DP(), same.refDP()},
	}
	for _, c := range checks {
		if c.got.Best.Cost != c.want.Best.Cost {
			t.Errorf("%s: %s cost = %v, want %v (bit-identical)", label, c.name, c.got.Best.Cost, c.want.Best.Cost)
		}
		if !reflect.DeepEqual(c.got.Best.Assignments, c.want.Best.Assignments) {
			t.Errorf("%s: %s configuration = %v, want %v", label, c.name, c.got.Best, c.want.Best)
		}
		if c.got.Stats != c.want.Stats {
			t.Errorf("%s: %s stats = %+v, want %+v", label, c.name, c.got.Stats, c.want.Stats)
		}
		// DP in the serving path: the three procedures agree on the
		// configuration, not only on its cost.
		if !reflect.DeepEqual(physical(c.got.Best), physical(checks[2].got.Best)) {
			t.Errorf("%s: %s configuration = %v, DP %v", label, c.name, c.got.Best, checks[2].got.Best)
		}
	}
}

func TestMatrixEquivalentOnFigure7(t *testing.T) {
	// The Figure 8 matrix (Example 5.1 statistics), with the paper's
	// organization set and with the extended column set.
	assertEquivalent(t, "paper-orgs", model.Figure7Stats(), nil)
	assertEquivalent(t, "extended-orgs", model.Figure7Stats(), cost.OrganizationsExtended)
}

func TestMatrixEquivalentOnFigure6(t *testing.T) {
	// The hypothetical Figure 6 matrix: dense storage must reproduce the
	// walkthrough trace (6 evaluated, 2 pruned, optimum 8) — the values
	// are asserted in core_test.go; here Cell/MinCost round-trips and the
	// agreement of the three procedures on the configuration.
	m := core.Figure6Matrix()
	for _, ab := range m.Rows() {
		org, v := m.MinCost(ab[0], ab[1])
		cv, ok := m.Cell(ab[0], ab[1], org)
		if !ok || cv != v {
			t.Errorf("MinCost(%v) = (%v,%v) but Cell = (%v,%v)", ab, org, v, cv, ok)
		}
	}
	dp := m.DP().Best
	for name, got := range map[string]core.Configuration{"OptIndCon": m.OptIndCon().Best, "Exhaustive": m.Exhaustive().Best} {
		if got.Cost != dp.Cost || !got.Equal(dp) {
			t.Errorf("%s = %v, DP = %v", name, got, dp)
		}
	}
}

func TestMatrixEquivalentOnAdvisePool(t *testing.T) {
	for i, ps := range advisePool(t) {
		assertEquivalent(t, fmt.Sprintf("pool[%d] %s", i, ps.Path), ps, poolOrgs)
	}
}

// randomChainStats builds randomized path statistics: a chain schema with
// randomized cardinalities, fan-outs, loads (a third of the paths with
// range-query frequencies beside the equality ones) and selectivity.
func randomChainStats(t *testing.T, rng *rand.Rand, n int) *model.PathStats {
	t.Helper()
	// The skeleton's per-level statistics are overwritten below, so the
	// construction arguments only need to be self-consistent.
	ps, err := experiments.ChainStats(n, 20000, 2000, 2, model.Load{}, model.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	mixed := rng.Intn(3) == 0 // equality and range queries side by side
	for l := 1; l <= n; l++ {
		ls := ps.Level(l)
		for x := range ls.Classes {
			c := &ls.Classes[x]
			c.N = math.Ceil(10 + rng.Float64()*50000)
			c.NIN = 1 + rng.Float64()*3
			// Validation requires D <= N*NIN.
			c.D = math.Ceil(1 + rng.Float64()*(c.N*c.NIN-1))
			ls.Loads[x] = model.Load{
				Alpha: rng.Float64(),
				Beta:  rng.Float64() * 0.5,
				Gamma: rng.Float64() * 0.5,
			}
			if mixed {
				ls.Loads[x].Rho = rng.Float64() * 0.3
			}
		}
	}
	if rng.Intn(3) == 0 {
		ps.Selectivity = rng.Float64() * 0.2
	}
	if err := ps.Validate(); err != nil {
		t.Fatalf("randomized stats invalid: %v", err)
	}
	return ps
}

// randomHierarchyStats builds randomized statistics over a path whose
// every level is an inheritance hierarchy of 1 to 4 classes: the shape on
// which a cell's per-level terms are shared between classes. Some classes
// are empty, some carry no load, fan-outs are fractional, a third of the
// paths carry range-query frequencies and a third a selectivity. Objects
// per key value are drawn up to perKey: large values make the NIX primary
// record span pages, where insertion and deletion have different page
// factors.
func randomHierarchyStats(t *testing.T, rng *rand.Rand, n int, perKey float64) *model.PathStats {
	t.Helper()
	s := schema.New()
	root := func(l int) string { return fmt.Sprintf("C%d", l) }
	for l := 1; l <= n+1; l++ {
		attrs := []schema.Attribute{{Name: "v", Kind: schema.Atomic, Domain: "string"}}
		if l <= n {
			attrs = append(attrs, schema.Attribute{Name: "next", Kind: schema.Ref, Domain: root(l + 1), MultiValued: rng.Intn(2) == 0})
		}
		s.MustAddClass(&schema.Class{Name: root(l), Attrs: attrs})
		for j := rng.Intn(4); j > 0; j-- {
			s.MustAddClass(&schema.Class{Name: fmt.Sprintf("C%dsub%d", l, j), Super: root(l)})
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	attrs := make([]string, n)
	for i := range attrs {
		attrs[i] = "next"
	}
	attrs[n-1] = "v"
	p, err := schema.NewPath(s, root(1), attrs...)
	if err != nil {
		t.Fatal(err)
	}
	ps := model.NewPathStats(p, model.PaperParams())
	mixed := rng.Intn(3) == 0
	for l := 1; l <= n; l++ {
		ls := ps.Level(l)
		for x := range ls.Classes {
			c := &ls.Classes[x]
			c.NIN = 1 + rng.Float64()*3
			if rng.Intn(6) > 0 { // else an empty class: N = D = 0
				c.N = math.Ceil(10 + rng.Float64()*50000)
				c.D = math.Ceil(c.N * c.NIN / (1 + rng.Float64()*perKey))
			}
			if rng.Intn(4) == 0 {
				continue // a class nobody queries or updates
			}
			ls.Loads[x] = model.Load{Alpha: rng.Float64(), Beta: rng.Float64() * 0.5, Gamma: rng.Float64() * 0.5}
			if mixed {
				ls.Loads[x].Rho = rng.Float64() * 0.3
			}
		}
	}
	if rng.Intn(3) == 0 {
		ps.Selectivity = rng.Float64() * 0.2
	}
	if err := ps.Validate(); err != nil {
		t.Fatalf("randomized stats invalid: %v", err)
	}
	return ps
}

// freshCell prices one cell with an evaluator of its own.
func freshCell(t *testing.T, sh *cost.Shared, a, b int, org cost.Organization) cost.SubpathCost {
	t.Helper()
	e, err := sh.Evaluator(a, b, org)
	if err != nil {
		t.Fatal(err)
	}
	return cost.ProcessingCost(e)
}

// sameBits reports whether two cells' Query, Maint and CMD are the same bits.
func sameBits(x, y cost.SubpathCost) bool {
	return math.Float64bits(x.Query) == math.Float64bits(y.Query) &&
		math.Float64bits(x.Maint) == math.Float64bits(y.Maint) &&
		math.Float64bits(x.CMD) == math.Float64bits(y.CMD)
}

// TestEvaluatorReuseMatchesFresh checks the evaluator's descent memo, which
// one evaluator pricing a whole matrix fills once and every later cell
// reads: a cell must cost the same bits as one priced by an evaluator that
// saw no other cell, across matrices, across Resets between two paths, and
// for a range query the memo holds no slot for.
func TestEvaluatorReuseMatchesFresh(t *testing.T) {
	orgs := cost.OrganizationsExtended
	assertFresh := func(label string, ps *model.PathStats) {
		t.Helper()
		m, err := core.NewMatrixFromStats(ps, orgs)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sh, err := cost.NewShared(ps)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, ab := range m.Rows() {
			for _, org := range orgs {
				got, _ := m.Entry(ab[0], ab[1], org)
				if want := freshCell(t, sh, ab[0], ab[1], org); !sameBits(got.SC, want) {
					t.Errorf("%s: cell %s = %+v, fresh evaluator %+v", label, cellName(ab[0], ab[1], org), got.SC, want)
				}
			}
		}
	}
	// 1. Whole matrices on lengths 1-12, with multi-page NIX records, each
	// with equality queries only, with a Rho on every class and with a
	// range selectivity.
	rng := rand.New(rand.NewSource(30))
	for n := 1; n <= 12; n++ {
		for _, perKey := range []float64{4, 400} {
			ps := randomHierarchyStats(t, rng, n, perKey)
			label := fmt.Sprintf("hierarchy n=%d perKey=%g", n, perKey)
			plain := ps.Clone()
			plain.Selectivity = 0
			for l := range plain.Levels {
				for x := range plain.Levels[l].Loads {
					plain.Levels[l].Loads[x].Rho = 0
				}
			}
			rho := plain.Clone()
			for l := range rho.Levels {
				for x := range rho.Levels[l].Loads {
					rho.Levels[l].Loads[x].Rho = 0.01 * float64(1+l+x)
				}
			}
			sel := plain.Clone()
			sel.Selectivity = 0.05
			assertFresh(label, ps)
			assertFresh(label+" equality", plain)
			assertFresh(label+" rho", rho)
			assertFresh(label+" selectivity", sel)
		}
	}

	// 2. One evaluator Reset back and forth between two paths: every move
	// to the other path's Shared must drop the memo of the last one.
	var chain *model.PathStats
	for _, ps := range advisePool(t)[1:] {
		if ps.Len() == 12 {
			chain = ps
		}
	}
	paths := []*model.PathStats{model.Figure7Stats(), chain}
	shared := make([]*cost.Shared, len(paths))
	for i, ps := range paths {
		sh, err := cost.NewShared(ps)
		if err != nil {
			t.Fatal(err)
		}
		shared[i] = sh
	}
	var e cost.Evaluator
	for _, ab := range chain.Path.SubPaths() {
		for _, org := range orgs {
			for i, sh := range shared {
				a, b := ab[0], ab[1]
				if b > paths[i].Len() {
					a, b = 1+(a-1)%paths[i].Len(), paths[i].Len()
				}
				if err := e.Reset(sh, a, b, org); err != nil {
					t.Fatal(err)
				}
				if got, want := cost.ProcessingCost(&e), freshCell(t, sh, a, b, org); !sameBits(got, want) {
					t.Errorf("%s after a Reset from the other path: %+v, fresh evaluator %+v", cellName(a, b, org), got, want)
				}
			}
		}
	}

	// 3. A range query at a selectivity neither memo slot holds, asked of
	// an evaluator whose memo the cell's pricing filled.
	ps := model.Figure7Stats()
	ps.Selectivity = 0.05
	sh, err := cost.NewShared(ps)
	if err != nil {
		t.Fatal(err)
	}
	for _, ab := range ps.Path.SubPaths() {
		for _, org := range []cost.Organization{cost.NIX, cost.PX, cost.NX} {
			a, b := ab[0], ab[1]
			if err := e.Reset(sh, a, b, org); err != nil {
				t.Fatal(err)
			}
			cost.ProcessingCost(&e)
			fresh, err := sh.Evaluator(a, b, org)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range ps.Level(a).Classes {
				got, err := e.QueryRange(a, c.Class, 0.37)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := fresh.QueryRange(a, c.Class, 0.37)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: QueryRange(%d, %s, 0.37) = %v, fresh evaluator %v", cellName(a, b, org), a, c.Class, got, want)
				}
			}
			if got, want := cost.ProcessingCost(&e), freshCell(t, sh, a, b, org); !sameBits(got, want) {
				t.Errorf("%s after an unmemoized range query: %+v, fresh evaluator %+v", cellName(a, b, org), got, want)
			}
		}
	}
}

func TestMatrixEquivalentOnRandomStats(t *testing.T) {
	// Property: on randomized chain statistics of length up to 16, and on
	// randomized hierarchies of length up to 12, the matrix matches the
	// reference in every cell and minimum, and all three search
	// procedures return identical results. Covers the paper's
	// organizations and the extended set (PX, NX, NONE), equality and
	// range predicates, single- and multi-page NIX records.
	rng := rand.New(rand.NewSource(94))
	lengths := []int{1, 2, 3, 5, 8, 12, 16}
	for i, n := range lengths {
		ps := randomChainStats(t, rng, n)
		orgs := cost.Organizations
		if i%2 == 1 {
			orgs = cost.OrganizationsExtended
		}
		assertEquivalent(t, ps.Path.String(), ps, orgs)
	}
	for n := 1; n <= 12; n++ {
		perKey := 4.0
		if n%3 == 0 {
			perKey = 400 // NIX primary records of several pages from the first level on
		}
		ps := randomHierarchyStats(t, rng, n, perKey)
		assertEquivalent(t, fmt.Sprintf("hierarchy n=%d perKey=%g", n, perKey), ps, cost.OrganizationsExtended)
	}
}

func TestSelectMultiMatchesSelect(t *testing.T) {
	// SelectMulti's per-path configurations must be exactly what Select
	// returns for each path on its own, and its unshared cost their sum.
	rng := rand.New(rand.NewSource(7))
	var pss []*model.PathStats
	for _, n := range []int{1, 3, 6, 9, 12, 4, 8, 2} {
		pss = append(pss, randomChainStats(t, rng, n))
	}
	pss = append(pss, model.Figure7Stats())
	plan, err := core.SelectMulti(pss, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Configs) != len(pss) {
		t.Fatalf("plan holds %d configurations for %d paths", len(plan.Configs), len(pss))
	}
	var sum float64
	for i, ps := range pss {
		want, _, err := core.Select(ps, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum += want.Best.Cost
		if plan.Configs[i].Cost != want.Best.Cost {
			t.Errorf("path %d: multi cost %v, want %v", i, plan.Configs[i].Cost, want.Best.Cost)
		}
		if !reflect.DeepEqual(plan.Configs[i].Assignments, want.Best.Assignments) {
			t.Errorf("path %d: multi configuration %v, want %v", i, plan.Configs[i], want.Best)
		}
	}
	if plan.UnsharedCost != sum {
		t.Errorf("unshared cost %v, want the per-path sum %v", plan.UnsharedCost, sum)
	}
}

func TestSelectMultiErrors(t *testing.T) {
	if _, err := core.SelectMulti(nil, nil); err == nil {
		t.Error("empty path list accepted")
	}
	bad := model.Figure7Stats()
	bad.Levels[0].Classes[0].N = -1
	if _, err := core.SelectMulti([]*model.PathStats{model.Figure7Stats(), bad}, nil); err == nil {
		t.Error("invalid stats accepted among the paths")
	}
}

func TestConcurrentMatrixAndBatchRace(t *testing.T) {
	// Concurrency over paths is the caller's, so what callers share must be
	// safe to share. Exercises, under -race: concurrent NewMatrixFromStats
	// over a shared PathStats, concurrent searches on a shared matrix, and
	// overlapping SelectMulti calls over the same statistics.
	ps := model.Figure7Stats()
	ref, err := core.NewMatrixFromStats(ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.OptIndCon()
	var wg sync.WaitGroup
	caller := func(g int) {
		defer wg.Done()
		for it := 0; it < 5; it++ {
			m, err := core.NewMatrixFromStats(ps, nil)
			if err != nil {
				t.Error(err)
				return
			}
			r := m.OptIndCon()
			if r.Best.Cost != want.Best.Cost {
				t.Errorf("goroutine %d: cost %v, want %v", g, r.Best.Cost, want.Best.Cost)
			}
			// Shared matrix, concurrent read-only searches.
			if r := ref.DP(); r.Best.Cost != want.Best.Cost {
				t.Errorf("goroutine %d: DP on shared matrix: %v", g, r.Best.Cost)
			}
			if _, err := core.SelectMulti([]*model.PathStats{ps, ps, ps}, nil); err != nil {
				t.Error(err)
			}
		}
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go caller(g)
	}
	wg.Wait()
}
