package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/model"
)

func TestFig6Report(t *testing.T) {
	r := RunFig6()
	if r.Result.Best.Cost != 8 {
		t.Errorf("cost = %g, want 8", r.Result.Best.Cost)
	}
	out := r.Render()
	for _, want := range []string{
		"{(S1-1, MX), (S2-4, NIX)}",
		"processing cost 8",
		"evaluated: 6 of 8",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig8ReproducesExample51(t *testing.T) {
	r, err := RunFig8()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's optimal configuration: {(Per.owns.man, NIX),
	// (Comp.divs.name, MX)}.
	best := r.Result.Best
	if best.Degree() != 2 {
		t.Fatalf("degree = %d, want 2: %v", best.Degree(), best)
	}
	if best.Assignments[0] != (core.Assignment{A: 1, B: 2, Org: cost.NIX}) {
		t.Errorf("head assignment = %+v, want (1,2,NIX)", best.Assignments[0])
	}
	if best.Assignments[1] != (core.Assignment{A: 3, B: 4, Org: cost.MX}) {
		t.Errorf("tail assignment = %+v, want (3,4,MX)", best.Assignments[1])
	}
	// The paper explored 4 of the 8 recombinations; so do we.
	if r.Result.Stats.Evaluated != 4 {
		t.Errorf("evaluated = %d, want 4", r.Result.Stats.Evaluated)
	}
	if r.Result.Stats.TotalConfigurations != 8 {
		t.Errorf("total = %d, want 8", r.Result.Stats.TotalConfigurations)
	}
	// Splitting beats the whole-path NIX by a factor in the paper's
	// ballpark (paper: 2.67; the band allows for the unpublished physical
	// constants).
	if r.ImprovementFactor < 2 || r.ImprovementFactor > 4.5 {
		t.Errorf("improvement factor = %.2f, want within [2, 4.5] (paper: 2.67)", r.ImprovementFactor)
	}
	// Matrix sanity: Division.name has no subclasses and length 1, so the
	// three organizations cost the same (the paper's equivalence note).
	mx, _ := r.Matrix.Cell(4, 4, cost.MX)
	mix, _ := r.Matrix.Cell(4, 4, cost.MIX)
	nix, _ := r.Matrix.Cell(4, 4, cost.NIX)
	if math.Abs(mx-mix) > 1e-9 || math.Abs(mix-nix) > 1e-9 {
		t.Errorf("length-1 no-subclass row not equivalent: %g %g %g", mx, mix, nix)
	}
	out := r.Render()
	for _, want := range []string{"Person.owns.man, NIX", "Company.divs.name, MX", "paper: 16.03", "4 of 8"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestComplexityReport(t *testing.T) {
	r := RunComplexity(8, 10, 7)
	if len(r.Points) != 7 {
		t.Fatalf("points = %d", len(r.Points))
	}
	for _, p := range r.Points {
		if !p.Agree {
			t.Errorf("n=%d: branch-and-bound disagrees with exhaustive", p.N)
		}
		if p.MatrixCells != 3*p.N*(p.N+1)/2 {
			t.Errorf("n=%d: matrix cells = %d", p.N, p.MatrixCells)
		}
		if p.TotalConfigurations != 1<<(p.N-1) {
			t.Errorf("n=%d: total = %d", p.N, p.TotalConfigurations)
		}
		if p.BnBEvaluated > p.ExhaustiveEvaluated {
			t.Errorf("n=%d: BnB evaluated %d > exhaustive %d", p.N, p.BnBEvaluated, p.ExhaustiveEvaluated)
		}
		if p.DPEvaluated != p.N*(p.N+1)/2 {
			t.Errorf("n=%d: DP cells = %d, want %d", p.N, p.DPEvaluated, p.N*(p.N+1)/2)
		}
	}
	// Pruning must be visible at larger n.
	last := r.Points[len(r.Points)-1]
	if last.BnBEvaluated >= last.TotalConfigurations {
		t.Errorf("no pruning at n=%d", last.N)
	}
	if !strings.Contains(r.Render(), "2^(n-1)") {
		t.Error("render missing claim check")
	}
}

func TestValidationReport(t *testing.T) {
	r, err := RunValidation(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 16 { // 4 orgs x 4 operations
		t.Fatalf("rows = %d, want 16", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Predicted <= 0 || row.Measured <= 0 {
			t.Errorf("%v %s: non-positive costs %+v", row.Org, row.Operation, row)
		}
		// The model must agree with the running system within a small
		// constant factor — the band that preserves rankings.
		lo, hi := 0.3, 3.0
		// The paper's three organizations maintain a record through one
		// B-tree descent and pay for the pages that change, which is what
		// the model charges: insertions and deletions sit close to 1. (An
		// in-place update is priced as half of each and does both.)
		if row.Org != cost.PX && (row.Operation == "insert Person" || row.Operation == "delete Vehicle") {
			lo, hi = 0.7, 1.5
		}
		if row.Ratio < lo || row.Ratio > hi {
			t.Errorf("%v %s: measured/predicted = %.2f outside [%.1f, %.1f]", row.Org, row.Operation, row.Ratio, lo, hi)
		}
	}
	// Ranking preservation, the property selection relies on: NIX queries
	// are cheapest and NIX maintenance dearest, in both worlds.
	get := func(org cost.Organization, op string) ValidationRow {
		for _, row := range r.Rows {
			if row.Org == org && row.Operation == op {
				return row
			}
		}
		t.Fatalf("missing row %v %s", org, op)
		return ValidationRow{}
	}
	for _, field := range []func(ValidationRow) float64{
		func(r ValidationRow) float64 { return r.Predicted },
		func(r ValidationRow) float64 { return r.Measured },
	} {
		if field(get(cost.NIX, "query Person")) >= field(get(cost.MX, "query Person")) {
			t.Error("NIX query not cheaper than MX")
		}
		if field(get(cost.NIX, "delete Vehicle")) <= field(get(cost.MX, "delete Vehicle")) {
			t.Error("NIX delete not dearer than MX")
		}
	}
	if !strings.Contains(r.Render(), "predicted") {
		t.Error("render broken")
	}
}

func TestWorkloadSweep(t *testing.T) {
	r, err := RunWorkloadSweep([]float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	pure := r.Points[2]
	// Pure queries: the whole-path NIX answers any query with one lookup —
	// it must be the optimum (the crossover the paper's trade-off implies).
	if pure.Best.Degree() != 1 || pure.Best.Assignments[0].Org != cost.NIX {
		t.Errorf("pure-query optimum = %v, want whole-path NIX", pure.Best)
	}
	// Pure updates: NIX on the whole path is far worse than the optimum.
	upd := r.Points[0]
	if upd.WholeNIX < 5*upd.Best.Cost {
		t.Errorf("pure-update: whole NIX %.2f not clearly worse than optimum %.2f", upd.WholeNIX, upd.Best.Cost)
	}
	for _, p := range r.Points {
		if err := p.Best.Validate(4); err != nil {
			t.Errorf("λ=%.2f: invalid config: %v", p.Lambda, err)
		}
	}
	if !strings.Contains(r.Render(), "query share") {
		t.Error("render broken")
	}
}

func TestShapeSweep(t *testing.T) {
	r, err := RunShapeSweep(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 6 {
		t.Fatalf("points = %d", len(r.Points))
	}
	for _, p := range r.Points {
		if err := p.Best.Validate(p.N); err != nil {
			t.Errorf("n=%d: %v", p.N, err)
		}
		if p.Best.Cost > p.Whole+1e-9 {
			t.Errorf("n=%d: optimum %.2f worse than whole-path %.2f", p.N, p.Best.Cost, p.Whole)
		}
		if p.BnB.Evaluated > p.BnB.TotalConfigurations {
			t.Errorf("n=%d: evaluated %d > total %d", p.N, p.BnB.Evaluated, p.BnB.TotalConfigurations)
		}
	}
	// Splitting must strictly win somewhere in the sweep.
	won := false
	for _, p := range r.Points {
		if p.Degree > 1 && p.Best.Cost < p.Whole-1e-9 {
			won = true
		}
	}
	if !won {
		t.Error("splitting never beat the whole-path index in the sweep")
	}
}

func TestChainStatsErrors(t *testing.T) {
	if _, err := ChainStats(0, 1, 1, 1, model.Load{}, model.PaperParams()); err == nil {
		t.Error("n=0 accepted")
	}
	ps, err := ChainStats(3, 100, 50, 2, model.Load{Alpha: 1}, model.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 3 {
		t.Errorf("chain length = %d", ps.Len())
	}
	if err := ps.Validate(); err != nil {
		t.Errorf("chain stats invalid: %v", err)
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("title", "a", "bee")
	tab.AddRow(1, 2.5)
	tab.AddRow("xx", "y")
	out := tab.Render()
	for _, want := range []string{"title", "a", "bee", "2.50", "xx"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Errorf("lines = %d", len(lines))
	}
}
