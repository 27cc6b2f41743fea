package core_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/model"
)

// selectOrError is the selector's contract on arbitrary statistics: an
// error, or a configuration whose cost is finite and is the sum of its
// cells — never a panic.
func selectOrError(t *testing.T, ps *model.PathStats) error {
	t.Helper()
	res, m, err := core.Select(ps, cost.OrganizationsExtended)
	if err != nil {
		return err
	}
	if math.IsInf(res.Best.Cost, 0) || math.IsNaN(res.Best.Cost) {
		t.Fatalf("selected %v at cost %v", res.Best, res.Best.Cost)
	}
	if sum, err := m.ConfigurationCost(res.Best); err != nil || sum != res.Best.Cost {
		t.Fatalf("selected %v at cost %v, its cells sum to %v (%v)", res.Best, res.Best.Cost, sum, err)
	}
	return nil
}

func TestSelectRejectsUnpriceableStats(t *testing.T) {
	// Each value on a statistic and on a load of Vehicle (level 2 of
	// Figure 7). Before PR 19 NaN passed Validate's "< 0" tests, loads
	// were not validated at all, a negative Alpha was priced, and a path
	// whose every configuration cost +Inf indexed from[-1] in DPInto.
	values := []struct {
		name    string
		v       float64
		invalid bool // Validate must reject it, naming level and class
	}{
		{"NaN", math.NaN(), true},
		{"+Inf", math.Inf(1), true},
		{"-Inf", math.Inf(-1), true},
		{"negative", -5, true},
		{"1e308", 1e308, false}, // valid, but may overflow the cost model
	}
	fields := []struct {
		name string
		set  func(ps *model.PathStats, v float64)
	}{
		{"N", func(ps *model.PathStats, v float64) { ps.Levels[1].Classes[0].N = v }},
		{"D", func(ps *model.PathStats, v float64) { ps.Levels[1].Classes[0].D = v }},
		{"NIN", func(ps *model.PathStats, v float64) { ps.Levels[1].Classes[0].NIN = v }},
		{"Alpha", func(ps *model.PathStats, v float64) { ps.Levels[1].Loads[0].Alpha = v }},
		{"Beta", func(ps *model.PathStats, v float64) { ps.Levels[1].Loads[0].Beta = v }},
		{"Gamma", func(ps *model.PathStats, v float64) { ps.Levels[1].Loads[0].Gamma = v }},
		{"Rho", func(ps *model.PathStats, v float64) { ps.Levels[1].Loads[0].Rho = v }},
	}
	for _, f := range fields {
		for _, c := range values {
			ps := model.Figure7Stats()
			f.set(ps, c.v)
			err := selectOrError(t, ps)
			switch {
			case c.invalid && err == nil:
				t.Errorf("%s = %s: selected without error", f.name, c.name)
			case c.invalid && !(strings.Contains(err.Error(), "level 2") && strings.Contains(err.Error(), `"Vehicle"`)):
				t.Errorf("%s = %s: error %q does not name level 2 and class Vehicle", f.name, c.name, err)
			}
			if c.invalid && ps.Validate() == nil {
				t.Errorf("%s = %s: Validate accepted it", f.name, c.name)
			}
		}
	}
	// An overflowing load prices to +Inf: the matrix names the first such cell.
	ps := model.Figure7Stats()
	ps.Levels[0].Loads[0].Beta = 1e308
	if err := selectOrError(t, ps); err == nil || !strings.Contains(err.Error(), "subpath [1,1] Person.owns under MX") {
		t.Errorf("Beta = 1e308 on Person: error %v, want the cell [1,1] MX named", err)
	}
	if _, err := core.NewMatrixFromValues(1, nil, map[[2]int][]float64{{1, 1}: {1, math.Inf(1), 2}}); err == nil {
		t.Error("NewMatrixFromValues accepted an infinite cost")
	}
}

// FuzzSelectStats feeds arbitrary float64 statistics and loads on a path
// of 1 to 6 levels to the selector: selectOrError must hold.
func FuzzSelectStats(f *testing.F) {
	f.Add(uint8(4), 20000.0, 2000.0, 2.0, 0.3, 0.1, 0.1, 0.0, 0.0, uint8(0))
	f.Add(uint8(1), 1e308, 1e308, 1.0, 1e308, 0.0, 1e308, 0.05, 0.5, uint8(0))
	f.Add(uint8(6), 5000.0, 1.0, 1e10, 0.0, 1e300, 1e-300, 1.0, 1.0, uint8(3))
	f.Add(uint8(3), math.NaN(), 10.0, 1.0, math.Inf(1), -1.0, 0.0, 0.0, math.NaN(), uint8(1))
	f.Fuzz(func(t *testing.T, length uint8, n, d, nin, alpha, beta, gamma, rho, sel float64, at uint8) {
		levels := 1 + int(length)%6
		ps, err := experiments.ChainStats(levels, 20000, 2000, 2, model.Load{Alpha: 0.3, Beta: 0.1, Gamma: 0.1}, model.PaperParams())
		if err != nil {
			t.Fatal(err)
		}
		// The fuzzed class sits at one level; the others keep the chain's.
		ls := ps.Level(1 + int(at)%levels)
		ls.Classes[0].N, ls.Classes[0].D, ls.Classes[0].NIN = n, d, nin
		ls.Loads[0] = model.Load{Alpha: alpha, Beta: beta, Gamma: gamma, Rho: rho}
		ps.Selectivity = sel
		_ = selectOrError(t, ps)
	})
}
