package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/model"
)

// poolOrgs are the columns the benchmark's advise workload selects over.
var poolOrgs = []cost.Organization{cost.MX, cost.MIX, cost.NIX, cost.PX, cost.NX}

// advisePool is a copy of the 64-shape pool of the benchmark's advise
// workload (benchmark/advise.go): Figure 7, then chains of length 4 to 12
// in seven shapes each.
func advisePool(tb testing.TB) []*model.PathStats {
	tb.Helper()
	pool := []*model.PathStats{model.Figure7Stats()}
	for i := 1; i < 64; i++ {
		n, shape := 4+(i-1)%9, (i-1)/9
		nObj := float64(5000 * (1 + shape%4*3))
		d := math.Ceil(nObj / float64(2+3*shape))
		load := model.Load{Alpha: 0.05 * float64(1+shape), Beta: 0.03 * float64(7-shape), Gamma: 0.02 * float64(1+shape%3)}
		ps, err := experiments.ChainStats(n, nObj, d, float64(1+shape%3), load, model.PaperParams())
		if err != nil {
			tb.Fatal(err)
		}
		pool = append(pool, ps)
	}
	return pool
}

// BenchmarkSelectPool is one core.Select per op — the benchmark's advise
// op without its harness — round-robin over the whole advise pool, on
// Figure 7 alone, and over the pool's seven chains of one length.
func BenchmarkSelectPool(b *testing.B) {
	pool := advisePool(b)
	ofLength := func(n int) []*model.PathStats {
		var out []*model.PathStats
		for _, ps := range pool[1:] {
			if ps.Len() == n {
				out = append(out, ps)
			}
		}
		return out
	}
	for _, bc := range []struct {
		name  string
		paths []*model.PathStats
	}{
		{"round-robin", pool},
		{"fig7", pool[:1]},
		{"chain-n=4", ofLength(4)},
		{"chain-n=8", ofLength(8)},
		{"chain-n=12", ofLength(12)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Select(bc.paths[i%len(bc.paths)], poolOrgs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
