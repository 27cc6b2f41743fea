// Benchmarks regenerating every figure and table of the paper's evaluation
// (see DESIGN.md §6 for the experiment index). Each benchmark prints the
// paper-relevant metrics once via b.Log when run with -v; the benchmark
// timings themselves measure the cost of the reproduction machinery.
//
//	go test -bench=. -benchmem
package ooindex

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/oodb"
)

// BenchmarkFig6Selection regenerates Figure 6's walkthrough: the
// branch-and-bound selection over the hypothetical matrix.
func BenchmarkFig6Selection(b *testing.B) {
	m := core.Figure6Matrix()
	var r core.Result
	for i := 0; i < b.N; i++ {
		r = m.OptIndCon()
	}
	b.ReportMetric(float64(r.Stats.Evaluated), "configs-evaluated")
	b.ReportMetric(r.Best.Cost, "optimal-cost")
}

// BenchmarkFig8Matrix regenerates Figure 8: the full cost matrix from the
// Figure 7 statistics plus the optimal configuration of Example 5.1.
func BenchmarkFig8Matrix(b *testing.B) {
	var rep experiments.Fig8Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = experiments.RunFig8()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Result.Best.Cost, "optimal-cost")
	b.ReportMetric(rep.WholePathNIX, "whole-path-NIX")
	b.ReportMetric(rep.ImprovementFactor, "improvement-factor")
	b.ReportMetric(float64(rep.Result.Stats.Evaluated), "configs-evaluated")
}

// selectionLengths are the path lengths of the Section 5 complexity
// comparison (experiment C1). 20 is the longest length at which the
// exhaustive baseline (2^19 recombinations) still finishes in seconds.
var selectionLengths = []int{4, 8, 12, 16, 20}

// BenchmarkSelectionBnB / Exhaustive / DP regenerate the Section 5
// complexity comparison (experiment C1) over a fixed, pre-built matrix.
// The Into variants reuse the result buffer, so with the dense matrix the
// search loops run with 0 allocs/op (checked by -benchmem).
func benchSelection(b *testing.B, n int, run func(*core.Matrix, *core.Result)) {
	ps, err := experiments.ChainStats(n, 20000, 2000, 2,
		model.Load{Alpha: 0.3, Beta: 0.1, Gamma: 0.1}, model.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewMatrixFromStats(ps, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var r core.Result
	for i := 0; i < b.N; i++ {
		run(m, &r)
	}
	b.ReportMetric(float64(r.Stats.Evaluated), "configs-evaluated")
}

func BenchmarkSelectionBnB(b *testing.B) {
	for _, n := range selectionLengths {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchSelection(b, n, (*core.Matrix).OptIndConInto)
		})
	}
}

func BenchmarkSelectionExhaustive(b *testing.B) {
	for _, n := range selectionLengths {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchSelection(b, n, (*core.Matrix).ExhaustiveInto)
		})
	}
}

func BenchmarkSelectionDP(b *testing.B) {
	for _, n := range selectionLengths {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchSelection(b, n, (*core.Matrix).DPInto)
		})
	}
}

// BenchmarkCostMatrix measures Cost_Matrix construction alone (the
// dominant term the paper's complexity discussion identifies for
// practical path lengths), on Figure 7 and on longer chains.
func BenchmarkCostMatrix(b *testing.B) {
	b.Run("fig7", func(b *testing.B) {
		ps := model.Figure7Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.NewMatrixFromStats(ps, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{8, 16} {
		b.Run(fmt.Sprintf("chain-n=%d", n), func(b *testing.B) {
			ps, err := experiments.ChainStats(n, 20000, 2000, 2,
				model.Load{Alpha: 0.3, Beta: 0.1, Gamma: 0.1}, model.PaperParams())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewMatrixFromStats(ps, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkValidation regenerates experiment V1 (analytic vs measured).
func BenchmarkValidation(b *testing.B) {
	var rep experiments.ValidationReport
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = experiments.RunValidation(42)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rep.Rows {
		op := strings.ReplaceAll(row.Operation, " ", "-")
		b.ReportMetric(row.Ratio, row.Org.String()+"/"+op+"/ratio")
	}
}

// BenchmarkWorkloadSweep regenerates experiment W1.
func BenchmarkWorkloadSweep(b *testing.B) {
	lambdas := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunWorkloadSweep(lambdas); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathLengthSweep regenerates experiment S1.
func BenchmarkPathLengthSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunShapeSweep(8); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDB builds a small physical database with one configuration for the
// index-operation benchmarks.
func benchDB(b *testing.B, cfg core.Configuration) (*gen.Generated, *Database) {
	b.Helper()
	ps := Figure7Stats()
	g, err := gen.Generate(ps, 0.002, 42)
	if err != nil {
		b.Fatal(err)
	}
	db, err := Open(g.Store, g.Path, cfg, ps.Params.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	db.ResetStats() // exclude bulk-load accesses from per-op metrics
	g.Store.Pager().ResetStats()
	return g, db
}

// BenchmarkQueryIndexed measures point queries through the Example 5.1
// optimal configuration on a materialized database.
func BenchmarkQueryIndexed(b *testing.B) {
	cfg := core.Configuration{Assignments: []core.Assignment{
		{A: 1, B: 2, Org: NIX}, {A: 3, B: 4, Org: MX},
	}}
	g, db := benchDB(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(g.EndValues[i%len(g.EndValues)], "Person", false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(db.IndexStats().Accesses())/float64(b.N), "page-accesses/op")
}

// BenchmarkQueryNaive measures the same queries by forward navigation.
func BenchmarkQueryNaive(b *testing.B) {
	ps := Figure7Stats()
	g, err := gen.Generate(ps, 0.002, 42)
	if err != nil {
		b.Fatal(err)
	}
	g.Store.Pager().ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.NaiveQuery(g.Store, g.Path, g.EndValues[i%len(g.EndValues)], "Person", false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(g.Store.Pager().Stats().Accesses())/float64(b.N), "page-accesses/op")
}

// BenchmarkMaintenance measures maintenance through each whole-path
// organization: insert+delete round-trips of a Person, and in-place
// re-links of the existing ones to another vehicle — the update a write
// workload is mostly made of.
func BenchmarkMaintenance(b *testing.B) {
	ops := []struct {
		name string
		run  func(g *gen.Generated, db *Database, i int) error
	}{
		{"insert+delete", func(g *gen.Generated, db *Database, i int) error {
			veh := g.ByClass["Vehicle"]
			oid, err := db.Insert("Person", map[string][]Value{"owns": {RefV(veh[i%len(veh)])}})
			if err != nil {
				return err
			}
			return db.Delete(oid)
		}},
		{"update", func(g *gen.Generated, db *Database, i int) error {
			veh, per := g.ByClass["Vehicle"], g.ByClass["Person"]
			return db.Update(per[i%len(per)], map[string][]Value{"owns": {RefV(veh[(i+i/len(per))%len(veh)])}})
		}},
	}
	for _, org := range Organizations {
		b.Run(org.String(), func(b *testing.B) {
			for _, op := range ops {
				b.Run(op.name, func(b *testing.B) {
					cfg := core.Configuration{Assignments: []core.Assignment{{A: 1, B: 4, Org: org}}}
					g, db := benchDB(b, cfg)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := op.run(g, db, i); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					b.ReportMetric(float64(db.IndexStats().Accesses())/float64(b.N), "page-accesses/op")
				})
			}
		})
	}
}

// BenchmarkSelectMulti measures selection over several paths: a plain loop
// on the calling goroutine, one matrix per path kept for the sharing merge.
// No caller passes more than two paths; the 8- and 64-path cells record what
// the deleted fan-out was worth there (DESIGN.md §2).
func BenchmarkSelectMulti(b *testing.B) {
	for _, paths := range []int{1, 2, 8, 64} {
		b.Run(fmt.Sprintf("paths=%d", paths), func(b *testing.B) {
			pss := make([]*PathStats, paths)
			for i := range pss {
				pss[i] = Figure7Stats()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SelectMulti(pss, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(paths)/float64(b.Elapsed().Seconds())*float64(b.N), "paths/sec")
		})
	}
}

// BenchmarkExtendedSelection regenerates experiment X1 (PX/NX/NONE columns).
func BenchmarkExtendedSelection(b *testing.B) {
	var rep experiments.ExtendedReport
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = experiments.RunExtended()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Result.Best.Cost, "extended-optimal-cost")
	b.ReportMetric(rep.Baseline.Best.Cost, "baseline-optimal-cost")
}

// BenchmarkSelectivitySweep regenerates experiment R1 (range predicates).
func BenchmarkSelectivitySweep(b *testing.B) {
	sels := []float64{0, 0.001, 0.01, 0.05, 0.2}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSelectivitySweep(sels); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBufferAblation regenerates experiment B1 (buffer pool).
func BenchmarkBufferAblation(b *testing.B) {
	var rep experiments.BufferReport
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = experiments.RunBufferAblation(2000, 5000, []int{0, 16, 64})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Points[len(rep.Points)-1].HitRate, "hit-rate-64")
}

// BenchmarkQueryRangeIndexed measures range queries through a working
// configuration (experiment R1's physical counterpart).
func BenchmarkQueryRangeIndexed(b *testing.B) {
	cfg := core.Configuration{Assignments: []core.Assignment{
		{A: 1, B: 2, Org: NIX}, {A: 3, B: 4, Org: MX},
	}}
	g, db := benchDB(b, cfg)
	lo, hi := g.EndValues[0], g.EndValues[len(g.EndValues)/2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.QueryRange(lo, hi, "Person", false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(db.IndexStats().Accesses())/float64(b.N), "page-accesses/op")
}

// BenchmarkServe measures the serving path under concurrency (experiment
// E2's microbenchmark): g goroutines drive steady-state point queries
// through the lifecycle engine on the Example 5.1 optimal configuration,
// each with a reused result buffer, so the per-op report shows 0 allocs
// and the ops/sec metric exposes the 1→8 goroutine scaling curve. Reads
// are lock-free end to end (atomic set snapshot, sync.Map page table,
// striped counters), so on a multi-core host throughput scales near-
// linearly with GOMAXPROCS.
func BenchmarkServe(b *testing.B) {
	ps := Figure7Stats()
	g, err := gen.Generate(ps, 0.01, 42)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Configuration{Assignments: []core.Assignment{
		{A: 1, B: 2, Org: NIX}, {A: 3, B: 4, Org: MX},
	}}
	db, err := Open(g.Store, g.Path, cfg, ps.Params.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				n := b.N / workers
				if w < b.N%workers {
					n++
				}
				wg.Add(1)
				go func(w, n int) {
					defer wg.Done()
					var buf []oodb.OID
					var err error
					for i := 0; i < n; i++ {
						v := g.EndValues[(w*7919+i)%len(g.EndValues)]
						if buf, err = db.QueryInto(buf[:0], v, "Person", false); err != nil {
							b.Error(err)
							return
						}
					}
				}(w, n)
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
		})
	}
}

// BenchmarkReconfigure measures one online configuration swap (experiment
// E1's hot path): the engine diff-builds the changed tail of the
// configuration — the shared (1-2, NIX) head is reused, not rebuilt — and
// atomically swaps the index set.
func BenchmarkReconfigure(b *testing.B) {
	ps := Figure7Stats()
	g, err := gen.Generate(ps, 0.002, 42)
	if err != nil {
		b.Fatal(err)
	}
	cfgA := core.Configuration{Assignments: []core.Assignment{
		{A: 1, B: 2, Org: NIX}, {A: 3, B: 4, Org: MX},
	}}
	cfgB := core.Configuration{Assignments: []core.Assignment{
		{A: 1, B: 2, Org: NIX}, {A: 3, B: 3, Org: MX}, {A: 4, B: 4, Org: MX},
	}}
	db, err := Open(g.Store, g.Path, cfgA, ps.Params.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	var reused, built int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := cfgB
		if i%2 == 1 {
			next = cfgA
		}
		rep, err := db.ApplyConfiguration(next)
		if err != nil {
			b.Fatal(err)
		}
		reused += rep.Reused
		built += rep.Built
	}
	b.StopTimer()
	b.ReportMetric(float64(reused)/float64(b.N), "structures-reused/op")
	b.ReportMetric(float64(built)/float64(b.N), "structures-built/op")
}
