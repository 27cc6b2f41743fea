package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/stats"
)

// advise: the paper's own algorithm as a service. One op is one
// core.Select — matrix build plus selection — over a pool of path
// statistics in a seeded order: Figure 7 and chain paths of length 4 to 12, five
// organizations. cost, core and stats only, no storage on the hot path:
// serving-layer changes must not move it, and it is where putting the
// polynomial selector into production will make its claim. A live engine
// beside the pool serves the advised configuration, so the pages its
// queries cost are the advice's quality.
const (
	advisePool      = 64
	adviseLiveScale = 0.1
	microN          = 10 // path length of the selector measurements
)

var adviseOrgs = []cost.Organization{cost.MX, cost.MIX, cost.NIX, cost.PX, cost.NX}

type advise struct {
	seed  int64
	pool  []*model.PathStats
	rngs  []*rand.Rand
	live  *engine.Engine
	table pathOps // the reads that price the advised configuration

	evaluated float64 // Σ evaluated/total over the counted pass
	selects   int

	// The live engine is needed by the counted pass and by the per-layer
	// metrics of a traced run, not by the timed selections. It is let go
	// before the first timed cell of an untraced run, so that the
	// collector has only the pool to scan while selections are timed:
	// with the engine's heap to mark, a cycle stalls a client for longer
	// than a selection takes and the tail measures the collector.
	traced  bool
	release sync.Once
}

// chainStats builds a synthetic chain path C1 → … → Cn with uniform
// statistics. internal/experiments has the same constructor; the
// benchmark keeps its own because that package is what this harness is
// meant to replace, and a change that deletes it must not have to edit
// the benchmark it is measured by.
func chainStats(n int, nObj, d, fan float64, load model.Load) (*model.PathStats, error) {
	s := schema.New()
	names := make([]string, n+1)
	for i := range names {
		names[i] = fmt.Sprintf("C%d", i+1)
	}
	for i := 0; i <= n; i++ {
		attrs := []schema.Attribute{{Name: "v", Kind: schema.Atomic, Domain: "string"}}
		if i < n {
			attrs = append(attrs, schema.Attribute{Name: "next", Kind: schema.Ref, Domain: names[i+1], MultiValued: fan > 1})
		}
		if err := s.AddClass(&schema.Class{Name: names[i], Attrs: attrs}); err != nil {
			return nil, err
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	attrs := make([]string, n)
	for i := range attrs {
		attrs[i] = "next"
	}
	attrs[n-1] = "v"
	p, err := schema.NewPath(s, names[0], attrs...)
	if err != nil {
		return nil, err
	}
	ps := model.NewPathStats(p, model.PaperParams())
	for l := 1; l <= n; l++ {
		nin := fan
		if l == n {
			nin = 1
		}
		if err := ps.SetClass(l, model.ClassStats{Class: names[l-1], N: nObj, D: d, NIN: nin}); err != nil {
			return nil, err
		}
		if err := ps.SetLoad(l, names[l-1], load); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// newAdvisePool is Figure 7 followed by 63 chains: each length from 4 to
// 12 in seven shapes. A selection's time depends on the statistics as much
// as on the length — at length 8 it runs from 0.3 to 1.4 ms as objects
// per distinct value go from 2 to 20 — so the shapes are a fixed grid,
// not random draws: the pool is the same for every seed, which only
// orders the ops, and the latency distribution with it.
func newAdvisePool() ([]*model.PathStats, error) {
	pool := []*model.PathStats{model.Figure7Stats()}
	for i := 1; i < advisePool; i++ {
		n, shape := 4+(i-1)%9, (i-1)/9
		nObj := float64(5000 * (1 + shape%4*3))   // 5,000 … 50,000
		d := math.Ceil(nObj / float64(2+3*shape)) // 2 … 20 objects per distinct value
		load := model.Load{Alpha: 0.05 * float64(1+shape), Beta: 0.03 * float64(7-shape), Gamma: 0.02 * float64(1+shape%3)}
		ps, err := chainStats(n, nObj, d, float64(1+shape%3), load)
		if err != nil {
			return nil, err
		}
		pool = append(pool, ps)
	}
	return pool, nil
}

func setupAdvise(p params) (instance, error) {
	pool, err := newAdvisePool()
	if err != nil {
		return nil, err
	}
	g, err := gen.Generate(model.Figure7Stats(), adviseLiveScale*p.scale, dataSeed)
	if err != nil {
		return nil, err
	}
	cfg, err := servedConfig()
	if err != nil {
		return nil, err
	}
	live, err := engine.New(g.Store, g.Path, cfg, pageSize, engineOptions())
	if err != nil {
		return nil, err
	}
	return &advise{seed: p.seed, pool: pool, rngs: clientRNGs(p.seed), live: live, table: newPathOps(g.EndValues, "Person")}, nil
}

func (x *advise) engines() []*engine.Engine {
	if x.live == nil {
		return nil
	}
	return []*engine.Engine{x.live}
}

// costPrint carries a selection's answer to the oracle: its degree and
// the bits of its cost.
func costPrint(c core.Configuration) fingerprint {
	return fingerprint{n: c.Degree(), hash: math.Float64bits(c.Cost)}
}

func (x *advise) load(client int, deadline time.Time, lat *[]int64, t *tally) {
	x.release.Do(func() {
		if !x.traced {
			x.closeLive() //nolint:errcheck // an in-memory engine has nothing to fail on
		}
	})
	rng := x.rngs[client]
	for {
		op := rng.Intn(len(x.pool))
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		res, _, err := core.Select(x.pool[op], adviseOrgs)
		*lat = append(*lat, int64(time.Since(t0)))
		if t.count(err) {
			t.samples = append(t.samples, sample{op: op, fp: costPrint(res.Best)})
		}
	}
}

// pass runs n selections, then — untraced — n whole-path reads on the
// live engine: the pages they cost are what the advised configuration is
// worth. Only the selections are timed.
func (x *advise) pass(n int, tr *tracer, t *tally) time.Duration {
	x.traced = x.traced || tr != nil
	rng := rand.New(rand.NewSource(passSeed(x.seed)))
	start := time.Now()
	for i := 0; i < n; i++ {
		op := rng.Intn(len(x.pool))
		ps := x.pool[op]
		t0 := time.Now()
		res, m, err := core.Select(ps, adviseOrgs)
		d := time.Since(t0)
		if t.count(err) {
			t.samples = append(t.samples, sample{op: op, fp: costPrint(res.Best)})
		}
		if err != nil {
			continue
		}
		if tr == nil {
			x.evaluated += float64(res.Stats.Evaluated) / float64(res.Stats.TotalConfigurations)
			x.selects++
			continue
		}
		root := tr.root(i, "core.select", t0, d, 1)
		t0 = time.Now()
		_, err = core.NewMatrixFromStats(ps, adviseOrgs)
		tr.child(root, "cost.matrix_build", time.Since(t0), 1)
		t0 = time.Now()
		m.OptIndCon()
		tr.child(root, "core.search", time.Since(t0), 1)
		if err != nil {
			t.failed++
		}
	}
	elapsed := time.Since(start)
	if tr == nil {
		var dst []oodb.OID
		for i := 0; i < n; i++ {
			op := x.table.pick(rng)
			out, err := x.table.run(x.live, op, dst)
			if x.table.ops[op].rg == nil {
				dst = out
			}
			if err != nil {
				t.failed++
			}
		}
	}
	return elapsed
}

// verify re-selects every sampled op three ways: exhaustive enumeration,
// branch and bound and the dynamic program must agree with each other and
// with the answer that was served.
func (x *advise) verify(t *tally) {
	same := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), 1) }
	for _, s := range t.samples {
		m, err := core.NewMatrixFromStats(x.pool[s.op], adviseOrgs)
		if err != nil {
			t.failed++
			continue
		}
		served := math.Float64frombits(s.fp.hash)
		ex, bb, dp := m.Exhaustive().Best.Cost, m.OptIndCon().Best.Cost, m.DP().Best.Cost
		if !same(ex, bb) || !same(ex, dp) || !same(ex, served) {
			t.failed++
		}
	}
	t.samples = t.samples[:0]
}

func (x *advise) layers(m *metricSet, tr *tracer) error {
	if x.selects > 0 {
		m.set("core.evaluated_frac", x.evaluated/float64(x.selects))
	}
	// The three selectors on one matrix of a length every one of them can
	// still enumerate.
	ps, err := chainStats(microN, 20000, 2000, 2, model.Load{Alpha: 0.3, Beta: 0.1, Gamma: 0.1})
	if err != nil {
		return err
	}
	mx, err := core.NewMatrixFromStats(ps, adviseOrgs)
	if err != nil {
		return err
	}
	var res core.Result
	m.set("core.optindcon_ns", perCallNS(2000, func(int) { mx.OptIndConInto(&res) }))
	m.set("core.dp_ns", perCallNS(20000, func(int) { mx.DPInto(&res) }))
	m.set("core.exhaustive_ns", perCallNS(200, func(int) { mx.ExhaustiveInto(&res) }))
	for _, n := range []int{4, 8, 12} {
		ps, err := chainStats(n, 20000, 2000, 2, model.Load{Alpha: 0.3, Beta: 0.1, Gamma: 0.1})
		if err != nil {
			return err
		}
		var merr error
		m.set(fmt.Sprintf("cost.matrix_build_us.n%d", n), perCallNS(20, func(int) {
			if _, err := core.NewMatrixFromStats(ps, adviseOrgs); err != nil {
				merr = err
			}
		})/1e3)
		if merr != nil {
			return merr
		}
	}
	multi, err := multiPaths()
	if err != nil {
		return err
	}
	var serr error
	m.set("core.select_multi_us", perCallNS(20, func(int) {
		if _, err := core.SelectMulti(multi, cost.Organizations); err != nil {
			serr = err
		}
	})/1e3)
	if serr != nil {
		return serr
	}

	// The live engine has the counted pass's reads on record: enough
	// traffic for a snapshot, a merge and a full Advise.
	e := x.live
	m.set("stats.snapshot_us", perCallNS(2000, func(int) { e.WorkloadSnapshot() })/1e3)
	collected, err := stats.Collect(e.Store(), e.Path(), model.PaperParams())
	if err != nil {
		return err
	}
	w := e.WorkloadSnapshot()
	var oerr error
	m.set("stats.merge_observed_us", perCallNS(2000, func(int) {
		if err := stats.MergeObserved(collected, w); err != nil {
			oerr = err
		}
	})/1e3)
	if oerr != nil {
		return oerr
	}
	var aerr error
	m.set("engine.advise_us", perCallNS(5, func(int) {
		if _, err := e.Advise(); err != nil {
			aerr = err
		}
	})/1e3)
	if aerr != nil {
		return aerr
	}
	if err := x.reconfigure(m); err != nil {
		return err
	}
	return commonLayers(m, x.engines())
}

// reconfigure times four swaps alternating the served configuration and
// whole-path MIX, which share nothing, then one swap to a configuration
// that keeps the first assignment, which must be adopted, not rebuilt.
func (x *advise) reconfigure(m *metricSet) error {
	e := x.live
	served := e.Config()
	n := e.Path().Len()
	whole := core.Configuration{Assignments: []core.Assignment{{A: 1, B: n, Org: cost.MIX}}}
	var swaps []float64
	for i := 0; i < 4; i++ {
		to := whole
		if i%2 == 1 {
			to = served
		}
		t0 := time.Now()
		if _, err := e.ApplyConfiguration(to); err != nil {
			return err
		}
		swaps = append(swaps, time.Since(t0).Seconds())
	}
	sort.Float64s(swaps)
	m.set("engine.reconfig_s", quantile(swaps, 0.5))

	if len(served.Assignments) > 1 {
		sharing := core.Configuration{Assignments: append([]core.Assignment(nil), served.Assignments...)}
		last := &sharing.Assignments[len(sharing.Assignments)-1]
		last.Org = cost.MIX
		if served.Assignments[len(served.Assignments)-1].Org == cost.MIX {
			last.Org = cost.MX
		}
		rep, err := e.ApplyConfiguration(sharing)
		if err != nil {
			return err
		}
		m.set("exec.reused_frac", float64(rep.Reused)/float64(rep.Reused+rep.Built))
		if _, err := e.ApplyConfiguration(served); err != nil {
			return err
		}
	}
	return nil
}

// multiPaths is the pair examples/multipath selects for: Figure 7's path
// and the vehicle path sharing its Company.divs.name tail.
func multiPaths() ([]*model.PathStats, error) {
	a := model.Figure7Stats()
	p, err := schema.NewPath(a.Path.Schema(), "Vehicle", "man", "divs", "name")
	if err != nil {
		return nil, err
	}
	b := model.NewPathStats(p, model.PaperParams())
	for l := 1; l <= 3; l++ {
		src := a.Level(l + 1)
		for i, cs := range src.Classes {
			if err := b.SetClass(l, cs); err != nil {
				return nil, err
			}
			if err := b.SetLoad(l, cs.Class, src.Loads[i]); err != nil {
				return nil, err
			}
		}
	}
	return []*model.PathStats{a, b}, nil
}

func (x *advise) closeLive() error {
	if x.live == nil {
		return nil
	}
	err := x.live.Close()
	x.live = nil
	return err
}

func (x *advise) close() error { return x.closeLive() }
