package main

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/oodb"
)

// embed_path: embedded whole-path queries for "Person", 90 % point and
// 10 % range at selectivity 0.05, in-memory pagers, no socket. exec,
// index and btree do all the work: the mirror image of net_point, and the
// case of a dataset that fits in memory.
const (
	embedPathScale  = 0.1
	rangeSelect     = 0.05
	rangeShareOf100 = 10
)

// pathOps is the op table of whole-path reads over one generated
// dataset: every ending value as a point query, then every window of
// rangeSelect of the sorted domain as a range query.
type pathOps struct {
	ops    []queryOp
	points int // ops[:points] are the point queries
}

func newPathOps(endValues []oodb.Value, target string) pathOps {
	vals := append([]oodb.Value(nil), endValues...)
	sort.Slice(vals, func(i, j int) bool { return vals[i].Compare(vals[j]) < 0 })
	var t pathOps
	for _, v := range vals {
		t.ops = append(t.ops, queryOp{v: v, target: target})
	}
	t.points = len(t.ops)
	width := max(int(rangeSelect*float64(len(vals))), 1)
	for lo := 0; lo+width < len(vals); lo++ {
		t.ops = append(t.ops, queryOp{rg: &rangeOf{lo: vals[lo], hi: vals[lo+width]}, target: target})
	}
	return t
}

// pick draws a point query nine times in ten, else a range query.
func (t pathOps) pick(rng *rand.Rand) int {
	if t.points == len(t.ops) || rng.Intn(100) >= rangeShareOf100 {
		return rng.Intn(t.points)
	}
	return t.points + rng.Intn(len(t.ops)-t.points)
}

// run executes one op of the table against the engine; dst is reused by
// point queries.
func (t pathOps) run(e *engine.Engine, op int, dst []oodb.OID) ([]oodb.OID, error) {
	o := t.ops[op]
	if o.rg != nil {
		return e.QueryRange(o.rg.lo, o.rg.hi, o.target, o.hier)
	}
	return e.QueryInto(dst[:0], o.v, o.target, o.hier)
}

type embedPath struct {
	seed   int64
	e      *engine.Engine
	table  pathOps
	rngs   []*rand.Rand
	oracle *oracle
	replay *queryReplay
	points pointPages
}

func setupEmbedPath(p params) (instance, error) {
	g, err := gen.Generate(model.Figure7Stats(), embedPathScale*p.scale, dataSeed)
	if err != nil {
		return nil, err
	}
	cfg, err := servedConfig()
	if err != nil {
		return nil, err
	}
	e, err := engine.New(g.Store, g.Path, cfg, pageSize, engineOptions())
	if err != nil {
		return nil, err
	}
	x := &embedPath{seed: p.seed, e: e, table: newPathOps(g.EndValues, "Person"), rngs: clientRNGs(p.seed), replay: newQueryReplay(e)}
	x.oracle = newOracle(func(op int) ([]oodb.OID, error) { return x.table.ops[op].naive(e) })
	return x, nil
}

func (x *embedPath) engines() []*engine.Engine { return []*engine.Engine{x.e} }

func (x *embedPath) load(client int, deadline time.Time, lat *[]int64, t *tally) {
	var dst []oodb.OID
	syncLoad(deadline, x.rngs[client], lat, t, x.table.pick, func(op int) ([]oodb.OID, error) {
		out, err := x.table.run(x.e, op, dst)
		if x.table.ops[op].rg == nil {
			dst = out
		}
		return out, err
	})
}

func (x *embedPath) pass(n int, tr *tracer, t *tally) time.Duration {
	rng := rand.New(rand.NewSource(passSeed(x.seed)))
	var dst []oodb.OID
	start := time.Now()
	for i := 0; i < n; i++ {
		op := x.table.pick(rng)
		o := x.table.ops[op]
		if tr != nil {
			oids, err := x.replay.query(tr, 0, i, o.v, o.rg, o.target, o.hier)
			t.done(op, oids, err)
			continue
		}
		before := x.e.IndexStats().Reads
		oids, err := x.table.run(x.e, op, dst)
		if o.rg == nil {
			dst = oids
			x.points.ops++
			x.points.pages += x.e.IndexStats().Reads - before
		}
		t.done(op, oids, err)
	}
	return time.Since(start)
}

func (x *embedPath) verify(t *tally) { x.oracle.check(t) }

func (x *embedPath) layers(m *metricSet, tr *tracer) error {
	lookupMetrics(m, tr, x.replay)
	if err := x.points.modelMetrics(m, x.e, "Person"); err != nil {
		return err
	}
	return commonLayers(m, x.engines())
}

func (x *embedPath) close() error { return x.e.Close() }
