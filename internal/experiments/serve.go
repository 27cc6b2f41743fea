package experiments

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/stats"
)

// The served database of E3: the Figure 7 generator at a fixed scale
// behind one of three arms — the configuration selected for it, the
// whole-path-NIX strawman and the unindexed naive evaluator. Serving
// throughput under concurrency is measured by the benchmark's
// embed_path workload (DESIGN.md §6).

// serveScale is the Figure 7 scale factor every served database uses.
const serveScale = 0.01

// wholePathNIX is the single whole-path nested index — the strawman
// Example 5.1 improves on, and the fixed configuration of the
// experiments whose subject is not selection.
func wholePathNIX(p *schema.Path) core.Configuration {
	return core.Configuration{Assignments: []core.Assignment{{A: 1, B: p.Len(), Org: cost.NIX}}}
}

// servedArm is one way E3 serves the generated database: through
// an engine on cfg, or — cfg nil — by the unindexed naive evaluator.
type servedArm struct {
	name string
	cfg  *core.Configuration
}

// servedArms returns the three arms, selecting "optimal" over the
// store's collected statistics under the paper's Example 5.1 workload
// (for which the optimum is a split configuration, not the whole-path
// NIX).
func servedArms(seed int64) ([]servedArm, error) {
	g, err := gen.Generate(model.Figure7Stats(), serveScale, seed)
	if err != nil {
		return nil, err
	}
	ps, err := stats.Collect(g.Store, g.Path, model.PaperParams())
	if err != nil {
		return nil, err
	}
	assumed := model.Figure7Stats()
	for l := 1; l <= ps.Len(); l++ {
		copy(ps.Level(l).Loads, assumed.Level(l).Loads)
	}
	res, _, err := core.Select(ps, cost.Organizations)
	if err != nil {
		return nil, err
	}
	nix := wholePathNIX(g.Path)
	return []servedArm{{"optimal", &res.Best}, {"whole-path-NIX", &nix}, {"naive", nil}}, nil
}

// served is a freshly generated database (same seed, so identical
// contents in every cell) behind one servedArm; e is nil for naive.
type served struct {
	g *gen.Generated
	e *engine.Engine
}

func openServed(arm servedArm, seed int64) (*served, error) {
	g, err := gen.Generate(model.Figure7Stats(), serveScale, seed)
	if err != nil || arm.cfg == nil {
		return &served{g: g}, err
	}
	e, err := engine.New(g.Store, g.Path, *arm.cfg, model.PaperParams().PageSize,
		engine.Options{Assumed: model.Figure7Stats()})
	return &served{g: g, e: e}, err
}

// ops trims an operation count for the naive arm, which navigates the
// object graph per query and is orders of magnitude slower.
func (a servedArm) ops(ops int) int {
	if a.cfg == nil {
		return ops / 20
	}
	return ops
}

func (s *served) query(buf []oodb.OID, v oodb.Value, class string) ([]oodb.OID, error) {
	if s.e == nil {
		return exec.NaiveQuery(s.g.Store, s.g.Path, v, class, false)
	}
	return s.e.QueryInto(buf[:0], v, class, false)
}

func (s *served) update(oid oodb.OID, attrs map[string][]oodb.Value) error {
	if s.e == nil {
		_, _, err := s.g.Store.Update(oid, attrs)
		return err
	}
	return s.e.Update(oid, attrs)
}

// pages is the cumulative page-access count, index plus store.
func (s *served) pages() uint64 {
	n := s.g.Store.Pager().Stats().Accesses()
	if s.e != nil {
		n += s.e.IndexStats().Accesses()
	}
	return n
}
