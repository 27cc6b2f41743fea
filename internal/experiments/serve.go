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

// Experiment E2 — measured serving throughput. The paper (and the index
// advisors that follow it: AIM, CoPhy) argues for configurations by
// modeled page accesses; E2 closes the loop by measuring realized
// throughput: N workers drive a mixed query/update workload against the
// optimal configuration, the whole-path-NIX strawman and the unindexed
// naive evaluator, one cell per (configuration, workers). The query
// results themselves are covered by the equivalence tests; here only
// the realized cost is recorded.

// serveScale is the Figure 7 scale factor every served database uses.
const serveScale = 0.01

// wholePathNIX is the single whole-path nested index — the strawman
// Example 5.1 improves on, and the fixed configuration of the
// experiments whose subject is not selection.
func wholePathNIX(p *schema.Path) core.Configuration {
	return core.Configuration{Assignments: []core.Assignment{{A: 1, B: p.Len(), Org: cost.NIX}}}
}

// servedArm is one way E2 and E3 serve the generated database: through
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

func (s *served) insert(class string, attrs map[string][]oodb.Value) (oodb.OID, error) {
	if s.e == nil {
		return s.g.Store.Insert(class, attrs)
	}
	return s.e.Insert(class, attrs)
}

func (s *served) update(oid oodb.OID, attrs map[string][]oodb.Value) error {
	if s.e == nil {
		_, _, err := s.g.Store.Update(oid, attrs)
		return err
	}
	return s.e.Update(oid, attrs)
}

func (s *served) delete(oid oodb.OID) error {
	if s.e == nil {
		return s.g.Store.Delete(oid)
	}
	return s.e.Delete(oid)
}

// pages is the cumulative page-access count, index plus store.
func (s *served) pages() uint64 {
	n := s.g.Store.Pager().Stats().Accesses()
	if s.e != nil {
		n += s.e.IndexStats().Accesses()
	}
	return n
}

func runServe(rep *Report) error {
	rep.Workload = "60% Person query / 30% Division query / 5% insert / 5% delete"
	arms, err := servedArms(rep.Seed)
	if err != nil {
		return err
	}
	rep.Workload += "; optimal = " + arms[0].cfg.String()
	var cells []Arm
	for _, arm := range arms {
		for _, workers := range []int{1, 2, 4, 8} {
			cells = append(cells, Arm{
				Labels:  labels("config", arm.name, "workers", workers),
				Workers: workers,
				Ops:     arm.ops(rep.Ops),
				Open: func() (System, error) {
					s, err := openServed(arm, rep.Seed)
					if err != nil {
						return System{}, err
					}
					// Per-worker state: the reused result buffer and the
					// worker's own inserts awaiting deletion.
					bufs := make([][]oodb.OID, workers)
					pending := make([][]oodb.OID, workers)
					return System{Pages: s.pages, Start: each(func(w, i int) (err error) {
						v := s.g.EndValues[(w*7919+i)%len(s.g.EndValues)]
						switch {
						case i%20 == 9: // 5% inserts
							var oid oodb.OID
							if oid, err = s.insert("Division", map[string][]oodb.Value{"name": {v}}); err == nil {
								pending[w] = append(pending[w], oid)
							}
						case i%20 == 19 && len(pending[w]) > 0: // 5% deletes
							last := len(pending[w]) - 1
							err = s.delete(pending[w][last])
							pending[w] = pending[w][:last]
						case i%10 < 3: // ~30% ending-level queries
							bufs[w], err = s.query(bufs[w], v, "Division")
						default: // ~60% whole-path queries
							bufs[w], err = s.query(bufs[w], v, "Person")
						}
						return err
					})}, nil
				},
			})
		}
	}
	if err := rep.Measure(cells...); err != nil {
		return err
	}
	// The scaling curve the serving path is built for: each cell's
	// throughput relative to the same configuration at one worker.
	rep.AddRelative("speedup_vs_1_worker", func(c *Cell) *Cell {
		return rep.Cell("config", c.Label("config"), "workers", 1)
	})
	return nil
}
