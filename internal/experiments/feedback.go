package experiments

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/stats"
)

// Experiment E9 — what closing the observe -> select loop buys.
//
// Both arms serve the same database and the same skewed mix: whole-path
// equality probes against the hot end values, with a residual predicate
// stream alongside (planner conjunct leaves answered by navigation).
// The static arm runs the configuration selected from the design-time
// assumption — an update-heavy, mid-path-query workload that never
// materializes — for the whole run. The workload-fed arm starts from
// that same configuration, drives the mix once while the engine records
// it, asks Advise for a workload-weighted selection (the recorded class
// counters and predicate mix re-derive the load triplets, see
// stats.MergeObserved), applies it, and then serves the measured run.
// Operations per second and pages per operation (index plus store)
// quantify what the feedback loop recovered from the wrong assumption;
// each cell's config label is the configuration it served on.

// feedbackAssumption is the design-time workload assumption E9 plants:
// update-heavy everywhere, query traffic concentrated mid-path, almost
// none at the path's root — so selection under it avoids a whole-path
// structure. The served mix contradicts it on every count.
func feedbackAssumption() *model.PathStats {
	ps := model.Figure7Stats().Clone()
	for l := 1; l <= ps.Len(); l++ {
		ls := ps.Level(l)
		for x := range ls.Loads {
			switch l {
			case 1:
				ls.Loads[x] = model.Load{Alpha: 0.02, Beta: 0.6, Gamma: 0.6}
			case 2, 3:
				ls.Loads[x] = model.Load{Alpha: 0.5, Beta: 0.4, Gamma: 0.4}
			default:
				ls.Loads[x] = model.Load{Alpha: 0.05, Beta: 0.5, Gamma: 0.5}
			}
		}
	}
	return ps
}

// feedbackOp is the i-th operation of the skewed read-only mix: a
// whole-path equality probe at the root class for one of the 32 hot end
// values; when recording, each probe lands in the predicate channel and
// every fourth operation also reports a residual conjunct leaf.
func feedbackOp(e *engine.Engine, g *gen.Generated, i int, record bool) error {
	values := g.EndValues[:min(len(g.EndValues), 32)]
	if _, err := e.Query(values[i%len(values)], "Person", false); err != nil {
		return err
	}
	if record {
		e.RecordPredicate(e.Path().String(), stats.PredEq)
		if i%4 == 0 {
			e.RecordPredicate(e.Path().String(), stats.PredResidual)
		}
	}
	return nil
}

func runFeedback(rep *Report) error {
	assumed := feedbackAssumption()
	designed, _, err := core.Select(assumed, nil)
	if err != nil {
		return err
	}
	// A fresh identically-seeded database per arm, so neither arm serves
	// pages the other warmed, both starting on the design-time selection.
	newArmEngine := func() (*engine.Engine, *gen.Generated, error) {
		g, err := gen.Generate(model.Figure7Stats(), serveScale, rep.Seed)
		if err != nil {
			return nil, nil, err
		}
		e, err := engine.New(g.Store, g.Path, designed.Best, assumed.Params.PageSize, engine.Options{
			MinOps:  1,
			Assumed: assumed,
		})
		return e, g, err
	}
	serve := func(name string, e *engine.Engine, g *gen.Generated) error {
		return rep.Measure(Arm{
			Labels: labels("arm", name, "config", e.Config()),
			Ops:    rep.Ops,
			Open: func() (System, error) {
				return System{
					Start: each(func(_, i int) error { return feedbackOp(e, g, i, false) }),
					Pages: func() uint64 { return g.Store.Pager().Stats().Accesses() + e.IndexStats().Accesses() },
				}, nil
			},
		})
	}

	// Static arm: the design-time selection serves the whole run.
	e, g, err := newArmEngine()
	if err != nil {
		return err
	}
	if err := serve("static", e, g); err != nil {
		return err
	}

	// Workload-fed arm: observe the mix, take the weighted advice, apply
	// it, then serve the measured run on what the loop selected.
	if e, g, err = newArmEngine(); err != nil {
		return err
	}
	for i := 0; i < rep.Ops/4; i++ {
		if err := feedbackOp(e, g, i, true); err != nil {
			return err
		}
	}
	adv, err := e.Advise()
	if err != nil {
		return err
	}
	if _, err := e.ApplyConfiguration(adv.Config); err != nil {
		return err
	}
	if err := serve("workload-fed", e, g); err != nil {
		return err
	}

	static, fed := rep.Cell("arm", "static"), rep.Cell("arm", "workload-fed")
	rep.AddRatio("fed_over_static", fed, static)
	// drift_at_advice is the total-variation distance between the
	// design-time assumption and the recorded mix.
	rep.Ratios = append(rep.Ratios, Ratio{Name: "page_saving", Value: 1 - fed.PagesPerOp/static.PagesPerOp},
		Ratio{Name: "drift_at_advice", Value: adv.Drift})
	return nil
}
