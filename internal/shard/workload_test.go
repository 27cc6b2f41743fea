package shard_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/stats"
)

// plannerTraffic opens an n-shard database whose shards assume a
// Person-query workload, populates it, and serves a mix of equality and
// range leaves through a planner that uses the database as its source.
// It returns the database, the assumed baseline and the planner.
func plannerTraffic(t *testing.T, n int) (*shard.DB, *model.PathStats, *plan.Planner) {
	t.Helper()
	s := schema.PaperSchema()
	p := schema.PaperPathOwnsManName()
	base := model.NewPathStats(p, model.PaperParams())
	if err := base.SetLoad(1, "Person", model.Load{Alpha: 1}); err != nil {
		t.Fatal(err)
	}
	db, err := shard.New(s, p, wholeNIX(p.Len()), 1024, n, shard.Options{
		Engine: engine.Options{Params: model.PaperParams(), Assumed: base, MinOps: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	values := populate(t, db)
	pl := plan.NewPlanner(nil)
	if err := pl.Register(p, db, nil); err != nil {
		t.Fatal(err)
	}
	// The range spans every shard's values, so every shard serves it; the
	// equality leaf is pruned to the shard holding its value.
	every := plan.Range(p, oodb.StrV("maker-"), oodb.StrV("maker-~"))
	for i := 0; i < 12; i++ {
		pred := every
		if i%3 == 0 {
			pred = plan.Eq(p, values[i%n])
		}
		if _, err := pl.Query(pred, "Person", false); err != nil {
			t.Fatal(err)
		}
	}
	return db, base, pl
}

// TestPlannerLeavesReachEveryShard: with the sharded database as a
// planner source, every leaf the planner forwards is recorded on every
// shard's engine, and each shard's drift counts it — the range leaves
// reclassify the shard's recorded queries as range probes.
func TestPlannerLeavesReachEveryShard(t *testing.T) {
	db, base, pl := plannerTraffic(t, 3)
	want := pl.Predicates()
	dv := db.Drift()
	for i := 0; i < db.NumShards(); i++ {
		w := db.Shard(i).WorkloadSnapshot()
		if !reflect.DeepEqual(w.Predicates, want) {
			t.Fatalf("shard %d predicate mix %+v, want the planner's %+v", i, w.Predicates, want)
		}
		classOnly := w
		classOnly.Predicates = nil
		d := db.Shard(i).Drift()
		if d != stats.LoadDrift(base, w) || d == stats.LoadDrift(base, classOnly) {
			t.Fatalf("shard %d drift %g ignores the mix (with it %g, without %g)",
				i, d, stats.LoadDrift(base, w), stats.LoadDrift(base, classOnly))
		}
		if dv.PerShard[i] != d {
			t.Fatalf("drift view shard %d = %g, engine %g", i, dv.PerShard[i], d)
		}
	}
}

// TestAdviseCountsThePlannerMix: DB.Advise is each shard's own Advise,
// and each one selects on the shard's class counters plus the planner's
// mix — exactly what an offline MergeObserved of the shard's workload
// snapshot and core.Select give — and reports the drift that mix implies.
func TestAdviseCountsThePlannerMix(t *testing.T) {
	db, _, _ := plannerTraffic(t, 2)
	advs, err := db.Advise()
	if err != nil {
		t.Fatal(err)
	}
	for i, adv := range advs {
		e := db.Shard(i)
		ps, err := stats.Collect(db.Store(i), db.Path(), model.PaperParams())
		if err != nil {
			t.Fatal(err)
		}
		if err := stats.MergeObserved(ps, e.WorkloadSnapshot()); err != nil {
			t.Fatal(err)
		}
		res, _, err := core.Select(ps, cost.Organizations)
		if err != nil {
			t.Fatal(err)
		}
		if !adv.Config.Equal(res.Best) || !reflect.DeepEqual(adv.Stats, ps) {
			t.Fatalf("shard %d advice %v on %+v, offline %v on %+v", i, adv.Config, adv.Stats.Levels, res.Best, ps.Levels)
		}
		if adv.Drift != e.Drift() || adv.Drift == 0 {
			t.Fatalf("shard %d advice drift %g, engine drift %g", i, adv.Drift, e.Drift())
		}
	}
}
