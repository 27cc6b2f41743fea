package experiments

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/oodb"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/shard"
)

// Experiment E6 — what the conjunctive planner buys (DESIGN.md §9.4).
//
// Part (a), probe ordering: a two-conjunct predicate pairs a highly
// selective path (R.to.name, ~2000 distinct ending values) with an
// unselective one (R.tag, ~20). The planner probes the selective
// conjunct first; the declared-worst arm probes the same two engines in
// the declared, opposite order and intersects as the planner does; the
// naive arm evaluates the predicate by store scans. The arms share one
// store, in that order: the auto arm's warm-up pass is where the planner
// observes the cardinalities it orders by.
//
// Part (b), shard pruning: per-shard disjoint ending-value pools and a
// probe stream skewed to one shard's pool. With summaries on, the other
// shards' descents are pruned by Bloom/min-max exclusion; the control
// arm walks every shard's engine and merges their runs, the fan-out
// without summaries. prune_rate is pruned descents over ops · (shards-1),
// what the unpruned fan-out would have executed for non-matching shards.

// planSchema builds the two-path E6 schema: R(tag, to→M), M(name).
func planSchema() *schema.Schema {
	s := schema.New()
	s.MustAddClass(&schema.Class{Name: "M", Attrs: []schema.Attribute{
		{Name: "name", Kind: schema.Atomic, Domain: "string"},
	}})
	s.MustAddClass(&schema.Class{Name: "R", Attrs: []schema.Attribute{
		{Name: "tag", Kind: schema.Atomic, Domain: "string"},
		{Name: "to", Kind: schema.Ref, Domain: "M"},
	}})
	if err := s.Validate(); err != nil {
		panic("experiments: plan schema invalid: " + err.Error())
	}
	return s
}

func runPlan(rep *Report) error {
	arms, err := planOrderArms(rep.Seed, rep.Ops)
	if err != nil {
		return err
	}
	if err := rep.Measure(append(arms, planPruneArms(rep.Seed, rep.Ops)...)...); err != nil {
		return err
	}
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if n, _ := strconv.Atoi(c.Label("shards")); n > 1 {
			c.Extras = append(c.Extras, Metric{"prune_rate", c.Extra("pruned") / float64(c.Ops*(n-1))})
		}
	}
	rep.AddRatio("auto_over_declared_worst", rep.Cell("arm", "planner-auto"), rep.Cell("arm", "declared-worst"))
	rep.AddRatio("pruning_over_fanout_at_8_shards",
		rep.Cell("shards", 8, "pruning", true), rep.Cell("shards", 8, "pruning", false))
	return nil
}

// planOrderArms builds part (a)'s store, indexes and planner once and
// declares its three arms over them.
func planOrderArms(seed int64, ops int) ([]Arm, error) {
	const (
		nM     = 2000 // distinct selective ending values
		nR     = 4000
		nTags  = 20 // distinct unselective values
		pageSz = 4096
	)
	rng := rand.New(rand.NewSource(seed))
	s := planSchema()
	st, err := oodb.NewStore(s, pageSz)
	if err != nil {
		return nil, err
	}
	ms := make([]oodb.OID, nM)
	for i := range ms {
		ms[i], err = st.Insert("M", map[string][]oodb.Value{
			"name": {oodb.StrV(fmt.Sprintf("name-%05d", i))},
		})
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < nR; i++ {
		_, err = st.Insert("R", map[string][]oodb.Value{
			"tag": {oodb.StrV(fmt.Sprintf("tag-%02d", rng.Intn(nTags)))},
			"to":  {oodb.RefV(ms[rng.Intn(nM)])},
		})
		if err != nil {
			return nil, err
		}
	}
	pName, err := schema.NewPath(s, "R", "to", "name")
	if err != nil {
		return nil, err
	}
	pTag, err := schema.NewPath(s, "R", "tag")
	if err != nil {
		return nil, err
	}
	pl := plan.NewPlanner(st)
	var execs []*engine.Engine
	for _, p := range []*schema.Path{pName, pTag} {
		c, err := engine.New(st, p, wholePathNIX(p), pageSz, engine.Options{})
		if err != nil {
			return nil, err
		}
		if err := pl.Register(p, c, nil); err != nil {
			return nil, err
		}
		execs = append(execs, c)
	}
	nameEx, tagEx := execs[0], execs[1]
	// The conjunction, deliberately declared unselective-first: the
	// declared-order arm pays the worst fixed order, the auto arm must
	// discover the better one from observed cardinalities.
	tag := func(i int) oodb.Value { return oodb.StrV(fmt.Sprintf("tag-%02d", i%nTags)) }
	name := func(i int) oodb.Value { return oodb.StrV(fmt.Sprintf("name-%05d", i%nM)) }
	pred := func(i int) plan.Predicate {
		return plan.And(plan.Eq(pTag, tag(i)), plan.Eq(pName, name(i)))
	}
	pages := func() uint64 {
		t := st.Pager().Stats().Accesses()
		for _, c := range execs {
			t += c.IndexStats().Accesses()
		}
		return t
	}
	arm := func(name string, ops int, run func(i int) ([]oodb.OID, error)) Arm {
		matches := 0
		return Arm{Labels: labels("part", "ordering", "arm", name), Ops: ops, Open: func() (System, error) {
			return System{
				Start: each(func(_, i int) error {
					r, err := run(i)
					matches = len(r)
					return err
				}),
				Pages:  pages,
				Gauges: func() []Metric { return []Metric{{"matches_last", float64(matches)}} },
			}, nil
		}}
	}
	return []Arm{
		arm("planner-auto", ops, func(i int) ([]oodb.OID, error) { return pl.Query(pred(i), "R", false) }),
		arm("declared-worst", ops, func(i int) ([]oodb.OID, error) {
			cur, err := tagEx.Query(tag(i), "R", false)
			if err != nil || len(cur) == 0 {
				return cur, err
			}
			r, err := nameEx.Query(name(i), "R", false)
			if err != nil {
				return nil, err
			}
			return exec.IntersectSortedOIDs(cur[:0], cur, r), nil
		}),
		// The naive arm re-navigates the store per query; its ops are
		// capped to keep E6 smoke-runnable.
		arm("naive-scan", min(ops, 200), func(i int) ([]oodb.OID, error) {
			return plan.NaiveEval(st, pred(i), "R", false)
		}),
	}, nil
}

func planPruneArms(seed int64, ops int) []Arm {
	const (
		treesPerShard = 24
		pageSz        = 1024
	)
	s := schema.PaperSchema()
	p := schema.PaperPathOwnsManName()
	var arms []Arm
	for _, nShards := range []int{1, 4, 8} {
		for _, pruning := range []bool{true, false} {
			arms = append(arms, Arm{
				Labels: labels("part", "shard-pruning", "shards", nShards, "pruning", pruning),
				Ops:    ops,
				Open: func() (System, error) {
					db, err := shard.New(s, p, wholePathNIX(p), pageSz, nShards, shard.Options{})
					if err != nil {
						return System{}, err
					}
					// Disjoint per-shard ending-value pools: shard i's companies
					// are named from pool i only.
					for i := 0; i < nShards; i++ {
						for t := 0; t < treesPerShard; t++ {
							co, err := db.InsertAt(i, "Company", map[string][]oodb.Value{
								"name": {oodb.StrV(fmt.Sprintf("pool%02d-co%03d", i, t))},
							})
							if err != nil {
								return System{}, err
							}
							car, err := db.Insert("Vehicle", map[string][]oodb.Value{"man": {oodb.RefV(co)}})
							if err != nil {
								return System{}, err
							}
							if _, err := db.Insert("Person", map[string][]oodb.Value{"owns": {oodb.RefV(car)}}); err != nil {
								return System{}, err
							}
						}
					}
					query, counters := func(v oodb.Value) error {
						_, err := db.Query(v, "Person", false)
						return err
					}, db.PruneCounters
					if !pruning {
						// The control fans out to every shard's engine and
						// merges their disjoint runs, as if no summary existed.
						var descents uint64
						query = func(v oodb.Value) error {
							runs := make([][]oodb.OID, nShards)
							for i := range runs {
								var err error
								if runs[i], err = db.Shard(i).Query(v, "Person", false); err != nil {
									return err
								}
								descents++
							}
							exec.MergeKSortedOIDs(nil, runs...)
							return nil
						}
						counters = func() (uint64, uint64) { return descents, 0 }
					}
					// Skewed probe stream: every lookup is for shard 0's pool.
					rng := rand.New(rand.NewSource(seed))
					return System{
						Start: each(func(_, _ int) error {
							return query(oodb.StrV(fmt.Sprintf("pool%02d-co%03d", 0, rng.Intn(treesPerShard))))
						}),
						Counters: func() []Metric {
							probed, pruned := counters()
							return []Metric{{"descents", float64(probed)}, {"pruned", float64(pruned)}}
						},
					}, nil
				},
			})
		}
	}
	return arms
}
