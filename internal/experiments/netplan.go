package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/netclient"
	"repro/internal/netserver"
	"repro/internal/oodb"
	"repro/internal/plan"
	"repro/internal/wire"
)

// Experiment E8 — planning over the wire (DESIGN.md §11.4). Shipping a
// predicate tree instead of its probes keeps the planner's optimization
// server-side, and the dispatcher coalesces identical trees arriving in
// one window into a single planner descent whose answer fans back out.
// E8 measures that at 1/8/64 connections through E7's four arms and two
// mixes; the embedded arm is Plan+Execute in process, per-request
// dispatch plans every tree alone. The workload draws from a bounded
// pool of Eq and Or trees, as parameterized application queries do, so
// identical trees genuinely collide in coalescing windows.

const netplanPoolSize = 16

// netplanPools builds the bounded predicate pool in both forms: the
// wire trees clients ship (path id 1) and the structurally identical
// plan trees the embedded arm hands its planner. Half Eq leaves, half
// two-way Ors, parameterized over the generated end values.
func netplanPools(g *gen.Generated) ([]wire.PredNode, []plan.Predicate) {
	val := func(i int) oodb.Value { return g.EndValues[(i*37)%len(g.EndValues)] }
	wires := make([]wire.PredNode, 0, netplanPoolSize)
	plans := make([]plan.Predicate, 0, netplanPoolSize)
	for i := 0; i < netplanPoolSize/2; i++ {
		wires = append(wires, wire.EqPred(1, val(i)))
		plans = append(plans, plan.Eq(g.Path, val(i)))
	}
	for i := 0; i < netplanPoolSize/2; i++ {
		a, b := val(i*2+8), val(i*2+9)
		wires = append(wires, wire.OrPred(wire.EqPred(1, a), wire.EqPred(1, b)))
		plans = append(plans, plan.Or(plan.Eq(g.Path, a), plan.Eq(g.Path, b)))
	}
	return wires, plans
}

func runNetPlan(rep *Report) error {
	rep.Workload = fmt.Sprintf("pool of %d Eq/Or predicate trees over TCP loopback, pipeline depth %d", netplanPoolSize, netDepth)
	// Every cell generates the same database, so the wire pool (path ids
	// and values only) is built once; the plan pool names a path object
	// and is built against each cell's own.
	g, err := gen.Generate(model.Figure7Stats(), serveScale, rep.Seed)
	if err != nil {
		return err
	}
	wires, _ := netplanPools(g)
	err = runWire(rep, wireWorkload{
		conns:      []int{1, 8, 64},
		embedBatch: 1,
		// Each embedded worker owns a planner (as each server dispatcher
		// does) over the shared engine source.
		embedded: func(g *gen.Generated, e *engine.Engine, mix string, w int) (Driver, error) {
			pl := plan.NewPlanner(g.Store)
			if err := pl.Register(g.Path, e, nil); err != nil {
				return Driver{}, err
			}
			_, plans := netplanPools(g)
			return each(func(w, i int) error {
				p, err := pl.Plan(plans[(w*7919+i)%len(plans)], wireTarget(mix), false)
				if err == nil {
					_, err = p.Execute()
				}
				return err
			})(w)
		},
		send: func(c *netclient.Client, g *gen.Generated, mix string, w, i int) *netclient.Call {
			return c.GoPredicate(&wires[(w*7919+i)%len(wires)], wireTarget(mix), false)
		},
		// descents: planner descents the predicate requests cost after
		// coalescing dedup. Equal to ops means no sharing; the gap is the
		// dividend.
		counters: func(srv *netserver.Server) []Metric {
			_, descents := srv.PredicateStats()
			return []Metric{{"descents", float64(descents)}}
		},
	})
	if err != nil {
		return err
	}
	pipe64 := rep.Cell("mix", "endpoint", "arm", "net-pipelined", "conns", 64)
	rep.AddRatio("coalesced_over_perrequest_at_64_conns_endpoint",
		pipe64, rep.Cell("mix", "endpoint", "arm", "net-perrequest", "conns", 64))
	rep.AddRatio("pipelined_over_sync_at_8_conns_endpoint",
		rep.Cell("mix", "endpoint", "arm", "net-pipelined", "conns", 8), rep.Cell("mix", "endpoint", "arm", "net-sync", "conns", 8))
	rep.AddRatio("embedded_over_net_at_64_conns_wholepath",
		rep.Cell("mix", "wholepath", "arm", "embedded", "conns", 64), rep.Cell("mix", "wholepath", "arm", "net-pipelined", "conns", 64))
	// The fraction of requests that actually cost a planner descent
	// (lower is better sharing).
	rep.Ratios = append(rep.Ratios, Ratio{Name: "descents_per_request_at_64_conns_endpoint",
		Value: pipe64.Extra("descents") / float64(pipe64.Ops)})
	return nil
}
