package netserver

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/netclient"
	"repro/internal/oodb"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/wire"
)

// predWorld is the plan package's differential substrate rebuilt for
// the wire tier: a randomly populated paper-schema store and the four
// Person-rooted paths predicates range over, with per-path value pools
// for generating mostly-hitting operands. Path id i+1 on the wire names
// paths[i].
type predWorld struct {
	st    *oodb.Store
	paths []*schema.Path
	pools [][]oodb.Value
}

var predOrgs = []cost.Organization{cost.MX, cost.MIX, cost.NIX, cost.PX}

func buildPredWorld(t *testing.T, seed int64) *predWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := schema.PaperSchema()
	st, err := oodb.NewStore(s, 2048)
	if err != nil {
		t.Fatal(err)
	}
	ins := func(class string, attrs map[string][]oodb.Value) oodb.OID {
		oid, err := st.Insert(class, attrs)
		if err != nil {
			t.Fatalf("insert %s: %v", class, err)
		}
		return oid
	}
	divNames := make([]oodb.Value, 10)
	for i := range divNames {
		divNames[i] = oodb.StrV(fmt.Sprintf("dv-%02d", i))
	}
	compNames := make([]oodb.Value, 8)
	for i := range compNames {
		compNames[i] = oodb.StrV(fmt.Sprintf("co-%02d", i))
	}
	colors := []oodb.Value{oodb.StrV("red"), oodb.StrV("blue"), oodb.StrV("green"), oodb.StrV("grey")}

	var divs, comps, vehs []oodb.OID
	for i := 0; i < 25+rng.Intn(15); i++ {
		divs = append(divs, ins("Division", map[string][]oodb.Value{
			"name": {divNames[rng.Intn(len(divNames))]},
		}))
	}
	for i := 0; i < 12+rng.Intn(8); i++ {
		refs := []oodb.Value{}
		for _, di := range rng.Perm(len(divs))[:1+rng.Intn(3)] {
			refs = append(refs, oodb.RefV(divs[di]))
		}
		comps = append(comps, ins("Company", map[string][]oodb.Value{
			"name": {compNames[rng.Intn(len(compNames))]},
			"divs": refs,
		}))
	}
	for i := 0; i < 40+rng.Intn(20); i++ {
		cls := []string{"Vehicle", "Bus", "Truck"}[rng.Intn(3)]
		vehs = append(vehs, ins(cls, map[string][]oodb.Value{
			"color": {colors[rng.Intn(len(colors))]},
			"man":   {oodb.RefV(comps[rng.Intn(len(comps))])},
		}))
	}
	ages := make([]oodb.Value, 0, 8)
	for a := int64(20); a < 60; a += 5 {
		ages = append(ages, oodb.IntV(a))
	}
	for i := 0; i < 60+rng.Intn(30); i++ {
		owns := []oodb.Value{}
		for _, vi := range rng.Perm(len(vehs))[:rng.Intn(3)] {
			owns = append(owns, oodb.RefV(vehs[vi]))
		}
		ins("Person", map[string][]oodb.Value{
			"age":  {ages[rng.Intn(len(ages))]},
			"owns": owns,
		})
	}
	return &predWorld{
		st: st,
		paths: []*schema.Path{
			schema.MustNewPath(s, "Person", "age"),
			schema.MustNewPath(s, "Person", "owns", "color"),
			schema.MustNewPath(s, "Person", "owns", "man", "name"),
			schema.MustNewPath(s, "Person", "owns", "man", "divs", "name"),
		},
		pools: [][]oodb.Value{ages, colors, compNames, divNames},
	}
}

func randomPredConfig(rng *rand.Rand, n int) core.Configuration {
	org := func() cost.Organization { return predOrgs[rng.Intn(len(predOrgs))] }
	if n >= 2 && rng.Intn(2) == 0 {
		cut := 1 + rng.Intn(n-1)
		return core.Configuration{Assignments: []core.Assignment{
			{A: 1, B: cut, Org: org()},
			{A: cut + 1, B: n, Org: org()},
		}}
	}
	return core.Configuration{Assignments: []core.Assignment{{A: 1, B: n, Org: org()}}}
}

// randomWirePred mirrors the plan package's randomPred generator: Eq/Range
// leaves on the four pool-backed paths, deliberate misses mixed in,
// And/Or composites of bounded depth, all built with plan's builders.
// Each leaf also carries its path's wire id (i+1), so the one tree is
// what the client ships and what the embedded planner plans.
func (w *predWorld) randomWirePred(rng *rand.Rand, depth int) plan.Predicate {
	if depth <= 0 || rng.Intn(3) == 0 {
		pi := rng.Intn(len(w.paths))
		p, pool := w.paths[pi], w.pools[pi]
		var leaf plan.Predicate
		if rng.Intn(3) == 0 {
			a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			if a.Compare(b) > 0 {
				a, b = b, a
			}
			leaf = plan.Range(p, a, b)
		} else {
			v := pool[rng.Intn(len(pool))]
			if rng.Intn(6) == 0 {
				v = oodb.StrV("no-such-value")
			}
			leaf = plan.Eq(p, v)
		}
		leaf.PathID = uint16(pi + 1)
		return leaf
	}
	n := 2 + rng.Intn(2)
	kids := make([]plan.Predicate, n)
	for i := range kids {
		kids[i] = w.randomWirePred(rng, depth-1)
	}
	if rng.Intn(2) == 0 {
		return plan.And(kids...)
	}
	return plan.Or(kids...)
}

// TestServerResolvesTheBuildersTree pins in-place resolution: a random
// tree sent over the wire, decoded and resolved against the server's id
// table deep-equals the tree plan.Eq/Range/And/Or built over the
// registered paths, and both Explain identically.
func TestServerResolvesTheBuildersTree(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	w := buildPredWorld(t, 91)
	srv := New(predBackend(t, w), Options{})
	epl := plan.NewPlanner(w.st)
	for i, p := range w.paths {
		if err := srv.RegisterPath(uint16(i+1), p, nil, nil); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			continue // unsourced: a residual filter or a scan in the plan
		}
		ex, err := engine.New(w.st, p, randomPredConfig(rng, p.Len()), 2048, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := epl.Register(p, ex, nil); err != nil {
			t.Fatal(err)
		}
	}
	tab := srv.paths.Load()
	for q := 0; q < 100; q++ {
		built := w.randomWirePred(rng, 3)
		got, rest, err := wire.DecodePredicate(wire.AppendPredNode(nil, &built))
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode %s: %v (%d bytes left)", built, err, len(rest))
		}
		if err := resolvePaths(tab, &got); err != nil {
			t.Fatalf("resolve %s: %v", built, err)
		}
		if !reflect.DeepEqual(got, built) {
			t.Fatalf("resolved tree differs from the built one:\nresolved: %s\nbuilt:    %s", got, built)
		}
		pg, err := epl.Plan(got, "Person", false)
		if err != nil {
			t.Fatalf("plan resolved %s: %v", got, err)
		}
		pb, err := epl.Plan(built, "Person", false)
		if err != nil {
			t.Fatalf("plan built %s: %v", built, err)
		}
		if pg.Explain() != pb.Explain() {
			t.Fatalf("explain differs:\nresolved:\n%s\nbuilt:\n%s", pg.Explain(), pb.Explain())
		}
	}
}

// startPredServer is startTestServer returning the server too, for
// RegisterPath and PredicateStats.
func startPredServer(t *testing.T, be Backend, opts Options) (*Server, *netclient.Client) {
	t.Helper()
	srv := New(be, opts)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown() }) //nolint:errcheck
	c, err := netclient.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) //nolint:errcheck
	return srv, c
}

// predBackend builds a plain engine Backend over the world's store so
// the server has something to serve; predicate requests never touch it.
func predBackend(t *testing.T, w *predWorld) *engine.Engine {
	t.Helper()
	p := w.paths[0]
	e, err := engine.New(w.st, p, core.Configuration{
		Assignments: []core.Assignment{{A: 1, B: p.Len(), Org: cost.NIX}},
	}, 2048, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestNetworkPlannerDifferential is the tentpole gate: randomized
// predicate trees executed over the wire must be bit-identical to the
// embedded planner evaluating the structurally identical predicate and
// to naive store evaluation. Registration is randomized the way the
// plan package's own differential randomizes it — a random subset of
// paths behind randomly configured executors (mirrored on both sides),
// the rest registered for decoding only so the server exercises the
// same residual/naive fallbacks the embedded planner does.
func TestNetworkPlannerDifferential(t *testing.T) {
	for trial := int64(0); trial < 3; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial-%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(2000 + trial))
			w := buildPredWorld(t, 600+trial)
			srv, c := startPredServer(t, predBackend(t, w), Options{})
			epl := plan.NewPlanner(w.st)
			registered := 0
			for i, p := range w.paths {
				if rng.Intn(4) == 0 && registered > 0 {
					// Decoding-only registration: the server resolves the id
					// but has no source, like an embedded planner nobody
					// registered the path with.
					if err := srv.RegisterPath(uint16(i+1), p, nil, nil); err != nil {
						t.Fatal(err)
					}
					continue
				}
				cfg := randomPredConfig(rng, p.Len())
				ex, err := engine.New(w.st, p, cfg, 2048, engine.Options{})
				if err != nil {
					t.Fatalf("configure %s with %v: %v", p, cfg, err)
				}
				if err := epl.Register(p, ex, nil); err != nil {
					t.Fatal(err)
				}
				if err := srv.RegisterPath(uint16(i+1), p, ex, nil); err != nil {
					t.Fatal(err)
				}
				registered++
			}
			for q := 0; q < 40; q++ {
				pp := w.randomWirePred(rng, 2)
				wp := pp
				hier := rng.Intn(2) == 0
				got, gerr := c.Predicate(&wp, "Person", hier)
				p, err := epl.Plan(pp, "Person", hier)
				if err != nil {
					t.Fatalf("embedded plan %s: %v", pp, err)
				}
				want, werr := p.Execute()
				if werr != nil {
					t.Fatalf("embedded execute %s: %v", pp, werr)
				}
				if gerr != nil {
					t.Fatalf("remote %s: %v", pp, gerr)
				}
				if !sameOIDs(got, want) {
					t.Fatalf("remote/embedded divergence on %s (hier=%v):\nremote:   %v\nembedded: %v",
						pp, hier, got, want)
				}
				naive, err := plan.NaiveEval(w.st, pp, "Person", hier)
				if err != nil {
					t.Fatalf("naive %s: %v", pp, err)
				}
				if !sameOIDs(got, naive) {
					t.Fatalf("remote/naive divergence on %s (hier=%v):\nremote: %v\nnaive:  %v",
						pp, hier, got, naive)
				}
				// Value projection over the same tree, every few queries.
				if q%5 == 0 {
					gotV, gerr := c.PredicateValues(&wp, "age", "Person", hier)
					wantV, werr := p.ExecuteValues("age")
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("values error mismatch on %s: remote %v embedded %v", pp, gerr, werr)
					}
					if werr == nil && !reflect.DeepEqual(gotV, append([]oodb.Value{}, wantV...)) &&
						!(len(gotV) == 0 && len(wantV) == 0) {
						t.Fatalf("values divergence on %s: remote %v embedded %v", pp, gotV, wantV)
					}
				}
			}
		})
	}
}

// TestPredicateErrorCases pins error propagation: every way a predicate
// request can fail answers that request with the embedded planner's
// exact error text (or the server's for wire-only failures like an
// unregistered path id), and the connection stays healthy afterwards.
func TestPredicateErrorCases(t *testing.T) {
	w := buildPredWorld(t, 71)
	srv, c := startPredServer(t, predBackend(t, w), Options{})
	epl := plan.NewPlanner(w.st)
	for i, p := range w.paths {
		ex, err := engine.New(w.st, p, core.Configuration{
			Assignments: []core.Assignment{{A: 1, B: p.Len(), Org: cost.NIX}},
		}, 2048, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := epl.Register(p, ex, nil); err != nil {
			t.Fatal(err)
		}
		if err := srv.RegisterPath(uint16(i+1), p, ex, nil); err != nil {
			t.Fatal(err)
		}
	}

	// matchEmbedded demands the remote error equal the embedded planner's.
	matchEmbedded := func(what string, wp *wire.PredNode, pp plan.Predicate, target string) {
		t.Helper()
		_, gerr := c.Predicate(wp, target, false)
		_, werr := epl.Plan(pp, target, false)
		if werr == nil {
			if _, werr = mustPlanExec(t, epl, pp, target); werr == nil {
				t.Fatalf("%s: embedded did not error", what)
			}
		}
		var remote *netclient.RemoteError
		if gerr == nil || !errors.As(gerr, &remote) || remote.Msg != werr.Error() {
			t.Fatalf("%s: remote %v vs embedded %q", what, gerr, werr)
		}
	}

	// Unregistered path id — a wire-only failure; the embedded planner
	// cannot even express it.
	if _, err := c.Predicate(&wire.PredNode{Kind: wire.PredEq, PathID: 99, Value: oodb.IntV(1)}, "Person", false); err == nil ||
		!strings.Contains(err.Error(), "not registered") {
		t.Fatalf("unregistered path id: %v", err)
	}

	matchEmbedded("empty conjunction", &wire.PredNode{Kind: wire.PredAnd}, plan.And(), "Person")
	matchEmbedded("empty disjunction", &wire.PredNode{Kind: wire.PredOr}, plan.Or(), "Person")
	mixed := wire.RangePred(1, oodb.IntV(1), oodb.StrV("x"))
	matchEmbedded("mixed-kind range", &mixed,
		plan.Range(w.paths[0], oodb.IntV(1), oodb.StrV("x")), "Person")
	offPath := wire.EqPred(1, oodb.IntV(20))
	matchEmbedded("target outside path scope", &offPath,
		plan.Eq(w.paths[0], oodb.IntV(20)), "Division")

	// Poisoned-plan isolation: a bad predicate pipelined between good
	// ones fails alone.
	good := wire.EqPred(1, w.pools[0][0])
	bad := wire.EqPred(42, oodb.IntV(1))
	c1 := c.GoPredicate(&good, "Person", false)
	c2 := c.GoPredicate(&bad, "Person", false)
	c3 := c.GoPredicate(&good, "Person", false)
	want, err := epl.Query(plan.Eq(w.paths[0], w.pools[0][0]), "Person", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, call := range []*netclient.Call{c1, c3} {
		got, err := call.Wait()
		if err != nil {
			t.Fatalf("good predicate failed alongside poisoned one: %v", err)
		}
		if !sameOIDs(got, want) {
			t.Fatalf("good predicate diverged alongside poisoned one: %v vs %v", got, want)
		}
	}
	if _, err := c2.Wait(); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("poisoned predicate: %v", err)
	}

	// The connection survives every error above.
	if err := c.Ping(); err != nil {
		t.Fatalf("connection died after predicate errors: %v", err)
	}
}

// mustPlanExec plans and executes, returning the first error of either.
func mustPlanExec(t *testing.T, pl *plan.Planner, pp plan.Predicate, target string) ([]oodb.OID, error) {
	t.Helper()
	p, err := pl.Plan(pp, target, false)
	if err != nil {
		return nil, err
	}
	return p.Execute()
}

// TestPredicateNoStore pins the nil-store posture: a server over a
// backend with no unified store — a one-shard shard.DB over the world's
// store — serves sourced predicates but answers unsourced leaves with the
// planner's no-fallback error, identical to an embedded planner built
// over a nil store.
func TestPredicateNoStore(t *testing.T) {
	w := buildPredWorld(t, 73)
	p0 := w.paths[0]
	db, err := shard.Open([]*oodb.Store{w.st}, p0, core.Configuration{
		Assignments: []core.Assignment{{A: 1, B: p0.Len(), Org: cost.NIX}},
	}, 2048, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	srv, c := startPredServer(t, db, Options{})
	ex, err := engine.New(w.st, p0, core.Configuration{
		Assignments: []core.Assignment{{A: 1, B: p0.Len(), Org: cost.NIX}},
	}, 2048, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterPath(1, p0, ex, nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterPath(2, w.paths[1], nil, nil); err != nil {
		t.Fatal(err)
	}
	epl := plan.NewPlanner(nil)
	if err := epl.Register(p0, ex, nil); err != nil {
		t.Fatal(err)
	}

	sourced := wire.EqPred(1, w.pools[0][0])
	got, err := c.Predicate(&sourced, "Person", false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mustPlanExec(t, epl, plan.Eq(p0, w.pools[0][0]), "Person")
	if err != nil {
		t.Fatal(err)
	}
	if !sameOIDs(got, want) {
		t.Fatalf("sourced predicate diverged without store: %v vs %v", got, want)
	}

	unsourced := wire.EqPred(2, w.pools[1][0])
	_, gerr := c.Predicate(&unsourced, "Person", false)
	_, werr := epl.Plan(plan.Eq(w.paths[1], w.pools[1][0]), "Person", false)
	var remote *netclient.RemoteError
	if werr == nil || gerr == nil || !errors.As(gerr, &remote) || remote.Msg != werr.Error() {
		t.Fatalf("unsourced leaf without store: remote %v vs embedded %v", gerr, werr)
	}
}

// TestPredicateSharded runs the differential over a sharded backend:
// remote predicates against a shard.DB source must match the embedded
// planner over the same DB — including cross-shard targets, whose
// matches span shards and merge — and an unsourced leaf errors
// identically on both sides (no store, no fallback).
func TestPredicateSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	s := schema.PaperSchema()
	pDiv := schema.MustNewPath(s, "Person", "owns", "man", "divs", "name")
	pColor := schema.MustNewPath(s, "Person", "owns", "color")
	cfg := core.Configuration{Assignments: []core.Assignment{{A: 1, B: pDiv.Len(), Org: cost.NIX}}}
	const shards = 2
	db, err := shard.New(s, pDiv, cfg, 2048, shards, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck

	divNames := make([]oodb.Value, 6)
	for i := range divNames {
		divNames[i] = oodb.StrV(fmt.Sprintf("dv-%02d", i))
	}
	colors := []oodb.Value{oodb.StrV("red"), oodb.StrV("blue"), oodb.StrV("green")}
	// Populate each shard with its own co-located tree: refs never span
	// shards, so routed inserts land where their referents live.
	for sh := 0; sh < shards; sh++ {
		var divs, comps, vehs []oodb.OID
		for i := 0; i < 6; i++ {
			oid, err := db.InsertAt(sh, "Division", map[string][]oodb.Value{
				"name": {divNames[rng.Intn(len(divNames))]},
			})
			if err != nil {
				t.Fatal(err)
			}
			divs = append(divs, oid)
		}
		for i := 0; i < 4; i++ {
			oid, err := db.Insert("Company", map[string][]oodb.Value{
				"name": {oodb.StrV(fmt.Sprintf("co-%d-%d", sh, i))},
				"divs": {oodb.RefV(divs[rng.Intn(len(divs))]), oodb.RefV(divs[rng.Intn(len(divs))])},
			})
			if err != nil {
				t.Fatal(err)
			}
			comps = append(comps, oid)
		}
		for i := 0; i < 10; i++ {
			oid, err := db.Insert("Vehicle", map[string][]oodb.Value{
				"color": {colors[rng.Intn(len(colors))]},
				"man":   {oodb.RefV(comps[rng.Intn(len(comps))])},
			})
			if err != nil {
				t.Fatal(err)
			}
			vehs = append(vehs, oid)
		}
		for i := 0; i < 15; i++ {
			if _, err := db.Insert("Person", map[string][]oodb.Value{
				"age":  {oodb.IntV(int64(20 + 5*rng.Intn(8)))},
				"owns": {oodb.RefV(vehs[rng.Intn(len(vehs))])},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	srv, c := startPredServer(t, db, Options{})
	if err := srv.RegisterPath(1, pDiv, db, nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterPath(2, pColor, nil, nil); err != nil {
		t.Fatal(err)
	}
	epl := plan.NewPlanner(nil)
	if err := epl.Register(pDiv, db, nil); err != nil {
		t.Fatal(err)
	}

	// Leaves name pDiv twice: by wire id 1 for the client, by Path for
	// the embedded planner.
	eq := func(v oodb.Value) plan.Predicate {
		n := plan.Eq(pDiv, v)
		n.PathID = 1
		return n
	}
	rg := func(lo, hi oodb.Value) plan.Predicate {
		n := plan.Range(pDiv, lo, hi)
		n.PathID = 1
		return n
	}
	preds := []plan.Predicate{
		eq(divNames[0]),
		plan.Or(eq(divNames[1]), eq(divNames[4])),
		plan.And(eq(divNames[2]), rg(divNames[0], divNames[5])),
		rg(divNames[1], divNames[3]),
	}
	for _, target := range []string{"Person", "Division"} {
		for _, hier := range []bool{false, true} {
			for i := range preds {
				got, gerr := c.Predicate(&preds[i], target, hier)
				p, err := epl.Plan(preds[i], target, hier)
				if err != nil {
					t.Fatalf("embedded plan: %v", err)
				}
				want, werr := p.Execute()
				if gerr != nil || werr != nil {
					t.Fatalf("pred %d target %s: remote %v embedded %v", i, target, gerr, werr)
				}
				if !sameOIDs(oodb.SortUnique(got), oodb.SortUnique(want)) {
					t.Fatalf("pred %d target %s (hier=%v): remote %v vs embedded %v", i, target, hier, got, want)
				}
			}
		}
	}

	// Unsourced leaf over a sharded backend: no store, no fallback —
	// both sides refuse with the same message.
	unsourced := wire.EqPred(2, colors[0])
	_, gerr := c.Predicate(&unsourced, "Person", false)
	_, werr := epl.Plan(plan.Eq(pColor, colors[0]), "Person", false)
	var remote *netclient.RemoteError
	if werr == nil || gerr == nil || !errors.As(gerr, &remote) || remote.Msg != werr.Error() {
		t.Fatalf("unsourced sharded leaf: remote %v vs embedded %v", gerr, werr)
	}
}

// TestServePredicateDedup drives the dispatcher directly with a window
// of predicate tasks alternating between two trees and checks that
// coalescing shares planner descents without ever mixing answers: two
// descents for the window, every response correct for its own request.
func TestServePredicateDedup(t *testing.T) {
	e, g := newTestEngine(t, 41)
	s := New(e, Options{})
	if err := s.RegisterPath(1, g.Path, e, nil); err != nil {
		t.Fatal(err)
	}
	d := newDispatcher(s)

	predA := wire.EqPred(1, g.EndValues[0])
	predB := wire.EqPred(1, g.EndValues[1])
	epl := plan.NewPlanner(g.Store)
	if err := epl.Register(g.Path, e, nil); err != nil {
		t.Fatal(err)
	}
	wantA, err := mustPlanExec(t, epl, plan.Eq(g.Path, g.EndValues[0]), "Person")
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := mustPlanExec(t, epl, plan.Eq(g.Path, g.EndValues[1]), "Person")
	if err != nil {
		t.Fatal(err)
	}

	const K = 16
	c := &conn{srv: s, out: make(chan *[]byte, 2*K)}
	c.pending.Store(1 << 30)
	person := s.intern([]byte("Person"))
	tasks := make([]*task, K)
	for i := range tasks {
		pred := predA
		if i%2 == 1 {
			pred = predB
		}
		tasks[i] = &task{conn: c, class: person, req: wire.Request{
			ID: uint64(i), Op: wire.OpPredicate, Pred: pred,
		}}
	}
	d.serveBatch(tasks)

	reqs, descents := s.PredicateStats()
	if reqs != K || descents != 2 {
		t.Fatalf("PredicateStats = (%d, %d), want (%d, 2)", reqs, descents, K)
	}
	// Decode the bundled responses and match each to its own predicate.
	answered := 0
	var resp wire.Response
	for {
		select {
		case bp := <-c.out:
			b := *bp
			for len(b) > 0 {
				payload, rest, err := wire.DecodeFrame(b)
				if err != nil {
					t.Fatal(err)
				}
				if err := wire.DecodeResponse(payload, &resp); err != nil {
					t.Fatal(err)
				}
				want := wantA
				if resp.ID%2 == 1 {
					want = wantB
				}
				if resp.Status != wire.StatusOK || !sameOIDs(resp.OIDs, want) {
					t.Fatalf("request %d answered %v, want %v", resp.ID, resp.OIDs, want)
				}
				answered++
				b = rest
				resp = wire.Response{}
			}
			s.bufPool.Put(bp)
		default:
			if answered != K {
				t.Fatalf("%d responses, want %d", answered, K)
			}
			return
		}
	}
}

// TestPredicateClientsDuringReconfigure is the race gate for the
// predicate path, mirroring TestPipelinedClientsDuringReconfigure:
// pipelined predicate clients hammer the server while the backing
// engine swaps index configurations and RegisterPath concurrently
// replaces the path table (forcing per-dispatcher planner rebuilds).
// Every result must equal the static baseline throughout.
func TestPredicateClientsDuringReconfigure(t *testing.T) {
	e, g := newTestEngine(t, 51)
	baseline, _ := newTestEngine(t, 51)
	srv := New(e, Options{})
	if err := srv.RegisterPath(1, g.Path, e, nil); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown() //nolint:errcheck

	epl := plan.NewPlanner(g.Store)
	if err := epl.Register(g.Path, baseline, nil); err != nil {
		t.Fatal(err)
	}
	preds := make([]wire.PredNode, 8)
	want := make([][]oodb.OID, len(preds))
	for i := range preds {
		v := g.EndValues[i%len(g.EndValues)]
		preds[i] = wire.OrPred(wire.EqPred(1, v), wire.EqPred(1, g.EndValues[(i+3)%len(g.EndValues)]))
		pp := plan.Or(plan.Eq(g.Path, v), plan.Eq(g.Path, g.EndValues[(i+3)%len(g.EndValues)]))
		if want[i], err = mustPlanExec(t, epl, pp, "Person"); err != nil {
			t.Fatal(err)
		}
	}

	cfgA := core.Configuration{Assignments: []core.Assignment{
		{A: 1, B: g.Path.Len(), Org: cost.NIX},
	}}
	cfgB := cfgA
	if n := g.Path.Len(); n >= 2 {
		cfgB = core.Configuration{Assignments: []core.Assignment{
			{A: 1, B: 1, Org: cost.MX},
			{A: 2, B: n, Org: cost.NIX},
		}}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := netclient.Dial(addr.String())
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			calls := make([]*netclient.Call, len(preds))
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range preds {
					calls[i] = c.GoPredicate(&preds[i], "Person", false)
				}
				for i, call := range calls {
					got, err := call.Wait()
					if err != nil {
						errCh <- err
						return
					}
					if !sameOIDs(got, want[i]) {
						t.Errorf("predicate %d diverged during reconfigure", i)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 6; i++ {
		cfg := cfgA
		if i%2 == 0 {
			cfg = cfgB
		}
		if _, err := e.ApplyConfiguration(cfg); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		// Concurrent registration: replace the same binding, bumping the
		// table generation so dispatchers rebuild planners mid-traffic.
		if err := srv.RegisterPath(1, g.Path, e, nil); err != nil {
			t.Fatalf("re-register %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestServedPathIsPredicateID1 pins what Options.Path means: New registers
// the served path as predicate path id 1 with the backend as its index
// source, the zero Options leave id 1 unregistered, and a later
// RegisterPath(1, …) replaces the binding New made.
func TestServedPathIsPredicateID1(t *testing.T) {
	e, g := newTestEngine(t, 61)
	epl := plan.NewPlanner(g.Store)
	if err := epl.Register(g.Path, e, nil); err != nil {
		t.Fatal(err)
	}
	var v oodb.Value
	var want []oodb.OID
	for _, v = range g.EndValues {
		var err error
		if want, err = mustPlanExec(t, epl, plan.Eq(g.Path, v), "Person"); err != nil {
			t.Fatal(err)
		}
		if len(want) > 0 {
			break
		}
	}
	if len(want) == 0 {
		t.Fatal("no end value is held by a Person")
	}
	pred := wire.EqPred(1, v)

	srv, c := startPredServer(t, e, Options{Path: g.Path})
	if got, err := c.Predicate(&pred, "Person", false); err != nil || !sameOIDs(got, want) {
		t.Fatalf("id 1 with no RegisterPath call: %v (%v), want %v", got, err, want)
	}

	_, bare := startPredServer(t, e, Options{})
	if _, err := bare.Predicate(&pred, "Person", false); err == nil ||
		!strings.Contains(err.Error(), "path id 1 is not registered") {
		t.Fatalf("id 1 under the zero Options: %v, want \"path id 1 is not registered\"", err)
	}

	src := &countingSource{Source: e}
	if err := srv.RegisterPath(1, g.Path, src, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Predicate(&pred, "Person", false); err != nil || !sameOIDs(got, want) {
		t.Fatalf("id 1 after RegisterPath(1, …): %v (%v), want %v", got, err, want)
	}
	if src.n.Load() == 0 {
		t.Fatal("id 1 still probes the binding New made, not the one RegisterPath replaced it with")
	}
}

// countingSource counts the probes a planner sends its source.
type countingSource struct {
	plan.Source
	n atomic.Int64
}

func (s *countingSource) QueryHops(dst []oodb.OID, hops []exec.Hop, within []oodb.OID, class string, hierarchy bool) ([]oodb.OID, int, error) {
	s.n.Add(1)
	return s.Source.QueryHops(dst, hops, within, class, hierarchy)
}

// TestPredicateAnswerBufferBounded: a dispatcher unions a sharded plan's
// answers into a buffer it keeps between predicate groups, but never one
// of more than keptAnswer OIDs. One answer above that, followed by small
// ones, must leave the dispatcher holding only room for the small ones,
// and every answer must be the embedded planner's.
func TestPredicateAnswerBufferBounded(t *testing.T) {
	s := schema.PaperSchema()
	pAge := schema.MustNewPath(s, "Person", "age")
	cfg := core.Configuration{Assignments: []core.Assignment{{A: 1, B: pAge.Len(), Org: cost.MX}}}
	db, err := shard.New(s, pAge, cfg, 2048, 2, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	const large, small = keptAnswer + 100, 5
	for i := 0; i < large+small; i++ {
		age := int64(30)
		if i >= large {
			age = 31
		}
		if _, err := db.Insert("Person", map[string][]oodb.Value{"age": {oodb.IntV(age)}}); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(db, Options{Path: pAge})
	d := newDispatcher(srv)
	epl := plan.NewPlanner(nil)
	if err := epl.Register(pAge, db, nil); err != nil {
		t.Fatal(err)
	}
	c := &conn{srv: srv, out: make(chan *[]byte, 4)}
	c.pending.Store(1 << 30)
	person := srv.intern([]byte("Person"))
	for i, age := range []int64{30, 31, 31} {
		want, err := mustPlanExec(t, epl, plan.Eq(pAge, oodb.IntV(age)), "Person")
		if err != nil {
			t.Fatal(err)
		}
		d.serveBatch([]*task{{conn: c, class: person, req: wire.Request{
			ID: uint64(i), Op: wire.OpPredicate, Pred: wire.EqPred(1, oodb.IntV(age)),
		}}})
		bp := <-c.out
		payload, _, err := wire.DecodeFrame(*bp)
		if err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := wire.DecodeResponse(payload, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusOK || !sameOIDs(resp.OIDs, want) {
			t.Fatalf("answer %d (age %d): %d OIDs, want %d", i, age, len(resp.OIDs), len(want))
		}
		srv.bufPool.Put(bp)
		if wantCap := len(want) <= keptAnswer; (cap(d.ans) > 0) != wantCap || cap(d.ans) > keptAnswer {
			t.Fatalf("after answer %d of %d OIDs the dispatcher keeps room for %d, want some only up to %d", i, len(want), cap(d.ans), keptAnswer)
		}
	}
}

// TestReplyBufferBounded: a dispatcher keeps its reply payload buffer and,
// for point queries too, its answer buffer between requests, but not
// above keptReply and keptAnswer — one point query answering keptAnswer+100
// OIDs, then two answering 5, through a two-shard server: after the large
// answer it keeps neither, after each small one both, within the bounds.
func TestReplyBufferBounded(t *testing.T) {
	s := schema.PaperSchema()
	pAge := schema.MustNewPath(s, "Person", "age")
	cfg := core.Configuration{Assignments: []core.Assignment{{A: 1, B: pAge.Len(), Org: cost.MX}}}
	db, err := shard.New(s, pAge, cfg, 2048, 2, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	const large, small = keptAnswer + 100, 5
	for i := 0; i < large+small; i++ {
		age := int64(30)
		if i >= large {
			age = 31
		}
		if _, err := db.Insert("Person", map[string][]oodb.Value{"age": {oodb.IntV(age)}}); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(db, Options{Path: pAge})
	d := newDispatcher(srv)
	c := &conn{srv: srv, out: make(chan *[]byte, 4)}
	c.pending.Store(1 << 30)
	person := srv.intern([]byte("Person"))
	for i, age := range []int64{30, 31, 31} {
		want, err := db.Query(oodb.IntV(age), "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		d.serveBatch([]*task{{conn: c, class: person, req: wire.Request{
			ID: uint64(i), Op: wire.OpQuery, Value: oodb.IntV(age),
		}}})
		bp := <-c.out
		payload, _, err := wire.DecodeFrame(*bp)
		if err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := wire.DecodeResponse(payload, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusOK || !sameOIDs(resp.OIDs, want) {
			t.Fatalf("answer %d (age %d): %d OIDs, want %d", i, age, len(resp.OIDs), len(want))
		}
		srv.bufPool.Put(bp)
		kept := len(want) <= keptAnswer
		if (cap(d.rbuf) > 0) != kept || cap(d.rbuf) > keptReply {
			t.Fatalf("after answer %d of %d OIDs the dispatcher keeps %d reply bytes, want some only up to %d", i, len(want), cap(d.rbuf), keptReply)
		}
		if (cap(d.ans) > 0) != kept || cap(d.ans) > keptAnswer {
			t.Fatalf("after answer %d of %d OIDs the dispatcher keeps room for %d, want some only up to %d", i, len(want), cap(d.ans), keptAnswer)
		}
	}
}
