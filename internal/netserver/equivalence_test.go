package netserver

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/netclient"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/shard"
)

// TestNetworkEmbeddedEquivalence replays one randomized trace against
// two identical databases — one embedded, one behind a real client and
// server — and demands bit-identical results and error propagation at
// every step. Point, range and hierarchy queries (the planner's leaf
// probe shapes), pipelined runs of point queries, inserts, updates and deletes
// including missing-OID and unknown-class error cases all cross the
// socket; any divergence means the wire tier changed a semantic the
// embedded engine promised.
func TestNetworkEmbeddedEquivalence(t *testing.T) {
	const seed = 99
	mkEngine := func() (*engine.Engine, *gen.Generated) {
		g, err := gen.Generate(model.Figure7Stats(), 0.01, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Configuration{Assignments: []core.Assignment{
			{A: 1, B: g.Path.Len(), Org: cost.NIX},
		}}
		e, err := engine.New(g.Store, g.Path, cfg, model.PaperParams().PageSize, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return e, g
	}
	ref, g := mkEngine()
	served, _ := mkEngine()
	c := startTestServer(t, served, Options{Path: g.Path})

	rng := rand.New(rand.NewSource(seed))
	classes := []string{"Person", "Division"}
	missingOID := oodb.OID(1) << 40
	// Values: the generated end values plus some that match nothing.
	values := append([]oodb.Value{}, g.EndValues...)
	for i := 0; i < 8; i++ {
		values = append(values, oodb.StrV("val-missing-"+string(rune('a'+i))))
	}
	var minted []oodb.OID // OIDs inserted during the trace; identical on both sides

	checkOIDs := func(step int, what string, got, want []oodb.OID, gerr, werr error) {
		t.Helper()
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("step %d %s: error mismatch: net %v vs embedded %v", step, what, gerr, werr)
		}
		if werr != nil {
			var remote *netclient.RemoteError
			if !errors.As(gerr, &remote) || remote.Msg != werr.Error() {
				t.Fatalf("step %d %s: error text: net %v vs embedded %q", step, what, gerr, werr)
			}
			return
		}
		if !sameOIDs(got, want) {
			t.Fatalf("step %d %s: net %v vs embedded %v", step, what, got, want)
		}
	}

	for step := 0; step < 400; step++ {
		switch rng.Intn(6) {
		case 0: // point query, sometimes with an unknown class
			v := values[rng.Intn(len(values))]
			class := classes[rng.Intn(len(classes))]
			if rng.Intn(20) == 0 {
				class = "NoSuchClass"
			}
			hier := rng.Intn(2) == 0
			want, werr := ref.Query(v, class, hier)
			got, gerr := c.Query(v, class, hier)
			checkOIDs(step, "query", got, want, gerr, werr)
		case 1: // range query
			i, j := rng.Intn(len(g.EndValues)), rng.Intn(len(g.EndValues))
			if i > j {
				i, j = j, i
			}
			class := classes[rng.Intn(len(classes))]
			hier := rng.Intn(2) == 0
			want, werr := ref.QueryRange(g.EndValues[i], g.EndValues[j], class, hier)
			got, gerr := c.QueryRange(g.EndValues[i], g.EndValues[j], class, hier)
			checkOIDs(step, "range", got, want, gerr, werr)
		case 2: // pipelined run of point queries
			probes := make([]probe, 4+rng.Intn(24))
			for k := range probes {
				probes[k] = probe{values[rng.Intn(len(values))], classes[rng.Intn(len(classes))], rng.Intn(2) == 0}
			}
			want, werr := queryEach(ref, probes)
			got, gerr := pipeline(c, probes)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("step %d batch: error mismatch: %v vs %v", step, gerr, werr)
			}
			for k := range probes {
				if !sameOIDs(got[k], want[k]) {
					t.Fatalf("step %d batch probe %d: net %v vs embedded %v", step, k, got[k], want[k])
				}
			}
		case 3: // insert — minted OIDs must agree, so the stores stay twins
			v := oodb.StrV("val-new-" + string(rune('a'+rng.Intn(26))))
			attrs := map[string][]oodb.Value{"name": {v}}
			wantOID, werr := ref.Insert("Division", attrs)
			gotOID, gerr := c.Insert("Division", attrs)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("step %d insert: %v vs %v", step, gerr, werr)
			}
			if werr == nil {
				if gotOID != wantOID {
					t.Fatalf("step %d insert: net minted %d, embedded %d", step, gotOID, wantOID)
				}
				minted = append(minted, gotOID)
			}
		case 4: // update — existing or missing OID
			oid := missingOID
			if len(minted) > 0 && rng.Intn(4) != 0 {
				oid = minted[rng.Intn(len(minted))]
			}
			attrs := map[string][]oodb.Value{"name": {oodb.StrV("val-upd-" + string(rune('a'+rng.Intn(26))))}}
			werr := ref.Update(oid, attrs)
			gerr := c.Update(oid, attrs)
			checkOIDs(step, "update", nil, nil, gerr, werr)
		case 5: // batched updates with error cases mixed in
			n := 2 + rng.Intn(8)
			ups := make([]exec.Update, n)
			for k := range ups {
				oid := missingOID + oodb.OID(k)
				if len(minted) > 0 && rng.Intn(3) != 0 {
					oid = minted[rng.Intn(len(minted))]
				}
				ups[k] = exec.Update{OID: oid, Attrs: map[string][]oodb.Value{
					"name": {oodb.StrV("val-ub-" + string(rune('a'+rng.Intn(26))))},
				}}
			}
			werrs := ref.UpdateBatch(ups)
			gerrs := c.UpdateBatch(ups)
			for k := range ups {
				checkOIDs(step, "update-batch", nil, nil, gerrs[k], werrs[k])
			}
		}
	}

	// Deletes last, so earlier steps can keep treating minted as live.
	for _, oid := range minted {
		werr := ref.Delete(oid)
		gerr := c.Delete(oid)
		checkOIDs(0, "delete", nil, nil, gerr, werr)
	}
	werr := ref.Delete(missingOID)
	gerr := c.Delete(missingOID)
	checkOIDs(0, "delete-missing", nil, nil, gerr, werr)

	// The served engine's own recorder counted the trace exactly as the
	// embedded twin's did: the server needs no workload copy of its own.
	got, want := served.WorkloadSnapshot(), ref.WorkloadSnapshot()
	if got.Total != want.Total || len(got.Classes) != len(want.Classes) {
		t.Fatalf("served engine recorded %d ops over %d classes, embedded %d over %d",
			got.Total, len(got.Classes), want.Total, len(want.Classes))
	}
	for i := range want.Classes {
		if got.Classes[i] != want.Classes[i] {
			t.Fatalf("class %s: served engine recorded %+v, embedded %+v",
				want.Classes[i].Class, got.Classes[i], want.Classes[i])
		}
	}
}

// TestPipelinedClientsDuringReconfigure hammers the server with
// pipelined runs of point queries from several connections while the backing
// engine swaps its index configuration back and forth. Every result
// must equal the static baseline — a configuration swap may never be
// observable in query results — and under -race this doubles as the
// data-race gate for the reader/dispatcher/writer/swap interleaving.
func TestPipelinedClientsDuringReconfigure(t *testing.T) {
	e, g := newTestEngine(t, 11)
	baseline, _ := newTestEngine(t, 11)
	srv := New(e, Options{Path: g.Path})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown() //nolint:errcheck

	probes := genProbes(g, 64)
	want, err := queryEach(baseline, probes)
	if err != nil {
		t.Fatal(err)
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
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := netclient.Dial(addr.String())
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := pipeline(c, probes)
				if err != nil {
					errCh <- err
					return
				}
				for i := range probes {
					if !sameOIDs(got[i], want[i]) {
						t.Errorf("probe %d diverged during reconfigure", i)
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
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestShardedQueryEquivalence sends random point and range requests to a
// two-shard database behind the server: each answer must be bit-identical
// to the embedded db.Query / db.QueryRange, and each request must move
// the database's prune counters by exactly what the embedded call moved
// them — the server answers through the backend's QueryHops, one hop per
// request, and must skip the same shards. Targets include the Vehicle
// hierarchy, values include ones no shard holds.
func TestShardedQueryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := schema.PaperSchema()
	p := schema.MustNewPath(s, "Person", "owns", "man", "divs", "name")
	cfg := core.Configuration{Assignments: []core.Assignment{{A: 1, B: 2, Org: cost.NIX}, {A: 3, B: p.Len(), Org: cost.MX}}}
	db, err := shard.New(s, p, cfg, 2048, 2, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck

	// Each shard holds its own division names and a few shared ones, so
	// the summaries prune some probes and admit others.
	name := func(sh, i int) oodb.Value { return oodb.StrV(fmt.Sprintf("dv-%d%d", sh, i)) }
	var values []oodb.Value
	for sh := 0; sh < 2; sh++ {
		var divs, comps, vehs []oodb.OID
		for i := 0; i < 8; i++ {
			v := name(sh, i)
			if i%4 == 0 {
				v = name(9, i) // shared
			}
			values = append(values, v)
			oid, err := db.InsertAt(sh, "Division", map[string][]oodb.Value{"name": {v}})
			if err != nil {
				t.Fatal(err)
			}
			divs = append(divs, oid)
		}
		for i := 0; i < 5; i++ {
			oid, err := db.Insert("Company", map[string][]oodb.Value{
				"divs": {oodb.RefV(divs[rng.Intn(len(divs))]), oodb.RefV(divs[rng.Intn(len(divs))])},
			})
			if err != nil {
				t.Fatal(err)
			}
			comps = append(comps, oid)
		}
		for i := 0; i < 12; i++ {
			class := []string{"Vehicle", "Bus", "Truck"}[i%3]
			oid, err := db.Insert(class, map[string][]oodb.Value{"man": {oodb.RefV(comps[rng.Intn(len(comps))])}})
			if err != nil {
				t.Fatal(err)
			}
			vehs = append(vehs, oid)
		}
		for i := 0; i < 20; i++ {
			if _, err := db.Insert("Person", map[string][]oodb.Value{
				"owns": {oodb.RefV(vehs[rng.Intn(len(vehs))]), oodb.RefV(vehs[rng.Intn(len(vehs))])},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	values = append(values, oodb.StrV("dv-00x"), oodb.StrV("dv-55"), oodb.StrV("a-below"), oodb.StrV("z-above"))
	c := startTestServer(t, db, Options{Path: p})

	targets := []struct {
		class string
		hier  bool
	}{{"Person", false}, {"Vehicle", true}, {"Vehicle", false}, {"Bus", false}, {"Company", false}, {"Division", false}}
	moved := func(probed, pruned uint64) [2]uint64 {
		p, q := db.PruneCounters()
		return [2]uint64{p - probed, q - pruned}
	}
	var prunedAny bool
	answered := 0 // requests with a non-empty answer
	for step := 0; step < 300; step++ {
		tg := targets[rng.Intn(len(targets))]
		var want, got []oodb.OID
		var werr, gerr error
		var what string
		p0, q0 := db.PruneCounters()
		var embedded [2]uint64
		if rng.Intn(3) > 0 {
			v := values[rng.Intn(len(values))]
			what = fmt.Sprintf("query %v/%s", v, tg.class)
			want, werr = db.Query(v, tg.class, tg.hier)
			embedded = moved(p0, q0)
			p0, q0 = db.PruneCounters()
			got, gerr = c.Query(v, tg.class, tg.hier)
		} else {
			lo, hi := values[rng.Intn(len(values))], values[rng.Intn(len(values))]
			if hi.Str < lo.Str {
				lo, hi = hi, lo
			}
			what = fmt.Sprintf("range [%v,%v)/%s", lo, hi, tg.class)
			want, werr = db.QueryRange(lo, hi, tg.class, tg.hier)
			embedded = moved(p0, q0)
			p0, q0 = db.PruneCounters()
			got, gerr = c.QueryRange(lo, hi, tg.class, tg.hier)
		}
		if werr != nil || gerr != nil {
			t.Fatalf("step %d %s: net %v, embedded %v", step, what, gerr, werr)
		}
		if !sameOIDs(got, want) {
			t.Fatalf("step %d %s: net %v vs embedded %v", step, what, got, want)
		}
		if served := moved(p0, q0); served != embedded {
			t.Fatalf("step %d %s: served request moved probed/pruned by %v, embedded call by %v", step, what, served, embedded)
		}
		prunedAny = prunedAny || embedded[1] > 0
		if len(want) > 0 {
			answered++
		}
	}
	if !prunedAny || answered < 100 {
		t.Fatalf("pruned any shard: %v, non-empty answers: %d — the trace does not exercise the summaries and the chain", prunedAny, answered)
	}
}
