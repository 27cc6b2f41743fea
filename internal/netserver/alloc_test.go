package netserver

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/oodb"
	"repro/internal/raceflag"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/wire"
)

// TestServeBatchPointReadAllocs pins the per-batch allocation budget of
// the server's steady-state point-read path: a coalesced window of K
// point queries through serveBatch — one Backend.QueryHops per request,
// appending to the dispatcher's answer buffer, response encoding,
// framing into pooled buffers — allocates nothing. The frame and task
// pools are what keep the socket boundary from adding per-request
// garbage, the answer buffer what keeps the engine from adding it; this
// test is the tripwire for losing either.
func TestServeBatchPointReadAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	e, g := newTestEngine(t, 31)
	s := New(e, Options{Path: g.Path})
	d := newDispatcher(s)

	const K = 64
	// A connection whose writer is this test: responses queue into out
	// and are drained back to the pool synchronously after each batch.
	c := &conn{srv: s, out: make(chan *[]byte, 2*K)}
	c.pending.Store(1 << 30) // never reaches zero; out stays open

	person := s.intern([]byte("Person"))
	division := s.intern([]byte("Division"))
	tasks := make([]*task, K)
	for i := range tasks {
		tasks[i] = &task{}
	}
	fill := func() {
		for i, tk := range tasks {
			tk.conn = c
			tk.req = wire.Request{
				ID:    uint64(i),
				Op:    wire.OpQuery,
				Value: g.EndValues[i%len(g.EndValues)],
			}
			if i%2 == 0 {
				tk.class = person
			} else {
				tk.class = division
			}
		}
	}
	drain := func() {
		for {
			select {
			case bp := <-c.out:
				s.bufPool.Put(bp)
			default:
				return
			}
		}
	}

	// Warm the pools and the engine's own scratch.
	for i := 0; i < 3; i++ {
		fill()
		d.serveBatch(tasks)
		drain()
	}

	avg := testing.AllocsPerRun(20, func() {
		fill()
		d.serveBatch(tasks)
		drain()
	})
	// Each request's QueryHops appends its answer to the dispatcher's
	// buffer (the chain itself runs on pooled scratch); the wire tier's
	// buffers and the hop scratch are pooled or dispatcher-owned. The
	// decoded value's string, one allocation per request on a live
	// connection, is pre-decoded here.
	if avg != 0 {
		t.Fatalf("serveBatch(%d point reads) allocates %.1f per batch, want 0", K, avg)
	}
}

// TestServePredicateBatchAllocs pins the dividend coalescing pays on
// the predicate path: a window of K identical predicate requests is one
// planner descent, so the batch's allocations must sit under a FIXED
// budget — plan assembly plus one shared result, independent of K. The
// per-request work (dedup keying, response framing) runs out of
// dispatcher scratch and pooled buffers; if this budget ever starts
// scaling with K, coalescing has stopped sharing the descent.
func TestServePredicateBatchAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	e, g := newTestEngine(t, 37)
	s := New(e, Options{Path: g.Path})
	if err := s.RegisterPath(1, g.Path, e, nil); err != nil {
		t.Fatal(err)
	}
	d := newDispatcher(s)

	const K = 64
	c := &conn{srv: s, out: make(chan *[]byte, 2*K)}
	c.pending.Store(1 << 30)

	person := s.intern([]byte("Person"))
	pred := wire.OrPred(
		wire.EqPred(1, g.EndValues[0]),
		wire.EqPred(1, g.EndValues[1]),
	)
	tasks := make([]*task, K)
	for i := range tasks {
		tasks[i] = &task{}
	}
	fill := func() {
		for i, tk := range tasks {
			tk.conn = c
			tk.class = person
			// The Kids backing array is shared; assigning the node copies
			// only the struct header, so refilling allocates nothing.
			tk.req = wire.Request{ID: uint64(i), Op: wire.OpPredicate, Pred: pred}
		}
	}
	drain := func() {
		for {
			select {
			case bp := <-c.out:
				s.bufPool.Put(bp)
			default:
				return
			}
		}
	}

	for i := 0; i < 3; i++ {
		fill()
		d.serveBatch(tasks)
		drain()
	}

	avg := testing.AllocsPerRun(20, func() {
		fill()
		d.serveBatch(tasks)
		drain()
	})
	// One descent per batch: the planner's plan assembly and probe
	// bookkeeping plus the shared result slice cost a constant ~couple
	// dozen allocations; the K replies reuse dispatcher scratch and
	// pooled bundles. Fixed budget — deliberately NOT a function of K.
	const budget = 128.0
	if avg > budget {
		t.Fatalf("serveBatch(%d coalesced predicates) allocates %.1f per batch, budget %.0f", K, avg, budget)
	}

	// The coalescing invariant the budget depends on: every batch of K
	// identical predicates was exactly one descent.
	reqs, descents := s.PredicateStats()
	if reqs != K*descents {
		t.Fatalf("PredicateStats = (%d, %d): identical-predicate batches did not coalesce to one descent", reqs, descents)
	}
}

// TestServePartitionedPredicateAllocs: a window of K distinct predicates
// over a two-shard backend is K planner descents, each run per shard and
// unioned into the dispatcher's answer buffer, its intermediate answers in
// a pooled arena — so what a batch allocates is the plans' compilation
// alone and does not grow with the answers. A window answering 6 OIDs a
// request and one answering 1,200 must allocate as many objects
// (testing.AllocsPerRun) and, in bytes (runtime.MemStats.TotalAlloc),
// differ by less than one large answer's 9,600.
func TestServePartitionedPredicateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	s := schema.PaperSchema()
	pAge := schema.MustNewPath(s, "Person", "age")
	cfg := core.Configuration{Assignments: []core.Assignment{{A: 1, B: pAge.Len(), Org: cost.MX}}}
	db, err := shard.New(s, pAge, cfg, 2048, 2, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	// Ages 100+k hold 3 persons each, ages 200+k 600 each; a request asks
	// for two ages of one kind.
	const K, smallPer, largePer = 8, 3, 600
	for _, kind := range []struct{ base, per int }{{100, smallPer}, {200, largePer}} {
		for a := 0; a < 2*K; a++ {
			for i := 0; i < kind.per; i++ {
				if _, err := db.Insert("Person", map[string][]oodb.Value{"age": {oodb.IntV(int64(kind.base + a))}}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	srv := New(db, Options{Path: pAge})
	d := newDispatcher(srv)
	c := &conn{srv: srv, out: make(chan *[]byte, 2*K)}
	c.pending.Store(1 << 30)
	person := srv.intern([]byte("Person"))
	tasks := make([]*task, K)
	for i := range tasks {
		tasks[i] = &task{}
	}
	window := func(base int) []wire.PredNode {
		preds := make([]wire.PredNode, K)
		for i := range preds {
			preds[i] = wire.OrPred(wire.EqPred(1, oodb.IntV(int64(base+2*i))), wire.EqPred(1, oodb.IntV(int64(base+2*i+1))))
		}
		return preds
	}
	serve := func(preds []wire.PredNode) {
		for i, tk := range tasks {
			tk.conn, tk.class = c, person
			tk.req = wire.Request{ID: uint64(i), Op: wire.OpPredicate, Pred: preds[i]}
		}
		d.serveBatch(tasks)
		for n := 0; n < K; {
			bp := <-c.out
			for b := *bp; len(b) > 0; n++ {
				payload, rest, err := wire.DecodeFrame(b)
				if err != nil {
					t.Fatal(err)
				}
				if len(payload) < 13 {
					t.Fatalf("reply of %d bytes", len(payload))
				}
				b = rest
			}
			srv.bufPool.Put(bp)
		}
	}
	// A collection empties the pools the arenas and the bundles come
	// from; the measurement holds collections off so that it counts only
	// what a window allocates.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func(preds []wire.PredNode) (allocs float64, bytes uint64) {
		for i := 0; i < 3; i++ {
			serve(preds)
		}
		allocs = testing.AllocsPerRun(20, func() { serve(preds) })
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			serve(preds)
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := measure(window(100))
	largeAllocs, largeBytes := measure(window(200))
	t.Logf("a window of %d predicates: %.0f allocations, %d bytes answering %d OIDs each; %.0f, %d answering %d",
		K, smallAllocs, smallBytes, 2*smallPer, largeAllocs, largeBytes, 2*largePer)
	if largeAllocs != smallAllocs {
		t.Fatalf("a window allocates %.0f times answering %d OIDs a request, %.0f answering %d", smallAllocs, 2*smallPer, largeAllocs, 2*largePer)
	}
	if largeBytes > smallBytes+8*2*largePer {
		t.Fatalf("a window allocates %d bytes answering %d OIDs a request, %d answering %d", smallBytes, 2*smallPer, largeBytes, 2*largePer)
	}
}
