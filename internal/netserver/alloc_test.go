package netserver

import (
	"testing"

	"repro/internal/raceflag"
	"repro/internal/wire"
)

// TestServeBatchPointReadAllocs pins the per-batch allocation budget of
// the server's steady-state point-read path: a coalesced window of K
// point queries through serveBatch — one Backend.QueryHops per request,
// response encoding, framing into pooled buffers — must stay within a
// budget of one fresh answer per request plus a small constant. The frame and task pools are what keep the
// socket boundary from adding per-request garbage; this test is the
// tripwire for losing that.
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
	// Each request's QueryHops returns its answer as one fresh slice (the
	// chain itself runs on pooled scratch; an empty answer is nil); the
	// wire tier's buffers and the hop scratch are pooled or
	// dispatcher-owned, so everything else is a small constant per
	// window. The decoded value's string, one allocation per request on
	// a live connection, is pre-decoded here.
	budget := float64(K + 16)
	if avg > budget {
		t.Fatalf("serveBatch(%d point reads) allocates %.1f per batch, budget %.0f", K, avg, budget)
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
