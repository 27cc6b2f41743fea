// Netclient: the serving tier end to end in one process. A generated
// database goes behind the TCP server, a client dials it, and the same
// operations the embedded engine answers — point and range queries,
// inserts, updates, deletes, predicate trees — cross the wire instead,
// first one round trip at a time and then pipelined, where the server
// coalesces the concurrently-arriving requests into one dispatch window —
// each point query answered on its own, the window's replies written
// once per connection — and identical predicate trees into one shared
// planner descent, and the counters show it happening.
package main

import (
	"fmt"
	"log"

	ooindex "repro"
)

func main() {
	// A small physical database from the Figure 7 statistics, indexed
	// with a whole-path nested index, exactly as the embedded examples
	// build it.
	g, err := ooindex.Generate(ooindex.Figure7Stats(), 0.01, 42)
	if err != nil {
		log.Fatal(err)
	}
	cfg := ooindex.Configuration{Assignments: []ooindex.Assignment{
		{A: 1, B: g.Path.Len(), Org: ooindex.NIX},
	}}
	db, err := ooindex.Open(g.Store, g.Path, cfg, 1024)
	if err != nil {
		log.Fatal(err)
	}

	// Serve it. Port 0 picks a free port. Path makes the served path wire
	// id 1 for predicate trees, answered from the engine's own maintained
	// indexes; the engine records every request it serves, so its
	// self-tuning sees remote traffic as it sees embedded calls.
	srv := ooindex.NewNetServer(db, ooindex.NetServerOptions{Path: g.Path})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving %s on %s\n\n", g.Path, addr)

	c, err := ooindex.DialNet(addr.String())
	if err != nil {
		log.Fatal(err)
	}

	// Synchronous calls: one request per round trip, same results the
	// embedded engine would give.
	v := g.EndValues[3]
	persons, err := c.Query(v, "Person", false)
	if err != nil {
		log.Fatal(err)
	}
	divisions, err := c.Query(v, "Division", false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %v: %d persons, %d divisions\n", v, len(persons), len(divisions))

	// The write path: insert, update, query back, delete. The minted OID
	// comes back over the wire.
	oid, err := c.Insert("Division", map[string][]ooindex.Value{
		"name": {ooindex.StrV("networking")},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := c.Update(oid, map[string][]ooindex.Value{
		"name": {ooindex.StrV("serving")},
	}); err != nil {
		log.Fatal(err)
	}
	back, err := c.Query(ooindex.StrV("serving"), "Division", false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("insert/update round trip: minted OID %d, queried back %v\n", oid, back)
	if err := c.Delete(oid); err != nil {
		log.Fatal(err)
	}

	// A server-side error arrives as a RemoteError and leaves the
	// connection healthy.
	if err := c.Delete(oid); err != nil {
		fmt.Printf("double delete: %v\n\n", err)
	}

	// Pipelining: fire a window of requests without waiting, then
	// collect. The calls overlap in flight, and on the server the
	// dispatcher coalesces whatever has arrived into one window — one
	// wake-up and one bundled write for it, not one per request.
	calls := make([]*ooindex.NetCall, 32)
	for i := range calls {
		calls[i] = c.GoQuery(g.EndValues[i%len(g.EndValues)], "Person", false)
	}
	hits := 0
	for _, call := range calls {
		oids, err := call.Wait()
		if err != nil {
			log.Fatal(err)
		}
		hits += len(oids)
	}
	reqs, batches, coalesced := srv.CoalesceStats()
	fmt.Printf("pipelined %d queries -> %d owners\n", len(calls), hits)
	fmt.Printf("server saw %d requests in %d batches (%d coalesced into a shared window)\n\n",
		reqs, batches, coalesced)

	// A predicate tree, planned and executed server-side: leaves name
	// the registered path id, so the client needs no schema. Identical
	// trees pipelined into one window share a single planner descent —
	// the predicate counters show requests vs descents.
	pred := ooindex.Or(
		ooindex.WireEq(1, g.EndValues[3]),
		ooindex.WireEq(1, g.EndValues[5]),
	)
	pcalls := make([]*ooindex.NetCall, 16)
	for i := range pcalls {
		pcalls[i] = c.GoPredicate(&pred, "Person", false)
	}
	matched := 0
	for _, call := range pcalls {
		oids, err := call.Wait()
		if err != nil {
			log.Fatal(err)
		}
		matched = len(oids)
	}
	preqs, descents := srv.PredicateStats()
	fmt.Printf("pipelined %d identical predicate trees -> %d matches each\n", len(pcalls), matched)
	fmt.Printf("server planned %d predicate requests in %d shared descents\n", preqs, descents)

	if err := c.Close(); err != nil {
		log.Fatal(err)
	}
	if err := srv.Shutdown(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nserver drained and shut down")
}
