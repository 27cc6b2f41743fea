// Command ixserved serves an index-selected object database over TCP.
//
// It opens (or generates) a database on the paper's Figure 7 path
// Person.owns.man.divs.name, wraps it in the netserver coalescing
// dispatcher, and serves the binary wire protocol until SIGINT/SIGTERM.
// Shutdown is graceful: the listener closes, every request already read
// off a socket is answered, the engines checkpoint, and the process
// exits 0 — an acknowledged write is on disk when the prompt returns.
//
// Usage:
//
//	ixserved -addr :7070 -dir /var/lib/ixserved          # durable, single engine
//	ixserved -addr :7070 -dir /var/lib/ixserved -shards 4 # durable, sharded
//	ixserved -addr :7070 -seed 42 -scale 0.01            # in-memory, pre-generated
//
// With -dir the store is disk-backed (WAL + pager, crash-recoverable);
// a fresh directory starts empty, an existing one recovers. Without
// -dir the store lives in memory and is seeded from the Figure 7
// statistics so there is something to query. -checkevery enables the
// self-tuning loop: every N operations the server-side engine checks
// workload drift against the model and reconfigures its indexes in the
// background while connections keep flowing. The drift is measured on
// the engines' own counts — each records every request it answers — so
// the server keeps none.
//
// Predicate queries: the served path is the server's Options.Path, which
// makes it wire path id 1 with the backend as its index source, so
// clients can ship predicate trees (OpPredicate) immediately. -paths
// registers extra ids, each at most once, e.g.
//
//	ixserved -paths "2=Person.age,3=Person.owns.color"
//
// Extra paths register for decoding only, with no index source of their
// own: writes maintain the served path's indexes and nothing else, so a
// second index set over the same store would go stale at the first
// insert. In single-engine modes the planner evaluates their leaves
// against the store — as residual filters over the candidates an indexed
// conjunct produced, or as a class scan when there is none — which is
// always current. In sharded mode there is no unified store, and
// predicates on them answer with the planner's no-source error rather
// than wrong results.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/netserver"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/stats"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "TCP address to listen on")
	dir := flag.String("dir", "", "durable data directory (empty: in-memory, seeded from -seed/-scale)")
	shards := flag.Int("shards", 0, "number of OID-partitioned shards (0: single engine)")
	seed := flag.Int64("seed", 42, "seed for the in-memory generated database")
	scale := flag.Float64("scale", 0.01, "scale factor for the in-memory generated database")
	checkEvery := flag.Int("checkevery", 0, "check workload drift every N ops and auto-tune (0: off)")
	maxBatch := flag.Int("maxbatch", 0, "coalescing window cap in requests (0: default; 1: dispatch each request alone)")
	paths := flag.String("paths", "", `extra predicate path registrations, "id=Class.attr...,id=..." (served path is always id 1)`)
	flag.Parse()

	if err := run(*addr, *dir, *shards, *seed, *scale, *checkEvery, *maxBatch, *paths); err != nil {
		log.Fatal(err)
	}
}

// run serves until SIGINT/SIGTERM, then drains, checkpoints and returns.
func run(addr, dir string, shards int, seed int64, scale float64, checkEvery, maxBatch int, pathSpecs string) error {
	srv, be, _, err := serve(addr, dir, shards, seed, scale, checkEvery, maxBatch, pathSpecs)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	log.Printf("ixserved: %s — draining", got)

	if err := srv.Shutdown(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	reqs, batches, coalesced := srv.CoalesceStats()
	log.Printf("ixserved: served %d requests in %d batches (%d coalesced); the engines recorded %d ops since their last reconfiguration",
		reqs, batches, coalesced, be.WorkloadSnapshot().Total)
	if err := be.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	log.Printf("ixserved: clean exit")
	return nil
}

// backend is what ixserved needs beyond netserver.Backend: the engines'
// recorded workload for the exit log, and a close that quiesces
// background work and (when durable) checkpoints.
type backend interface {
	netserver.Backend
	WorkloadSnapshot() stats.Workload
	Close() error
}

// serve opens the backend, registers the predicate paths and starts
// listening; it returns the server, the backend to close after the
// server's Shutdown, and the bound address.
func serve(addr, dir string, shards int, seed int64, scale float64, checkEvery, maxBatch int, pathSpecs string) (*netserver.Server, backend, net.Addr, error) {
	eopts := engine.Options{CheckEvery: uint64(checkEvery)}
	cfg := func(p *schema.Path) core.Configuration {
		return core.Configuration{Assignments: []core.Assignment{
			{A: 1, B: p.Len(), Org: cost.NIX},
		}}
	}
	pageSize := model.PaperParams().PageSize

	var (
		be backend
		p  *schema.Path
	)
	switch {
	case dir != "":
		p = schema.PaperPathOwnsManDivsName()
		s := p.Schema()
		if shards > 1 {
			db, err := shard.OpenShardedDurable(dir, s, p, cfg(p), pageSize, shards,
				engine.DurableOptions{Options: eopts})
			if err != nil {
				return nil, nil, nil, err
			}
			be = db
		} else {
			e, err := engine.OpenDurable(dir, s, p, cfg(p), pageSize,
				engine.DurableOptions{Options: eopts})
			if err != nil {
				return nil, nil, nil, err
			}
			be = e
		}
	default:
		if shards > 1 {
			// The fan-in of a generated single-store graph cannot be
			// partitioned (references must stay shard-local), so each
			// shard's store receives its own self-contained cohort of the
			// Figure 7 shape, all drawing from one full-width value pool.
			ps := model.Figure7Stats()
			p = ps.Path
			stores, err := shard.NewStores(p.Schema(), pageSize, shards)
			if err != nil {
				return nil, nil, nil, err
			}
			for i, part := range stores {
				if _, err := gen.GenerateShardIn(part, ps, scale/float64(shards), seed+int64(i), shards); err != nil {
					return nil, nil, nil, err
				}
			}
			db, err := shard.Open(stores, p, cfg(p), pageSize, shard.Options{Engine: eopts})
			if err != nil {
				return nil, nil, nil, err
			}
			be = db
			break
		}
		g, err := gen.Generate(model.Figure7Stats(), scale, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		p = g.Path
		e, err := engine.New(g.Store, p, cfg(p), pageSize, eopts)
		if err != nil {
			return nil, nil, nil, err
		}
		be = e
	}

	// The served path is predicate path id 1, probed through the
	// backend's own maintained indexes.
	srv := netserver.New(be, netserver.Options{Path: p, MaxBatch: maxBatch})
	log.Printf("ixserved: predicate path 1 = %s (backend indexes)", p)
	extra, err := parsePathSpecs(p.Schema(), pathSpecs)
	if err != nil {
		return nil, nil, nil, err
	}
	how := "no index source; evaluated against the store"
	if shards > 1 {
		how = "decode-only; no unified store"
	}
	for _, sp := range extra {
		if err := srv.RegisterPath(sp.id, sp.path, nil, nil); err != nil {
			return nil, nil, nil, err
		}
		log.Printf("ixserved: predicate path %d = %s (%s)", sp.id, sp.path, how)
	}
	lnAddr, err := srv.Listen(addr)
	if err != nil {
		return nil, nil, nil, err
	}
	log.Printf("ixserved: serving %s on %s (shards=%d durable=%v maxbatch=%d)",
		p, lnAddr, shards, dir != "", maxBatch)
	return srv, be, lnAddr, nil
}

// pathSpec is one "-paths" registration: wire id plus parsed path.
type pathSpec struct {
	id   uint16
	path *schema.Path
}

// parsePathSpecs parses "id=Class.attr.attr,..." against the schema.
// Id 1 is reserved for the served path, and each id names one path.
func parsePathSpecs(s *schema.Schema, spec string) ([]pathSpec, error) {
	if spec == "" {
		return nil, nil
	}
	var out []pathSpec
	seen := make(map[uint64]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		idStr, pathStr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-paths entry %q is not id=Class.attr...", part)
		}
		id, err := strconv.ParseUint(idStr, 10, 16)
		if err != nil || id <= 1 {
			return nil, fmt.Errorf("-paths entry %q: id must be an integer > 1 (1 is the served path)", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("-paths entry %q: id %d is already registered", part, id)
		}
		seen[id] = true
		steps := strings.Split(pathStr, ".")
		if len(steps) < 2 {
			return nil, fmt.Errorf("-paths entry %q: path needs a class and at least one attribute", part)
		}
		p, err := schema.NewPath(s, steps[0], steps[1:]...)
		if err != nil {
			return nil, fmt.Errorf("-paths entry %q: %w", part, err)
		}
		out = append(out, pathSpec{id: uint16(id), path: p})
	}
	return out, nil
}
