// Command ixstress drives a multi-connection read/write mix against a
// running ixserved and reports realized throughput and latency.
//
// It is the networked counterpart of the benchmark's net_point workload
// with writes and predicate trees mixed in: each of -conns connections runs its own client with up to -depth requests
// pipelined, issuing reads split across the whole path ("Person") and
// the ending level ("Division") — one in ten a range query, the rest
// point queries — plus writes in the requested -write fraction. The
// writes rotate insert, update and delete: an update renames, and a
// delete removes, a Division whose insert has settled, so the store stays
// near its initial size across a long run. Per-request latency is
// measured submit-to-response through the pipeline, so the report shows
// what a caller would actually observe, coalescing included.
//
// Usage:
//
//	ixserved -addr 127.0.0.1:7070 &
//	ixstress -addr 127.0.0.1:7070 -conns 64 -ops 2000 -depth 32 -write 0.1
//
// With -sync the pipeline is disabled — every request waits for its
// response before the next is sent (one request per RTT), the control
// arm that shows what pipelining and coalescing buy.
//
// -pred replaces that fraction of the read mix with predicate-tree
// queries drawn from a small pool of Eq/Or trees over wire path id 1,
// where ixserved serves its path. One in four projects the matching
// Persons' age (OpPredicateValues); the rest return OIDs (OpPredicate).
// A sharded server has no unified store to project from, so there the
// projections answer with an error and count as server-side errors.
// The pool repeats across connections on purpose: identical trees
// landing in one coalescing window share a single planner descent, so
// this arm exercises the server's predicate dedup under load.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/netclient"
	"repro/internal/oodb"
	"repro/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "server address")
	conns := flag.Int("conns", 8, "number of concurrent connections")
	ops := flag.Int("ops", 2000, "operations per connection")
	depth := flag.Int("depth", 32, "pipeline depth per connection")
	write := flag.Float64("write", 0.1, "fraction of operations that are inserts/updates/deletes")
	pred := flag.Float64("pred", 0, "fraction of operations that are predicate-tree queries (path id 1)")
	values := flag.Int("values", 100, "distinct point-query values (val-00000..)")
	seed := flag.Int64("seed", 1, "per-connection workload seed base")
	sync_ := flag.Bool("sync", false, "one request per round trip (disables pipelining)")
	flag.Parse()

	rep, err := stress(*addr, *conns, *ops, *depth, *write, *pred, *values, *seed, *sync_)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep)
}

type result struct {
	lats []time.Duration
	errs int
	err  error
}

// stress runs the fleet and renders the aggregate report.
func stress(addr string, conns, ops, depth int, write, pred float64, values int, seed int64, syncMode bool) (string, error) {
	if syncMode {
		depth = 1
	}
	results := make([]result, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = drive(addr, ops, depth, write, pred, values, seed+int64(w))
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	total, failed := 0, 0
	for w, r := range results {
		if r.err != nil {
			return "", fmt.Errorf("connection %d: %v", w, r.err)
		}
		all = append(all, r.lats...)
		total += len(r.lats)
		failed += r.errs
	}
	// The percentiles below index the sorted durations directly rather
	// than calling experiments.Percentile: they print as time.Durations
	// (nothing is truncated to whole microseconds), and importing
	// internal/experiments would link the engine, shard and server stack
	// into what is deliberately a pure wire client.
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	mode := "pipelined"
	if syncMode {
		mode = "sync (1 req/RTT)"
	}
	if pred > 0 {
		mode += fmt.Sprintf(", pred %.0f%%", 100*pred)
	}
	return fmt.Sprintf(
		"ixstress: %d conns x %d ops, depth %d, %s, write %.0f%%\n"+
			"  %d ops in %.2fs = %.0f ops/sec (%d server-side errors)\n"+
			"  latency p50 %v  p99 %v  max %v\n",
		conns, ops, depth, mode, 100*write,
		total, elapsed.Seconds(), float64(total)/elapsed.Seconds(), failed,
		all[len(all)/2].Round(time.Microsecond),
		all[len(all)*99/100].Round(time.Microsecond),
		all[len(all)-1].Round(time.Microsecond)), nil
}

// predPool builds the shared predicate-tree pool: Eq leaves and small
// Or trees over path id 1's "val-%05d" value space. Every connection
// derives the same pool, so identical trees collide in the server's
// coalescing windows and share planner descents.
func predPool(values int) []wire.PredNode {
	pick := func(i int) oodb.Value {
		return oodb.StrV(fmt.Sprintf("val-%05d", i%values))
	}
	pool := make([]wire.PredNode, 0, 8)
	for i := 0; i < 4; i++ {
		pool = append(pool, wire.EqPred(1, pick(i*7)))
	}
	for i := 0; i < 4; i++ {
		pool = append(pool, wire.OrPred(wire.EqPred(1, pick(i*11+1)), wire.EqPred(1, pick(i*13+2))))
	}
	return pool
}

// drive runs one connection's share of the workload: a sliding window
// of up to `depth` in-flight requests, latency measured per request
// from send to response.
func drive(addr string, ops, depth int, write, pred float64, values int, seed int64) result {
	c, err := netclient.Dial(addr)
	if err != nil {
		return result{err: err}
	}
	defer c.Close() //nolint:errcheck

	preds := predPool(values)
	rng := rand.New(rand.NewSource(seed))
	type inflight struct {
		call   *netclient.Call
		sent   time.Time
		insert bool
		values bool // a projection, settled with WaitValues
	}
	var (
		window []inflight
		minted []oodb.OID // Divisions whose insert has settled
		writes int
		res    result
	)
	res.lats = make([]time.Duration, 0, ops)
	settle := func(f inflight) {
		var oids []oodb.OID
		var err error
		if f.values {
			_, err = f.call.WaitValues()
		} else {
			oids, err = f.call.Wait()
		}
		res.lats = append(res.lats, time.Since(f.sent))
		if err != nil {
			res.errs++
			return
		}
		if f.insert && len(oids) == 1 {
			minted = append(minted, oids[0])
		}
	}
	for i := 0; i < ops; i++ {
		var f inflight
		f.sent = time.Now()
		switch {
		case rng.Float64() < write:
			v := oodb.StrV(fmt.Sprintf("val-stress-%d-%06d", seed, i))
			kind := writes % 3
			writes++
			switch {
			case kind == 1 && len(minted) > 0:
				f.call = c.GoUpdate(minted[rng.Intn(len(minted))], map[string][]oodb.Value{"name": {v}})
			case kind == 2 && len(minted) > 0:
				oid := minted[len(minted)-1]
				minted = minted[:len(minted)-1]
				f.call = c.GoDelete(oid)
			default:
				f.call = c.GoInsert("Division", map[string][]oodb.Value{"name": {v}})
				f.insert = true
			}
		case rng.Float64() < pred:
			p := &preds[rng.Intn(len(preds))]
			if rng.Intn(4) == 0 {
				f.call = c.GoPredicateValues(p, "age", "Person", false)
				f.values = true
			} else {
				f.call = c.GoPredicate(p, "Person", false)
			}
		default:
			k := rng.Intn(values)
			v := oodb.StrV(fmt.Sprintf("val-%05d", k))
			class, hier := "Person", false
			if rng.Intn(10) < 3 {
				class, hier = "Division", rng.Intn(2) == 0
			}
			if rng.Intn(10) == 0 {
				hi := oodb.StrV(fmt.Sprintf("val-%05d", k+1+rng.Intn(4)))
				f.call = c.GoQueryRange(v, hi, class, hier)
			} else {
				f.call = c.GoQuery(v, class, hier)
			}
		}
		window = append(window, f)
		if len(window) >= depth {
			settle(window[0])
			window = window[1:]
		}
	}
	for _, f := range window {
		settle(f)
	}
	if err := c.Err(); err != nil {
		res.err = err
	}
	return res
}
