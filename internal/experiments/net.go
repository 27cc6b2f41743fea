package experiments

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/netclient"
	"repro/internal/netserver"
	"repro/internal/oodb"
)

// Experiment E7 — the cost of the socket (DESIGN.md §10.4). The serving
// tier's claim is that a binary pipelined protocol plus adaptive request
// coalescing carries the engine's serving path across the network
// mostly intact. E7 measures it at 1/8/64/256 connections through the
// four wireArms on two read mixes that bound the regimes: wholepath
// queries "Person" through the full four-level path (hundreds of owners
// per probe: the engine does real work and the socket tax is the
// interesting number), endpoint queries "Division" at the ending level
// (an OID or two: the wire's fixed per-round-trip cost is the whole
// story, and what pipelining and coalescing recover is the interesting
// number). Each headline ratio is taken on the mix where its claim is
// load-bearing.

// netDepth is the pipelined arms' window: requests in flight per
// connection, and the embedded arm's probes per timed run.
const netDepth = 32

// wireArms are the four ways E7 and E8 serve one request stream: the
// embedded kernel (no socket: the ceiling), the full networked path
// (pipelined clients, coalescing dispatcher), pipelining with MaxBatch 1
// (every request dispatched alone), and the classic
// one-request-per-round-trip client.
var wireArms = []struct {
	name            string
	depth, maxBatch int
}{
	{"embedded", 0, 0},
	{"net-pipelined", netDepth, 0},
	{"net-perrequest", netDepth, 1},
	{"net-sync", 1, 0},
}

// wireWorkload is what differs between E7 (point probes) and E8
// (predicate trees) under the shared mix x arm x connections grid.
type wireWorkload struct {
	conns []int
	// embedBatch is how many requests one embedded iteration serves.
	embedBatch int
	// embedded is worker w's driver for the in-process ceiling.
	embedded func(g *gen.Generated, e *engine.Engine, mix string, w int) (Driver, error)
	// send issues worker w's i-th request of the mix on c.
	send func(c *netclient.Client, g *gen.Generated, mix string, w, i int) *netclient.Call
	// counters reads the dispatcher's cumulative counts.
	counters func(srv *netserver.Server) []Metric
}

// wireTarget maps a mix to its target class: the full-path starting
// class (engine-bound) or the ending level (wire-bound).
func wireTarget(mix string) string {
	if mix == "wholepath" {
		return "Person"
	}
	return "Division"
}

// runWire measures every (mix, arm, connections) cell of the workload,
// each over a freshly generated database behind a whole-path NIX engine.
func runWire(rep *Report, wl wireWorkload) error {
	var cells []Arm
	for _, mix := range []string{"wholepath", "endpoint"} {
		for _, arm := range wireArms {
			for _, conns := range wl.conns {
				ops := rep.Ops
				if arm.name == "net-sync" {
					// One request per round trip is slow by design; trim its op
					// count the way E2 trims the naive evaluator's.
					ops /= 4
				}
				if mix == "wholepath" {
					// Every wholepath request hauls hundreds of owners; a
					// quarter of the op count measures the same regime.
					ops = (ops + 3) / 4
				}
				if arm.depth == 0 {
					ops = (ops + wl.embedBatch - 1) / wl.embedBatch
				}
				cells = append(cells, Arm{
					Labels:  labels("mix", mix, "arm", arm.name, "conns", conns),
					Workers: conns,
					Ops:     ops,
					Open:    func() (System, error) { return openWire(rep.Seed, wl, mix, arm.depth, arm.maxBatch) },
				})
			}
		}
	}
	return rep.Measure(cells...)
}

// openWire stands one cell's system up: the engine alone for the
// embedded arm (depth 0), else the engine behind a real TCP loopback
// server that each worker dials before every pass.
func openWire(seed int64, wl wireWorkload, mix string, depth, maxBatch int) (System, error) {
	g, err := gen.Generate(model.Figure7Stats(), serveScale, seed)
	if err != nil {
		return System{}, err
	}
	e, err := engine.New(g.Store, g.Path, wholePathNIX(g.Path), model.PaperParams().PageSize, engine.Options{})
	if err != nil {
		return System{}, err
	}
	if depth == 0 {
		return System{
			Start: func(w int) (Driver, error) { return wl.embedded(g, e, mix, w) },
			Close: e.Close,
		}, nil
	}
	srv := netserver.New(e, netserver.Options{Path: g.Path, MaxBatch: maxBatch})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return System{}, err
	}
	return System{
		Start: func(w int) (Driver, error) {
			c, err := netclient.Dial(addr.String())
			if err != nil {
				return Driver{}, err
			}
			// The sliding window of up to depth pipelined requests, each
			// recorded send-to-response when it settles.
			type inflight struct {
				call *netclient.Call
				sent time.Time
			}
			var window []inflight
			settle := func(rec *Recorder) error {
				_, err := window[0].call.Wait()
				rec.Done(window[0].sent, 1)
				window = window[1:]
				return err
			}
			return Driver{
				Op: func(i int, rec *Recorder) error {
					sent := time.Now()
					window = append(window, inflight{wl.send(c, g, mix, w, i), sent})
					if len(window) < depth {
						return nil
					}
					return settle(rec)
				},
				Finish: func(rec *Recorder) error {
					for len(window) > 0 {
						if err := settle(rec); err != nil {
							c.Close() //nolint:errcheck // the settle error is the one to report
							return err
						}
					}
					return c.Close()
				},
			}, nil
		},
		Counters: func() []Metric { return wl.counters(srv) },
		Close: func() error {
			if err := srv.Shutdown(); err != nil {
				return err
			}
			return e.Close()
		},
	}, nil
}

// netProbe picks the i-th probe of worker w for a mix: the value,
// target class and hierarchy flag of one point query.
func netProbe(mix string, g *gen.Generated, w, i int) (oodb.Value, string, bool) {
	return g.EndValues[(w*7919+i)%len(g.EndValues)], wireTarget(mix), mix == "endpoint" && i%4 == 0
}

func runNet(rep *Report) error {
	rep.Workload = fmt.Sprintf("point reads over TCP loopback, pipeline depth %d", netDepth)
	err := runWire(rep, wireWorkload{
		conns:      []int{1, 8, 64, 256},
		embedBatch: netDepth,
		// The embedded arm calls the engine's Query directly, a run of
		// netDepth probes timed together; each probe waits the whole run's
		// wall time, which is what a caller whose request rides a
		// pipelined window observes.
		embedded: func(g *gen.Generated, e *engine.Engine, mix string, w int) (Driver, error) {
			return Driver{Op: func(i int, rec *Recorder) (err error) {
				t0 := time.Now()
				for k := 0; k < netDepth && err == nil; k++ {
					_, err = e.Query(netProbe(mix, g, w, i*netDepth+k))
				}
				rec.Done(t0, netDepth)
				return err
			}}, nil
		},
		send: func(c *netclient.Client, g *gen.Generated, mix string, w, i int) *netclient.Call {
			return c.GoQuery(netProbe(mix, g, w, i))
		},
		// batches/coalesced: how many requests rode a window another
		// request opened, in how many batches.
		counters: func(srv *netserver.Server) []Metric {
			_, batches, coalesced := srv.CoalesceStats()
			return []Metric{{"batches", float64(batches)}, {"coalesced", float64(coalesced)}}
		},
	})
	if err != nil {
		return err
	}
	// The socket tax on the wholepath mix (the engine does real
	// per-request work there), the pipelining and coalescing gains on the
	// endpoint mix (the wire's fixed costs dominate there, so they are
	// what the protocol must recover). The coalescing window's structural
	// wins — one writer wakeup and one WAL fsync per window — need durable
	// writes to show; on in-memory reads the last ratio sits near parity.
	rep.AddRatio("pipelined_over_sync_at_8_conns_endpoint",
		rep.Cell("mix", "endpoint", "arm", "net-pipelined", "conns", 8), rep.Cell("mix", "endpoint", "arm", "net-sync", "conns", 8))
	rep.AddRatio("embedded_over_net_at_64_conns_wholepath",
		rep.Cell("mix", "wholepath", "arm", "embedded", "conns", 64), rep.Cell("mix", "wholepath", "arm", "net-pipelined", "conns", 64))
	rep.AddRatio("coalesced_over_perrequest_at_256_conns_endpoint",
		rep.Cell("mix", "endpoint", "arm", "net-pipelined", "conns", 256), rep.Cell("mix", "endpoint", "arm", "net-perrequest", "conns", 256))
	return nil
}
