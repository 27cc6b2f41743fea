package main

import (
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/netclient"
	"repro/internal/netserver"
	"repro/internal/oodb"
	"repro/internal/wire"
)

// net_point: ending-level point queries over TCP loopback. The engine
// does one tiny probe per request, so frame codec, dispatcher hand-off
// and coalescing are the whole cost: wire and netserver optimisations
// show here, index and btree ones must not.
const netPointScale = 0.1

type netPoint struct {
	seed   int64
	e      *engine.Engine
	srv    *netserver.Server
	conns  []*netclient.Client // one per load client
	rngs   []*rand.Rand        // one per load client
	sync   *netclient.Client   // the passes' own depth-1 connection
	ops    []queryOp
	oracle *oracle
	replay *queryReplay

	loaded              bool // the loaded phase is over; coalesce holds what it moved
	requests, batches   uint64
	coalesced           uint64
	reqBytes, respBytes int
	payload, frame      []byte
	respPayload, rframe []byte
	decodedReq          wire.Request
	decodedResp         wire.Response
	tracedOps           int
}

// dialAll is what both network workloads share: listen on loopback, dial
// one connection per load client plus one for the passes.
func dialAll(srv *netserver.Server) (conns []*netclient.Client, sync *netclient.Client, err error) {
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i <= numClients(); i++ {
		c, err := netclient.Dial(addr.String())
		if err != nil {
			closeAll(conns, srv)
			return nil, nil, err
		}
		conns = append(conns, c)
	}
	return conns[:numClients()], conns[numClients()], nil
}

func closeAll(conns []*netclient.Client, srv *netserver.Server) error {
	for _, c := range conns {
		c.Close() //nolint:errcheck // the server's shutdown reports what matters
	}
	return srv.Shutdown()
}

func setupNetPoint(p params) (instance, error) {
	g, err := gen.Generate(model.Figure7Stats(), netPointScale*p.scale, dataSeed)
	if err != nil {
		return nil, err
	}
	cfg, err := servedConfig()
	if err != nil {
		return nil, err
	}
	e, err := engine.New(g.Store, g.Path, cfg, pageSize, engineOptions())
	if err != nil {
		return nil, err
	}
	x := &netPoint{seed: p.seed, e: e, replay: newQueryReplay(e), rngs: clientRNGs(p.seed)}
	for _, v := range g.EndValues {
		// hierarchy on every fourth op of the table, as E7's endpoint mix
		for k := 0; k < 4; k++ {
			x.ops = append(x.ops, queryOp{v: v, target: "Division", hier: k == 0})
		}
	}
	x.oracle = newOracle(func(op int) ([]oodb.OID, error) { return x.ops[op].naive(e) })
	x.srv = netserver.New(e, netserver.Options{Path: g.Path})
	if x.conns, x.sync, err = dialAll(x.srv); err != nil {
		return nil, err
	}
	return x, nil
}

func (x *netPoint) engines() []*engine.Engine { return []*engine.Engine{x.e} }

func (x *netPoint) pick(rng *rand.Rand) int { return rng.Intn(len(x.ops)) }

func (x *netPoint) load(client int, deadline time.Time, lat *[]int64, t *tally) {
	c := x.conns[client]
	pipeLoad(deadline, x.rngs[client], lat, t, x.pick, func(op int) *netclient.Call {
		o := x.ops[op]
		return c.GoQuery(o.v, o.target, o.hier)
	})
}

func (x *netPoint) pass(n int, tr *tracer, t *tally) time.Duration {
	defer func() { x.requests, x.batches, x.coalesced = x.srv.CoalesceStats() }()
	if tr != nil {
		tr.netRoot = true
	}
	rng := rand.New(rand.NewSource(passSeed(x.seed)))
	start := time.Now()
	for i := 0; i < n; i++ {
		op := x.pick(rng)
		o := x.ops[op]
		t0 := time.Now()
		oids, err := x.sync.Query(o.v, o.target, o.hier)
		d := time.Since(t0)
		t.done(op, oids, err)
		if tr == nil || err != nil {
			continue
		}
		root := tr.root(i, "netclient.sync_query", t0, d, 1)
		id := uint64(i + 1)

		t1 := time.Now()
		x.payload = wire.AppendQuery(x.payload[:0], id, o.v, o.target, o.hier)
		x.frame = wire.AppendFrame(x.frame[:0], x.payload)
		tr.child(root, "wire.encode_req", time.Since(t1), 1)

		t1 = time.Now()
		pl, _, derr := wire.DecodeFrame(x.frame)
		if derr == nil {
			derr = wire.DecodeRequest(pl, &x.decodedReq)
		}
		tr.child(root, "wire.decode_req", time.Since(t1), 1)

		answer, qerr := x.replay.query(tr, root, i, o.v, nil, o.target, o.hier)

		t1 = time.Now()
		x.respPayload = wire.AppendOKOIDs(x.respPayload[:0], id, answer)
		x.rframe = wire.AppendFrame(x.rframe[:0], x.respPayload)
		tr.child(root, "wire.encode_resp", time.Since(t1), 1)

		t1 = time.Now()
		pl, _, rerr := wire.DecodeFrame(x.rframe)
		if rerr == nil {
			rerr = wire.DecodeResponse(pl, &x.decodedResp)
		}
		tr.child(root, "wire.decode_resp", time.Since(t1), 1)

		if derr != nil || qerr != nil || rerr != nil {
			t.failed++
		}
		x.reqBytes += len(x.frame)
		x.respBytes += len(x.rframe)
		x.tracedOps++
	}
	return time.Since(start)
}

func (x *netPoint) verify(t *tally) { x.oracle.check(t) }

func (x *netPoint) layers(m *metricSet, tr *tracer) error {
	if err := netLayers(m, tr, x.sync); err != nil {
		return err
	}
	// What the loaded cell after the passes added to the server's counters.
	requests, batches, coalesced := x.srv.CoalesceStats()
	if batches -= x.batches; batches > 0 {
		m.set("netserver.batch_size", float64(requests-x.requests)/float64(batches))
		m.set("netserver.coalesced_frac", float64(coalesced-x.coalesced)/float64(requests-x.requests))
	}
	if x.tracedOps > 0 {
		m.set("wire.bytes_per_req", float64(x.reqBytes)/float64(x.tracedOps))
		m.set("wire.bytes_per_resp", float64(x.respBytes)/float64(x.tracedOps))
	}
	lookupMetrics(m, tr, x.replay)
	return commonLayers(m, x.engines())
}

// netLayers sets what both network workloads report about the client and
// the unexplained part of a round trip.
func netLayers(m *metricSet, tr *tracer, c *netclient.Client) error {
	var perr error
	m.set("netclient.rtt_us", perCallNS(500, func(int) {
		if err := c.Ping(); err != nil {
			perr = err
		}
	})/1e3)
	m.set("netclient.sync_query_us", tr.meanNS("netclient.sync_query")/1e3)
	m.set("netserver.unexplained_us", tr.reconcile().UnexplainedUS)
	return perr
}

func (x *netPoint) close() error {
	err := closeAll(append(x.conns, x.sync), x.srv)
	if cerr := x.e.Close(); err == nil {
		err = cerr
	}
	return err
}
