package main

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/netclient"
	"repro/internal/netserver"
	"repro/internal/oodb"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/wire"
)

// net_pred: predicate trees over the wire against a two-shard database,
// drawn from a bounded pool so identical trees collide in a coalescing
// window. Planner compile, shard pruning and shared descents dominate; it
// uses wire and netserver differently from net_point (tree codec and
// dedup instead of the point batch kernel), so a gain for one that costs
// the other shows.
const (
	netPredCohortScale = 0.05
	netPredShards      = 2
	netPredPool        = 64
	netPredPathID      = 1
)

// predOp is one pooled tree in both forms: what the client ships and what
// the planner and the oracle evaluate.
type predOp struct {
	wire   wire.PredNode
	plan   plan.Predicate
	leaves []queryOp // the tree's leaves, for the shard replay
	target string
}

type netPred struct {
	seed    int64
	db      *shard.DB
	srv     *netserver.Server
	conns   []*netclient.Client
	rngs    []*rand.Rand
	sync    *netclient.Client
	pool    []predOp
	oracle  *oracle
	planner *plan.Planner // the replay's own planner, as each dispatcher owns one
	replays []*queryReplay

	requests, descents  uint64 // the server's counters when the last pass ended
	probed, pruned      uint64
	reqBytes, respBytes int
	tracedOps           int
	payload, frame      []byte
	respPayload, rframe []byte
	decodedReq          wire.Request
	decodedResp         wire.Response
	a, b                []oodb.OID // operands of the intersect measurement
}

func setupNetPred(p params) (instance, error) {
	ps := model.Figure7Stats()
	stores, err := shard.NewStores(ps.Path.Schema(), pageSize, netPredShards)
	if err != nil {
		return nil, err
	}
	var endValues []oodb.Value
	for j, st := range stores {
		g, err := gen.GenerateShardIn(st, ps, netPredCohortScale*p.scale, dataSeed+int64(j), netPredShards)
		if err != nil {
			return nil, err
		}
		endValues = g.EndValues // every cohort draws from the same full-width domain
	}
	cfg, err := servedConfig()
	if err != nil {
		return nil, err
	}
	db, err := shard.Open(stores, ps.Path, cfg, pageSize, shard.Options{Engine: engineOptions()})
	if err != nil {
		return nil, err
	}
	x := &netPred{seed: p.seed, db: db, rngs: clientRNGs(p.seed), planner: plan.NewPlanner(nil)}
	if err := x.planner.Register(ps.Path, db, nil); err != nil {
		return nil, err
	}
	for i := 0; i < netPredShards; i++ {
		x.replays = append(x.replays, newQueryReplay(db.Shard(i)))
	}
	x.pool = newPredPool(ps, valuesInUse(endValues, db), p.seed)
	x.oracle = newOracle(x.naive)
	x.srv = netserver.New(db, netserver.Options{Path: ps.Path})
	if err := x.srv.RegisterPath(netPredPathID, ps.Path, db, nil); err != nil {
		return nil, err
	}
	if x.conns, x.sync, err = dialAll(x.srv); err != nil {
		return nil, err
	}
	return x, nil
}

// valuesInUse keeps, in order, the ending values that name at least one
// division. At this scale nearly half the generated domain names none:
// each cohort names its divisions from a random half of it. A pool of 64
// trees covers the domain about once; were some of its values empty, the
// pool's work would be a matter of how many of them the seed's rotation
// hit. An application asks for values its data holds.
func valuesInUse(endValues []oodb.Value, db *shard.DB) []oodb.Value {
	vals := append([]oodb.Value(nil), endValues...)
	sort.Slice(vals, func(i, j int) bool { return vals[i].Compare(vals[j]) < 0 })
	used := vals[:0]
	for _, v := range vals {
		if oids, err := db.Query(v, "Division", true); err == nil && len(oids) > 0 {
			used = append(used, v)
		}
	}
	return used
}

// newPredPool builds the seeded pool over the sorted values in use: Eq,
// Or(Eq, Eq) and And(Range, Or) in equal shares, targets alternating
// between the path's starting class and its ending level. A leaf's cost
// is the size of its answer and answer sizes vary several-fold, so the
// pool spreads its leaves evenly, per target: equality leaves take their
// values in a fixed stride through the domain and the ranges tile it, so
// each target's leaves cover every value about equally often and the
// pool's total work depends on the seed (which rotates the stride's
// start) as little as the data allows.
func newPredPool(ps *model.PathStats, vals []oodb.Value, seed int64) []predOp {
	n := len(vals)
	offset := rand.New(rand.NewSource(seed*31 + 7)).Intn(n)
	stride := 37
	for gcd(stride, n) != 1 {
		stride++
	}
	const rangesPerTarget = (netPredPool/3 + 1) / 2
	width := (n + rangesPerTarget - 1) / rangesPerTarget
	path := ps.Path
	pool := make([]predOp, 0, netPredPool)
	leaves, ranges := map[string]int{}, map[string]int{} // per target: slots handed out so far
	for i := 0; i < netPredPool; i++ {
		op := predOp{target: "Person"}
		if i%2 == 1 {
			op.target = "Division"
		}
		eq := func(v oodb.Value) (wire.PredNode, plan.Predicate) {
			op.leaves = append(op.leaves, queryOp{v: v, target: op.target})
			return wire.EqPred(netPredPathID, v), plan.Eq(path, v)
		}
		next := func() oodb.Value {
			k := leaves[op.target]
			leaves[op.target]++
			return vals[(offset+k*stride)%n]
		}
		switch i % 3 {
		case 0:
			op.wire, op.plan = eq(next())
		case 1:
			wa, pa := eq(next())
			wb, pb := eq(next())
			op.wire, op.plan = wire.OrPred(wa, wb), plan.Or(pa, pb)
		default:
			k := ranges[op.target]
			ranges[op.target]++
			lo := min(k*width, max(n-width-1, 0))
			hi := min(lo+width, n-1)
			rg := &rangeOf{lo: vals[lo], hi: vals[hi]}
			op.leaves = append(op.leaves, queryOp{rg: rg, target: op.target})
			// one disjunct inside the range, one anywhere: the conjunction is
			// neither always empty nor the range itself
			wa, pa := eq(vals[lo+k%max(hi-lo, 1)])
			wb, pb := eq(next())
			op.wire = wire.AndPred(wire.RangePred(netPredPathID, rg.lo, rg.hi), wire.OrPred(wa, wb))
			op.plan = plan.And(plan.Range(path, rg.lo, rg.hi), plan.Or(pa, pb))
		}
		pool = append(pool, op)
	}
	return pool
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// naive evaluates a pooled tree by plan.NaiveEval on each shard's store.
// A cohort's references never leave its store, so the union of the
// per-store answers is the dataset's answer.
func (x *netPred) naive(op int) ([]oodb.OID, error) {
	var all []oodb.OID
	for i := 0; i < x.db.NumShards(); i++ {
		oids, err := plan.NaiveEval(x.db.Store(i), x.pool[op].plan, x.pool[op].target, false)
		if err != nil {
			return nil, err
		}
		all = append(all, oids...)
	}
	return all, nil
}

func (x *netPred) engines() []*engine.Engine {
	es := make([]*engine.Engine, x.db.NumShards())
	for i := range es {
		es[i] = x.db.Shard(i)
	}
	return es
}

func (x *netPred) pick(rng *rand.Rand) int { return rng.Intn(len(x.pool)) }

func (x *netPred) load(client int, deadline time.Time, lat *[]int64, t *tally) {
	c := x.conns[client]
	pipeLoad(deadline, x.rngs[client], lat, t, x.pick, func(op int) *netclient.Call {
		return c.GoPredicate(&x.pool[op].wire, x.pool[op].target, false)
	})
}

func (x *netPred) pass(n int, tr *tracer, t *tally) time.Duration {
	defer func() { x.requests, x.descents = x.srv.PredicateStats() }()
	var probed0, pruned0 uint64
	if tr == nil {
		probed0, pruned0 = x.db.PruneCounters()
	} else {
		tr.netRoot = true
	}
	rng := rand.New(rand.NewSource(passSeed(x.seed)))
	start := time.Now()
	for i := 0; i < n; i++ {
		op := x.pick(rng)
		o := &x.pool[op]
		t0 := time.Now()
		oids, err := x.sync.Predicate(&o.wire, o.target, false)
		d := time.Since(t0)
		t.done(op, oids, err)
		if tr == nil || err != nil {
			continue
		}
		if !x.replay(tr, tr.root(i, "netclient.sync_query", t0, d, 1), i, o) {
			t.failed++
		}
		if len(oids) > len(x.a) {
			x.a, x.b = append([]oodb.OID(nil), oids...), x.a
		}
	}
	if tr == nil {
		probed, pruned := x.db.PruneCounters()
		x.probed, x.pruned = probed-probed0, pruned-pruned0
	}
	return time.Since(start)
}

// replay walks one request through tree codec → planner → shard fan-out →
// per-shard engine → response codec.
func (x *netPred) replay(tr *tracer, root, req int, o *predOp) bool {
	id := uint64(req + 1)
	t1 := time.Now()
	x.payload = wire.AppendPredicate(x.payload[:0], id, &o.wire, o.target, false)
	x.frame = wire.AppendFrame(x.frame[:0], x.payload)
	tr.child(root, "wire.pred_encode", time.Since(t1), 1)

	t1 = time.Now()
	pl, _, err := wire.DecodeFrame(x.frame)
	if err == nil {
		err = wire.DecodeRequest(pl, &x.decodedReq)
	}
	tr.child(root, "wire.pred_decode", time.Since(t1), 1)
	if err != nil {
		return false
	}

	t1 = time.Now()
	compiled, err := x.planner.Plan(o.plan, o.target, false)
	tr.child(root, "plan.compile", time.Since(t1), 1)
	if err != nil {
		return false
	}

	t1 = time.Now()
	answer, err := compiled.Execute()
	execSpan := tr.child(root, "plan.execute", time.Since(t1), 1)
	if err != nil {
		return false
	}
	for _, leaf := range o.leaves {
		t1 = time.Now()
		var oids []oodb.OID
		if leaf.rg != nil {
			oids, err = x.db.QueryRange(leaf.rg.lo, leaf.rg.hi, leaf.target, leaf.hier)
		} else {
			oids, err = x.db.Query(leaf.v, leaf.target, leaf.hier)
		}
		fan := tr.child(execSpan, "shard.query", time.Since(t1), 1)
		if err != nil {
			return false
		}
		if len(oids) == 0 {
			continue
		}
		// Every shard is replayed, a pruned one too: the harness cannot see
		// which shards the summaries skipped, and a shard with nothing to
		// say answers from one empty probe.
		for _, q := range x.replays {
			if _, err := q.query(tr, fan, req, leaf.v, leaf.rg, leaf.target, leaf.hier); err != nil {
				return false
			}
		}
	}

	t1 = time.Now()
	x.respPayload = wire.AppendOKOIDs(x.respPayload[:0], id, answer)
	x.rframe = wire.AppendFrame(x.rframe[:0], x.respPayload)
	tr.child(root, "wire.encode_resp", time.Since(t1), 1)

	t1 = time.Now()
	pl, _, err = wire.DecodeFrame(x.rframe)
	if err == nil {
		err = wire.DecodeResponse(pl, &x.decodedResp)
	}
	tr.child(root, "wire.decode_resp", time.Since(t1), 1)
	x.reqBytes += len(x.frame)
	x.respBytes += len(x.rframe)
	x.tracedOps++
	return err == nil
}

func (x *netPred) verify(t *tally) { x.oracle.check(t) }

func (x *netPred) layers(m *metricSet, tr *tracer) error {
	if err := netLayers(m, tr, x.sync); err != nil {
		return err
	}
	// What the loaded cell after the passes added to the server's counters.
	requests, descents := x.srv.PredicateStats()
	if requests -= x.requests; requests > 0 {
		m.set("netserver.descents_per_req", float64(descents-x.descents)/float64(requests))
	}
	if total := x.probed + x.pruned; total > 0 {
		m.set("shard.pruned_frac", float64(x.pruned)/float64(total))
	}
	if x.tracedOps > 0 {
		m.set("wire.bytes_per_req", float64(x.reqBytes)/float64(x.tracedOps))
		m.set("wire.bytes_per_resp", float64(x.respBytes)/float64(x.tracedOps))
	}
	if n := len(x.a) + len(x.b); n > 0 {
		var dst []oodb.OID
		m.set("exec.intersect_ns_per_oid", perCallNS(200, func(int) {
			dst = exec.IntersectSortedOIDs(dst[:0], x.a, x.b)
		})/float64(n))
	}
	lookupMetrics(m, tr, x.replays...)
	return commonLayers(m, x.engines())
}

func (x *netPred) close() error {
	err := closeAll(append(x.conns, x.sync), x.srv)
	if cerr := x.db.Close(); err == nil {
		err = cerr
	}
	return err
}
