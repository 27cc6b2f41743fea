package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/stats"
)

// passSeed derives the counted and traced passes' op sequence from the
// run's seed; both passes replay the same sequence.
func passSeed(seed int64) int64 { return seed*7919 + 1 }

// clientRNGs returns one op-sequence generator per load client; each
// lives as long as its instance, so successive cells continue the stream.
func clientRNGs(seed int64) []*rand.Rand {
	rngs := make([]*rand.Rand, numClients())
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(seed*104729 + int64(c) + 2))
	}
	return rngs
}

// queryOp is one point or range query of a read workload's op table.
type queryOp struct {
	v      oodb.Value
	rg     *rangeOf
	target string
	hier   bool
}

// naive answers op by the repo's own oracle: store scans and forward
// navigation, no index.
func (op queryOp) naive(e *engine.Engine) ([]oodb.OID, error) {
	if op.rg != nil {
		return exec.NaiveQueryRange(e.Store(), e.Path(), op.rg.lo, op.rg.hi, op.target, op.hier)
	}
	return exec.NaiveQuery(e.Store(), e.Path(), op.v, op.target, op.hier)
}

// oracle caches the reference answer of every op of a finite op table, so
// each is computed once however many samples name it.
type oracle struct {
	eval func(op int) ([]oodb.OID, error)
	want map[int]fingerprint
}

func newOracle(eval func(op int) ([]oodb.OID, error)) *oracle {
	return &oracle{eval: eval, want: map[int]fingerprint{}}
}

// maxOracleOps bounds the distinct ops one check evaluates by the oracle.
// The oracles scan whole classes — some 17 ms an op at the benchmark's
// scale — so answering for every op of a table would cost more than the
// measurement; samples of ops beyond the bound go unchecked.
const maxOracleOps = 64

// check compares the sampled answers with the oracle's; a mismatch is a
// failed op. The samples are consumed. Reference answers not yet cached
// are computed first, one worker per client CPU.
func (o *oracle) check(t *tally) {
	var missing []int
	for _, s := range t.samples {
		if _, ok := o.want[s.op]; !ok && len(missing) < maxOracleOps {
			o.want[s.op] = fingerprint{}
			missing = append(missing, s.op)
		}
	}
	got := make([]fingerprint, len(missing))
	errs := make([]error, len(missing))
	var wg sync.WaitGroup
	for w := 0; w < numClients(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(missing); i += numClients() {
				oids, err := o.eval(missing[i])
				got[i], errs[i] = fingerprintOf(oodb.SortUnique(oids)), err
			}
		}(w)
	}
	wg.Wait()
	for i, op := range missing {
		if errs[i] != nil {
			got[i] = fingerprint{n: -1} // matches no answer
		}
		o.want[op] = got[i]
	}
	for _, s := range t.samples {
		if want, ok := o.want[s.op]; ok && s.fp != want {
			t.failed++
		}
	}
	t.samples = t.samples[:0]
}

// predictedQueryPages is the cost model's page accesses for one equality
// query with respect to target under the engine's served configuration,
// composed the way ProcessingCost composes a configuration: the owning
// subpath answers for the class, every later subpath for the hierarchy
// that starts it. The statistics are collected from the live store, as
// experiment V1 does it.
func predictedQueryPages(e *engine.Engine, target string) (float64, error) {
	ps, err := stats.Collect(e.Store(), e.Path(), model.PaperParams())
	if err != nil {
		return 0, err
	}
	level, err := exec.PathLevel(e.Path(), target)
	if err != nil {
		return 0, err
	}
	var total float64
	for _, a := range e.Config().Assignments {
		if a.B < level {
			continue
		}
		ev, err := cost.NewEvaluator(ps, a.A, a.B, a.Org)
		if err != nil {
			return 0, err
		}
		var q float64
		if a.A <= level {
			q, err = ev.Query(level, target)
		} else {
			q, err = ev.QueryHierarchy(a.A)
		}
		if err != nil {
			return 0, err
		}
		total += q
	}
	return total, nil
}

// pointPages counts the index pages the counted pass's point queries read.
type pointPages struct {
	ops, pages uint64
}

// modelMetrics sets the cost model's prediction beside what was measured.
func (pp pointPages) modelMetrics(m *metricSet, e *engine.Engine, target string) error {
	pred, err := predictedQueryPages(e, target)
	if err != nil {
		return err
	}
	m.set("cost.pred_pages_per_query", pred)
	if pp.ops > 0 && pp.pages > 0 {
		meas := float64(pp.pages) / float64(pp.ops)
		m.set("cost.model_err_pct", 100*math.Abs(pred-meas)/meas)
	}
	return nil
}

// commonLayers sets the per-layer metrics every workload with an engine
// shares: tree geometry, store sizes and access time, and the time to
// build the served configuration's index set.
func commonLayers(m *metricSet, engines []*engine.Engine) error {
	height, leaves := 0, 0
	for _, e := range engines {
		for _, ix := range e.Indexes() {
			for _, t := range treesOf(ix, e.Path()) {
				height = max(height, t.Height())
				leaves += t.LeafPages()
			}
		}
	}
	sizes := sizesOf(engines)
	m.set("btree.height", float64(height))
	m.set("btree.leaf_pages", float64(leaves))
	m.set("oodb.objects", float64(sizes["objects"]))
	m.set("oodb.store_pages", float64(sizes["store_pages"]))

	e := engines[0]
	var oids []oodb.OID
	for _, cn := range e.Path().Scope() {
		oids = append(oids, e.Store().OIDsOfClass(cn)...)
	}
	if len(oids) > 0 {
		rng := rand.New(rand.NewSource(1))
		rng.Shuffle(len(oids), func(i, j int) { oids[i], oids[j] = oids[j], oids[i] })
		var gerr error
		m.set("oodb.get_ns", perCallNS(20000, func(i int) {
			if _, err := e.Store().Get(oids[i%len(oids)]); err != nil {
				gerr = err
			}
		}))
		if gerr != nil {
			return fmt.Errorf("oodb.get: %w", gerr)
		}
	}
	t0 := time.Now()
	if _, err := exec.NewIndexSet(e.Store(), e.Path(), e.Config(), pageSize, nil); err != nil {
		return err
	}
	m.set("exec.indexset_build_s", time.Since(t0).Seconds())
	return nil
}
