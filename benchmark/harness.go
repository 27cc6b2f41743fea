package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/netclient"
	"repro/internal/oodb"
)

// Constants of the benchmark. They are the same on every commit: a run is
// comparable with another only because none of these is a flag.
const (
	numSetups     = 5    // set-ups per run; setup_s is their median
	cellsPerSetup = 2    // timed cells on each set-up; every timing is the median of all of them
	sampleEvery   = 64   // one op in 64 is checked against the repo's oracle
	netDepth      = 16   // requests each network client keeps in flight
	maxClients    = 2    // closed-loop clients, capped by the host's CPUs
	defaultPass   = 2000 // ops in the counted and in the traced pass
)

// numClients is min(2, nproc): the load comes from one process and never
// from more clients than the host has CPUs.
func numClients() int { return min(maxClients, runtime.NumCPU()) }

// params carries what the smoke test shrinks; the benchmark itself always
// runs the values productionParams returns.
type params struct {
	seed    int64
	cell    time.Duration // one timed cell; a run measures cellsPerSetup on each set-up
	warm    time.Duration // untimed load on each set-up before its cells
	setups  int           // set-ups per run; setup_s is their median
	passOps int           // ops in the counted and in the traced pass
	scale   float64       // multiplies every workload's data scale (1 in the benchmark)
	out     string        // directory for traces and durable-engine files
}

func productionParams(seed int64, seconds int) params {
	return params{
		seed:    seed,
		cell:    time.Duration(seconds) * time.Second / (numSetups * cellsPerSetup),
		warm:    500 * time.Millisecond,
		setups:  numSetups,
		passOps: defaultPass,
		scale:   1,
		out:     "out",
	}
}

// A workload builds instances of the system under one traffic mix.
type workload struct {
	name  string
	setup func(p params) (instance, error)
}

// An instance is one set-up system plus the traffic that drives it.
type instance interface {
	// engines lists every engine holding indexes and a store, for the
	// page and space metrics.
	engines() []*engine.Engine
	// load runs one closed-loop client until the deadline, appending each
	// op's submit-to-reply latency in nanoseconds to lat.
	load(client int, deadline time.Time, lat *[]int64, t *tally)
	// pass runs n ops from one client, one at a time, in a sequence fixed
	// by the seed. With a tracer each op is then replayed layer by layer.
	pass(n int, tr *tracer, t *tally) time.Duration
	// verify checks the sampled answers against the oracle; it runs
	// outside every timed window.
	verify(t *tally)
	// layers reports the workload's per-layer metrics, after the traced
	// pass and the loaded cell that follows it.
	layers(m *metricSet, tr *tracer) error
	close() error
}

// tally counts ops and holds the sampled answers of one client.
type tally struct {
	attempted int64
	failed    int64 // errors plus wrong answers
	samples   []sample
}

// sample is one op's answer kept for the oracle: the op's index in the
// workload's op table and the fingerprint of what came back.
type sample struct {
	op int
	fp fingerprint
}

type fingerprint struct {
	n    int
	hash uint64
}

func fingerprintOf(oids []oodb.OID) fingerprint {
	h := uint64(14695981039346656037)
	for _, o := range oids {
		h = (h ^ uint64(o)) * 1099511628211
	}
	return fingerprint{n: len(oids), hash: h}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.samples = append(t.samples, o.samples...)
}

// count records one completed op and reports whether its answer is one
// of the sampled ones.
func (t *tally) count(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		return false
	}
	return t.attempted%sampleEvery == 0
}

// done records one completed op, keeping a sampled answer's fingerprint.
func (t *tally) done(op int, oids []oodb.OID, err error) {
	if t.count(err) {
		t.samples = append(t.samples, sample{op: op, fp: fingerprintOf(oids)})
	}
}

// syncLoad is the embedded closed loop: one op at a time until the
// deadline. do returns the answer, valid until the next call.
func syncLoad(deadline time.Time, rng *rand.Rand, lat *[]int64, t *tally, pick func(*rand.Rand) int, do func(op int) ([]oodb.OID, error)) {
	for {
		op := pick(rng)
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		oids, err := do(op)
		*lat = append(*lat, int64(time.Since(t0)))
		t.done(op, oids, err)
	}
}

// pipeLoad is the network closed loop: the client holds up to netDepth
// futures and submits the next request when the oldest reply arrives.
func pipeLoad(deadline time.Time, rng *rand.Rand, lat *[]int64, t *tally, pick func(*rand.Rand) int, start func(op int) *netclient.Call) {
	type inflight struct {
		call *netclient.Call
		sent time.Time
		op   int
	}
	var window [netDepth]inflight
	head, n := 0, 0
	settle := func() {
		f := window[head]
		head, n = (head+1)%netDepth, n-1
		oids, err := f.call.Wait()
		*lat = append(*lat, int64(time.Since(f.sent)))
		t.done(f.op, oids, err)
	}
	for {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		op := pick(rng)
		window[(head+n)%netDepth] = inflight{call: start(op), sent: now, op: op}
		if n++; n == netDepth {
			settle()
		}
	}
	for n > 0 {
		settle()
	}
}

// cellStats is what one timed cell measured.
type cellStats struct {
	ops      int
	opsPerS  float64
	p50, p99 float64 // microseconds
}

// runCell drives every client for d and folds their latencies.
func runCell(in instance, d time.Duration, t *tally) cellStats {
	n := numClients()
	lats := make([][]int64, n)
	tallies := make([]tally, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			in.load(c, deadline, &lats[c], &tallies[c])
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []int64
	for c := range lats {
		all = append(all, lats[c]...)
		t.merge(&tallies[c])
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	cs := cellStats{ops: len(all)}
	if len(all) > 0 {
		cs.opsPerS = float64(len(all)) / elapsed.Seconds()
		cs.p50 = float64(percentile(all, 50)) / 1e3
		cs.p99 = float64(percentile(all, 99)) / 1e3
	}
	return cs
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// quantile interpolates linearly between the order statistics of an
// ascending slice, q in [0,1].
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// summarize folds repetitions into median and quartiles.
func summarize(vals []float64) measured {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return measured{Value: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// counters is one reading of every counter the counted pass compares.
type counters struct {
	indexReads, indexWrites uint64
	storeReads, storeWrites uint64
	storeHits               uint64
	walBytes, fsyncs        uint64
	mallocs                 uint64
}

func readCounters(engines []*engine.Engine) counters {
	var c counters
	for _, e := range engines {
		is := e.IndexStats()
		c.indexReads += is.Reads
		c.indexWrites += is.Writes
		ss := e.Store().Pager().Stats()
		c.storeReads += ss.Reads
		c.storeWrites += ss.Writes
		c.storeHits += ss.Hits
		ds := e.DurabilityStats()
		c.walBytes += ds.WALBytes
		c.fsyncs += ds.Fsyncs
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	return c
}

func (c counters) sub(o counters) counters {
	return counters{
		indexReads: c.indexReads - o.indexReads, indexWrites: c.indexWrites - o.indexWrites,
		storeReads: c.storeReads - o.storeReads, storeWrites: c.storeWrites - o.storeWrites,
		storeHits: c.storeHits - o.storeHits,
		walBytes:  c.walBytes - o.walBytes, fsyncs: c.fsyncs - o.fsyncs,
		mallocs: c.mallocs - o.mallocs,
	}
}

func (c counters) pages() uint64 {
	return c.indexReads + c.indexWrites + c.storeReads + c.storeWrites
}

// result is one run of one workload.
type result struct {
	Workload  string              `json:"workload"`
	Traced    bool                `json:"traced"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
	Recon     *reconciliation     `json:"reconciliation,omitempty"`
	Sizes     map[string]int      `json:"sizes,omitempty"`
}

// runWorkload is the run shape every workload shares. Untraced: several
// set-ups, each timed; the first also serves the counted pass; every one
// is warmed up and then measured for cellsPerSetup timed cells, so the
// cells' median is taken over several builds of the system and not over
// the memory layout one of them happened to get. Traced: one set-up,
// counted pass → traced pass → one loaded cell → per-layer metrics. The
// oracle checks come last, outside every timed window.
func runWorkload(w workload, spec *benchSpec, p params, traced bool) (res result, err error) {
	res = result{Workload: w.name, Traced: traced}
	var (
		in                    instance
		t                     tally
		setups, ops, p50, p99 []float64
		heapMB                float64
		indexPages            int
		counted               counters
		untracedD, tracedD    time.Duration
		tr                    *tracer
	)
	closeInstance := func() {
		if in == nil {
			return
		}
		if cerr := in.close(); err == nil && cerr != nil {
			err = fmt.Errorf("%s: close: %w", w.name, cerr)
		}
		in = nil
	}
	defer closeInstance()

	n := p.setups
	if traced {
		n = 1
	}
	for i := 0; i < n; i++ {
		if closeInstance(); err != nil {
			return res, err
		}
		t0 := time.Now()
		if in, err = w.setup(p); err != nil {
			return res, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == 0 {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heapMB = float64(ms.HeapAlloc) / (1 << 20)
			for _, e := range in.engines() {
				indexPages += liveIndexPages(e)
			}
			res.Sizes = sizesOf(in.engines())
			if x, ok := in.(interface{ extraSizes(map[string]int) }); ok {
				x.extraSizes(res.Sizes)
			}
			// The counted pass runs on the system exactly as set-up left it:
			// one client and a seeded op sequence, so its counters repeat for
			// a seed whatever the timed cells go on to do.
			before := readCounters(in.engines())
			untracedD = in.pass(p.passOps, nil, &t)
			counted = readCounters(in.engines()).sub(before)
			if traced {
				tr = newTracer()
				tracedD = in.pass(p.passOps, tr, &t)
			}
		}
		runCell(in, p.warm, &t)
		for c := 0; c < cellsPerSetup; c++ {
			cs := runCell(in, p.cell, &t)
			ops, p50, p99 = append(ops, cs.opsPerS), append(p50, cs.p50), append(p99, cs.p99)
		}
	}
	in.verify(&t)
	ops1 := float64(p.passOps)

	if !traced {
		m := newMetricSet(spec.EndToEnd)
		m.setMeasured("setup_s", summarize(setups))
		m.setMeasured("ops_per_s", summarize(ops))
		m.setMeasured("p50_us", summarize(p50))
		m.setMeasured("p99_us", summarize(p99))
		m.set("pages_per_op", float64(counted.pages())/ops1)
		m.set("index_pages", float64(indexPages))
		m.set("live_heap_mb", heapMB)
		res.Metrics = m.vals
	} else {
		// The cells above were the loaded phase: they moved the counters only
		// load moves — coalescing, shared descents, checkpoints.
		m := newMetricSet(spec.PerLayer)
		m.set("storage.index_reads_per_op", float64(counted.indexReads)/ops1)
		m.set("storage.index_writes_per_op", float64(counted.indexWrites)/ops1)
		m.set("storage.store_reads_per_op", float64(counted.storeReads)/ops1)
		if acc := counted.storeReads + counted.storeHits; acc > 0 {
			m.set("storage.store_hit_rate", float64(counted.storeHits)/float64(acc))
		}
		m.set("engine.allocs_per_op", float64(counted.mallocs)/ops1)
		m.set("trace.overhead_pct", 100*(tracedD-untracedD).Seconds()/tracedD.Seconds())
		tr.meanInto(m)
		if err := in.layers(m, tr); err != nil {
			return res, fmt.Errorf("%s: layer metrics: %w", w.name, err)
		}
		rec := tr.reconcile()
		res.Recon = &rec
		if err := tr.write(filepath.Join(p.out, fmt.Sprintf("trace-%s.json", w.name))); err != nil {
			return res, err
		}
		res.Metrics = m.vals
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	return res, nil
}
