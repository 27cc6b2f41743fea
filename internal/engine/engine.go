// Package engine is the lifecycle manager that turns the paper's one-shot
// selection into a self-tuning system. An Engine owns an object store, the
// working indexes of the current configuration, and the workload loop the
// paper leaves to the administrator:
//
//	record   — every query, insert, update and delete is counted per
//	           class by a lock-free recorder on the execution paths;
//	drift    — the observed operation mix is compared against the load
//	           distribution the current configuration was selected for;
//	re-select — when drift exceeds the threshold, statistics are
//	           re-collected from the live store, the observed frequencies
//	           are merged in, and the Section 5 algorithm runs again;
//	diff-build — only the subpath indexes absent from the current
//	           configuration are built; identical (subpath, organization)
//	           assignments keep their live, continuously maintained
//	           structures;
//	swap     — the new index set is published atomically. Queries in
//	           flight finish on the set they started with; they never see
//	           a half-built configuration.
//
// Reads are never blocked by reconfiguration: queries take a snapshot of
// the active set through an atomic pointer. Writes — one Apply over a
// batch, of which Insert, Update and Delete are batches of one — serialize
// with the build-and-swap so the new set is loaded from a stable store;
// after the swap the retired set is drained before any maintenance touches
// the structures the new set adopted.
//
// An Engine is deliberately self-contained — store, index set, recorder,
// pager counters and tuning state are all per-instance, with no
// process-wide registries — so engines compose: internal/shard runs N of
// them as the shards of one OID-hash-partitioned database, each
// recording and re-selecting for its own partition's traffic (the
// two-shard isolation test pins the absence of cross-instance bleed).
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Options tune the engine's reconfiguration loop. The zero value gives a
// manually driven engine: workload recording always on, drift available
// on demand, reconfiguration only when Reconfigure or ApplyConfiguration
// is called.
type Options struct {
	// Params are the physical parameters used when re-collecting
	// statistics for re-selection. Zero means DefaultParams with the
	// engine's page size.
	Params model.Params
	// Assumed carries the design-time statistics and workload the initial
	// configuration was selected for; its load triplets are the drift
	// baseline until the first reconfiguration. Nil means no assumption:
	// any observed traffic counts as maximal drift.
	Assumed *model.PathStats
	// MinOps is the observed-operation count below which drift is
	// reported as zero (too little evidence). Zero means the 64 default.
	MinOps uint64
	// CheckEvery, when positive, has the engine check drift every that
	// many operations and launch a background reconfiguration when it
	// reaches driftThreshold. Zero disables automatic tuning.
	CheckEvery uint64
}

// driftThreshold is the total-variation distance at which the auto-tuner
// reconfigures.
const driftThreshold = 0.25

func (o Options) withDefaults(pageSize int) Options {
	if o.Params == (model.Params{}) {
		o.Params = model.DefaultParams()
		o.Params.PageSize = pageSize
	}
	if o.MinOps == 0 {
		o.MinOps = 64
	}
	return o
}

// Advice is the outcome of one re-selection pass.
type Advice struct {
	// Config is the configuration the selection algorithm recommends for
	// the refreshed statistics.
	Config core.Configuration
	// Current is the configuration that was active when the advice was
	// computed.
	Current core.Configuration
	// Changed reports whether Config differs from Current.
	Changed bool
	// Stats are the exact statistics the recommendation was computed
	// from: cardinalities re-collected from the live store, loads merged
	// from the observed workload (or carried over from the baseline when
	// too little traffic was recorded). Re-running core.Select on them
	// reproduces Config bit for bit.
	Stats *model.PathStats
	// Drift is the load drift at advice time.
	Drift float64
	// Search reports the selection procedure's work.
	Search core.SelectionStats
}

// Report describes one applied (or skipped) reconfiguration.
type Report struct {
	From, To core.Configuration
	// Changed is false when the recommendation matched the active
	// configuration and no swap happened.
	Changed bool
	// Reused counts index structures adopted from the previous set;
	// Built counts structures newly constructed and bulk-loaded.
	Reused, Built int
	// Drift is the load drift that motivated the reconfiguration.
	Drift float64
}

// Engine is a lifecycle-managed database: a store, the working indexes of
// the active configuration, a workload recorder, and the drift-triggered
// reconfiguration controller.
type Engine struct {
	store    *oodb.Store
	path     *schema.Path
	pageSize int
	opts     Options

	active atomic.Pointer[exec.IndexSet]

	// writeMu serializes store mutations and configuration swaps: the
	// replacement set must be bulk-loaded from a store no insert or
	// delete is changing. Queries never take it.
	writeMu sync.Mutex

	rec      *stats.Recorder
	preds    *stats.PredRecorder             // observed planner predicate mix
	baseline atomic.Pointer[model.PathStats] // loads the active config was selected for

	ops        atomic.Uint64 // operations since the last auto check window
	tuning     atomic.Bool   // a background reconfiguration is in flight
	bg         sync.WaitGroup
	swaps      atomic.Uint64
	failStreak atomic.Uint64            // consecutive failed auto-tunes, for backoff
	lastTune   atomic.Pointer[AutoTune] // most recent auto-tune outcome

	// dur is the durability state (WAL, checkpointing) of an engine opened
	// with OpenDurable; nil for an in-memory engine. Guarded by writeMu.
	dur *durable
}

// AutoTune records one background reconfiguration attempt: the report of
// what happened (or was about to happen) and the error, if it failed.
type AutoTune struct {
	Report Report
	Err    error
}

// New builds the working indexes of cfg over the store's current contents
// and returns the managed engine.
func New(st *oodb.Store, p *schema.Path, cfg core.Configuration, pageSize int, opts Options) (*Engine, error) {
	if st == nil || p == nil {
		return nil, fmt.Errorf("engine: nil store or path")
	}
	opts = opts.withDefaults(pageSize)
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{store: st, path: p, pageSize: pageSize, opts: opts, rec: stats.NewRecorder(p), preds: stats.NewPredRecorder()}
	set, err := exec.NewIndexSet(st, p, cfg, pageSize, e.rec)
	if err != nil {
		return nil, err
	}
	e.active.Store(set)
	if opts.Assumed != nil {
		e.baseline.Store(opts.Assumed)
	}
	return e, nil
}

// snapshot returns the active set read-locked against maintenance. The
// re-check after locking closes the window in which a swap completes —
// and writers resume — between loading the pointer and locking the set.
func (e *Engine) snapshot() *exec.IndexSet {
	for {
		s := e.active.Load()
		s.RLock()
		if e.active.Load() == s {
			return s
		}
		s.RUnlock()
	}
}

// Query evaluates A_n = value for targetClass through the active
// configuration: QueryHops with one point hop and a fresh answer. Queries
// run against an atomic snapshot of the index set and are never blocked
// by an in-flight reconfiguration.
func (e *Engine) Query(value oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	return e.QueryInto(nil, value, targetClass, hierarchy)
}

// QueryHops answers a disjunction of first hops as one Proposition 4.1
// chain through the active configuration, optionally restricted to a
// sorted candidate set, and appends the answer to dst (plan.Source): a nil
// dst gets a fresh answer of its exact size, a reused one makes the call
// allocation-free (exec.IndexSet.QueryHops says what produced counts and
// what dst holds on error). It runs against an atomic snapshot of the
// index set and counts each hop as one operation.
func (e *Engine) QueryHops(dst []oodb.OID, hops []exec.Hop, within []oodb.OID, targetClass string, hierarchy bool) ([]oodb.OID, int, error) {
	s := e.snapshot()
	dst, produced, err := s.QueryHops(dst, hops, within, targetClass, hierarchy)
	s.RUnlock()
	e.maybeAutoTune(uint64(len(hops)))
	return dst, produced, err
}

// QueryInto is Query appending the result to dst — the allocation-free
// serving kernel: with a reused dst a steady-state point query performs
// no heap allocation end to end (snapshot, record, index probes, result).
func (e *Engine) QueryInto(dst []oodb.OID, value oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	hop := [1]exec.Hop{{Lo: value}}
	dst, _, err := e.QueryHops(dst, hop[:], nil, targetClass, hierarchy)
	return dst, err
}

// QueryRange evaluates A_n IN [lo, hi) for targetClass through the
// active configuration: QueryHops with one range hop and a fresh answer.
func (e *Engine) QueryRange(lo, hi oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	hop := [1]exec.Hop{{Lo: lo, Hi: hi, Ranged: true}}
	out, _, err := e.QueryHops(nil, hop[:], nil, targetClass, hierarchy)
	return out, err
}

// Apply applies a batch of writes — inserts, updates and deletes, in input
// order — to the store and the active configuration (exec.IndexSet.Apply):
// one error per entry, nil on success, and a successful insert's OID
// filled into its entry. Each write is recorded as its own operation kind,
// so a write-heavy mix drifts like any other. The batch holds writeMu once,
// serializing with configuration swaps as a whole, so on a durable engine
// it is a group commit: each successful entry is logged as the object it
// stored and the batch committed once, after writeMu is released. A nil
// error then means the entry survives a crash (per the WAL commit policy);
// when logging or the commit fails, no entry is acknowledged.
func (e *Engine) Apply(ws []exec.Write) []error {
	return e.write(ws, make([]error, len(ws)), make([]*oodb.Object, len(ws)))
}

// write is Apply into the caller's errs and stored.
func (e *Engine) write(ws []exec.Write, errs []error, stored []*oodb.Object) []error {
	e.writeMu.Lock()
	e.active.Load().Apply(e.store, ws, errs, stored)
	var pos uint64 // end of the batch's last record; 0 when none was logged
	var err error
	for i := range ws {
		if e.dur != nil && errs[i] == nil && err == nil {
			pos, err = e.logLocked(&ws[i], stored[i])
		}
	}
	e.writeMu.Unlock()
	if err = e.settle(pos, err, len(ws)); err != nil {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = err
			}
		}
	}
	return errs
}

// writeOne is a batch of one write, kept on the stack.
func (e *Engine) writeOne(w exec.Write) (oodb.OID, error) {
	ws, errs, stored := [1]exec.Write{w}, [1]error{}, [1]*oodb.Object{}
	e.write(ws[:], errs[:], stored[:])
	return ws[0].OID, errs[0]
}

// Insert stores a new object: Apply with one insert.
func (e *Engine) Insert(class string, attrs map[string][]oodb.Value) (oodb.OID, error) {
	return e.writeOne(exec.Write{Kind: exec.WriteInsert, Class: class, Attrs: attrs})
}

// Update replaces attributes of an object in place, values and reference
// re-links alike: Apply with one update.
func (e *Engine) Update(oid oodb.OID, attrs map[string][]oodb.Value) error {
	_, err := e.writeOne(exec.Write{OID: oid, Attrs: attrs})
	return err
}

// UpdateBatch is Apply over a batch of updates.
func (e *Engine) UpdateBatch(ups []exec.Update) []error { return e.Apply(ups) }

// Delete removes an object: Apply with one delete.
func (e *Engine) Delete(oid oodb.OID) error {
	_, err := e.writeOne(exec.Write{Kind: exec.WriteDelete, OID: oid})
	return err
}

// Store returns the engine's object store.
func (e *Engine) Store() *oodb.Store { return e.store }

// Path returns the path the engine indexes.
func (e *Engine) Path() *schema.Path { return e.path }

// Config returns the active configuration.
func (e *Engine) Config() core.Configuration { return e.active.Load().Config() }

// Indexes returns the active set's structures in assignment order; for
// inspection (e.g. asserting structure reuse across a swap).
func (e *Engine) Indexes() []index.PathIndex { return e.active.Load().Indexes() }

// IndexStats sums the page-access counters over the active set.
func (e *Engine) IndexStats() storage.Stats { return e.active.Load().Stats() }

// ResetStats zeroes the active set's counters.
func (e *Engine) ResetStats() { e.active.Load().ResetStats() }

// Swaps returns how many configuration swaps the engine has performed.
func (e *Engine) Swaps() uint64 { return e.swaps.Load() }

// WorkloadSnapshot returns the recorded traffic since the last
// reconfiguration (or reset): the class-level counters plus the live
// predicate mix, which refines the load derivation (range
// reclassification, residual query mass — see stats.MergeObserved). It is
// what selection and drift consume.
func (e *Engine) WorkloadSnapshot() stats.Workload {
	w := e.rec.Snapshot()
	w.Predicates = e.preds.Snapshot()
	return w
}

// RecordPredicate counts one planner predicate-leaf evaluation against a
// path — the multi-path feedback channel: when the engine serves as a
// planner source, every conjunct or disjunct leaf it answers (and every
// residual the planner verified around it) lands here, and
// WorkloadSnapshot exposes the mix so re-selection tooling (SelectMulti
// over the co-occurring paths) sees real predicate traffic instead of
// single-path counts. The class-level recorder still counts the leaf's
// query for drift purposes; this channel adds the path identity and the
// indexed/residual split that the class counters erase.
func (e *Engine) RecordPredicate(path string, kind stats.PredKind) {
	e.preds.Record(path, kind)
}

// Drift returns the total-variation distance between the load
// distribution the active configuration was selected for and the
// observed workload; zero until MinOps operations are recorded.
func (e *Engine) Drift() float64 {
	_, d := e.DriftStats()
	return d
}

// DriftStats returns one workload snapshot together with the drift it
// implies — for callers that need both consistently (the sharded
// aggregate weights each shard's drift by the operation count of the
// very snapshot the drift was computed from). Residual predicate leaves
// count as evidence alongside the class-level operations: a path served
// entirely by store navigation still accumulates drift against a
// baseline that assumed no query traffic.
func (e *Engine) DriftStats() (stats.Workload, float64) {
	w := e.WorkloadSnapshot()
	if w.EvidenceFor(e.path.String()) < e.opts.MinOps {
		return w, 0
	}
	base := e.baseline.Load()
	if base == nil {
		return w, 1
	}
	return w, stats.LoadDrift(base, w)
}

// Advise re-collects statistics from the live store, merges the observed
// workload frequencies in — class counters and the recorded predicate
// mix together — and runs the selection algorithm, without touching the
// active configuration. The returned advice carries the exact PathStats
// used, so the recommendation is reproducible offline.
func (e *Engine) Advise() (Advice, error) {
	adv := Advice{Current: e.Config(), Drift: e.Drift()}
	ps, err := e.observedStats()
	if err != nil {
		return adv, err
	}
	res, _, err := core.Select(ps, cost.Organizations)
	if err != nil {
		return adv, err
	}
	adv.Stats = ps
	adv.Config = res.Best
	adv.Search = res.Stats
	adv.Changed = !adv.Config.Equal(adv.Current)
	return adv, nil
}

// observedStats builds the PathStats re-selection runs on: cardinalities
// scanned from the live store, loads from the observed workload when
// there is enough of it, else from the baseline assumption. With neither
// it errors — selecting on all-zero load triplets would swap to an
// arbitrary tie-broken configuration justified by no evidence. Evidence
// counts the recorded class-level operations plus the path's residual
// predicate leaves: traffic an index would absorb is evidence for
// selecting one, even when every probe fell back to store navigation.
func (e *Engine) observedStats() (*model.PathStats, error) {
	ps, err := stats.Collect(e.store, e.path, e.opts.Params)
	if err != nil {
		return nil, err
	}
	w := e.WorkloadSnapshot()
	if w.EvidenceFor(e.path.String()) >= e.opts.MinOps {
		if err := stats.MergeObserved(ps, w); err != nil {
			return nil, err
		}
		return ps, nil
	}
	base := e.baseline.Load()
	if base == nil {
		return nil, fmt.Errorf("engine: no workload evidence to select on (fewer than %d operations recorded and no assumed baseline)", e.opts.MinOps)
	}
	for l := 1; l <= ps.Len(); l++ {
		copy(ps.Level(l).Loads, base.Level(l).Loads)
	}
	return ps, nil
}

// Reconfigure runs one full observe → re-select → diff-build → swap
// cycle synchronously. When the recommendation matches the active
// configuration no swap happens (Report.Changed is false), but the drift
// baseline still advances to the statistics just confirmed.
func (e *Engine) Reconfigure() (Report, error) {
	adv, err := e.Advise()
	if err != nil {
		return Report{From: adv.Current, Drift: adv.Drift}, err
	}
	return e.apply(adv.Config, adv.Stats, adv.Drift)
}

// ApplyConfiguration swaps the engine to an explicit configuration,
// bypassing selection — the manual override. Unchanged assignments keep
// their live structures. The drift baseline becomes the observed
// workload (when enough was recorded), so the auto-tuner measures future
// drift against the traffic the operator's choice is serving rather than
// the assumption behind the previous configuration.
func (e *Engine) ApplyConfiguration(cfg core.Configuration) (Report, error) {
	var used *model.PathStats
	if w := e.WorkloadSnapshot(); w.EvidenceFor(e.path.String()) >= e.opts.MinOps {
		ps := model.NewPathStats(e.path, e.opts.Params)
		if err := stats.MergeObserved(ps, w); err == nil {
			used = ps
		}
	}
	return e.apply(cfg, used, e.Drift())
}

func (e *Engine) apply(cfg core.Configuration, used *model.PathStats, drift float64) (Report, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	old := e.active.Load()
	rep := Report{From: old.Config(), To: cfg, Drift: drift}
	if cfg.Equal(old.Config()) {
		// Selection confirmed the active configuration: adopt the
		// statistics it was confirmed on. A manual no-op (no stats)
		// keeps the window — recorded evidence is not discarded.
		if used != nil {
			e.adoptBaseline(used)
		}
		return rep, nil
	}
	// A condemned engine refuses a swap as it refuses writes: an operation
	// whose page write failed may be half-applied in the store (its class
	// lists an object the catalog never took), which no bulk load can read.
	if e.dur != nil {
		if err := e.durabilityErrLocked(); err != nil {
			return rep, err
		}
	}
	// Diff-build: writers are paused (writeMu), so the store is stable
	// while the new assignments bulk-load; queries keep flowing against
	// the old set.
	next, err := exec.NewIndexSetReusing(e.store, e.path, cfg, e.pageSize, e.rec, old)
	if err != nil {
		return rep, err
	}
	e.active.Store(next)
	// Wait out readers still on the retired set before writers resume:
	// the new set adopted some of its structures.
	old.Drain()
	rep.Changed = true
	rep.Reused = next.Reused()
	rep.Built = len(cfg.Assignments) - next.Reused()
	e.adoptBaseline(used)
	e.swaps.Add(1)
	// A durable engine persists the new configuration by checkpointing:
	// cfg rides in the checkpoint's trailer, so it takes effect with the
	// rename that publishes the data it describes, and a crash mid-swap
	// (or mid-rebuild above) recovers the old configuration over fully
	// correct data.
	if e.dur != nil {
		if err := e.checkpointLocked(); err != nil {
			return rep, fmt.Errorf("engine: persisting configuration: %w", err)
		}
	}
	return rep, nil
}

// adoptBaseline makes ps (when provided) the new drift baseline and
// starts a fresh observation window.
func (e *Engine) adoptBaseline(ps *model.PathStats) {
	if ps != nil {
		e.baseline.Store(ps)
	}
	e.rec.Reset()
	e.preds.Reset()
	e.ops.Store(0)
}

// maybeAutoTune credits n operations and checks drift every CheckEvery
// of them — the check fires when the window boundary is crossed anywhere
// within the n — launching a background reconfiguration when it exceeds
// the threshold. At most one reconfiguration is in flight at a time;
// after a failed attempt the check window doubles (capped at 64x), so a
// persistently failing swap does not become a repeating burst of
// background collect-and-build work. Failures are visible through
// LastAutoTune.
func (e *Engine) maybeAutoTune(n uint64) {
	every := e.opts.CheckEvery
	if every == 0 || n == 0 {
		return
	}
	if streak := e.failStreak.Load(); streak > 0 {
		every <<= min(streak, 6)
	}
	if v := e.ops.Add(n); v/every == (v-n)/every {
		return
	}
	if !e.tuning.CompareAndSwap(false, true) {
		return
	}
	// Drift is read under the flag: read before it, a reconfiguration
	// finishing in between — window reset, flag cleared — would let this
	// check launch a second one on the drift the first already acted on.
	if e.Drift() < driftThreshold {
		e.tuning.Store(false)
		return
	}
	e.bg.Add(1)
	go func() {
		defer e.bg.Done()
		defer e.tuning.Store(false)
		rep, err := e.Reconfigure()
		e.lastTune.Store(&AutoTune{Report: rep, Err: err})
		if err != nil {
			e.failStreak.Add(1)
		} else {
			e.failStreak.Store(0)
		}
	}()
}

// LastAutoTune returns the most recent background reconfiguration
// attempt — including a failed one, whose Err is set — or false if none
// has completed.
func (e *Engine) LastAutoTune() (AutoTune, bool) {
	at := e.lastTune.Load()
	if at == nil {
		return AutoTune{}, false
	}
	return *at, true
}

// Quiesce blocks until any in-flight background reconfiguration has
// finished; for orderly shutdown and deterministic tests.
func (e *Engine) Quiesce() { e.bg.Wait() }
