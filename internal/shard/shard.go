// Package shard composes N independent lifecycle engines into one
// OID-hash-partitioned database — the horizontal scaling step between
// the single-engine serving path and a multi-backend deployment.
//
// Partitioning model. The OID space is split into residue classes:
// shard i's store only ever mints OIDs congruent to i mod N
// (oodb.NewStoreSeq), so routing an OID-keyed write — an update or a
// delete entry of Apply — is one modulo, a pure function of the OID that
// stays correct for the object's whole lifetime with no directory to
// maintain or rebalance. Value queries have no OID to hash: they ask
// every shard whose summary admits the value (summary.go) and merge the
// per-shard answers, which are disjoint sorted runs (the shards partition
// the OID space), so the merged result is bit-identical to evaluating
// against one store holding everything — the shard-equivalence
// differential test enforces exactly this. Each shard is a part (Parts,
// plan.Partitioned), so a planner over the database runs a whole
// predicate tree once per shard and merges once, at the root, instead of
// merging every leaf.
//
// Reference locality. The paper's model navigates forward references
// during query evaluation and index maintenance (NIX cascades, PX
// regrafting), so an object's referenced objects must be resident in its
// shard: a path instance never crosses a shard boundary. Apply routes an
// insert to the shard owning its references (and rejects references
// spanning shards); an object with no references — the start
// of a new path-instance tree — is placed round-robin, or explicitly
// with InsertAt when the caller wants to co-locate a tree it is about to
// grow. This is the co-location contract of partitioned relational
// stores (interleaved tables, colocated distribution keys) transplanted
// to the aggregation hierarchy.
//
// Per-shard selection. Each shard is a complete engine.Engine: its own
// store, index set, workload recorder and drift-triggered
// reconfiguration. The paper's cost model holds per partition — a
// shard's statistics describe exactly the objects and traffic it serves
// — so Advise and Reconfigure run the Section 5 selection independently
// per shard, and a hot, update-heavy shard can settle on a
// cheap-to-maintain split while a cold, query-heavy one keeps the
// whole-path NIX (the per-partition advising CoPhy's decomposition and
// Meta's AIM argue for). Because a value query reaches every shard its
// summary admits, read load spreads across shards while write load
// partitions; it is write locality that makes per-shard mixes — and
// therefore per-shard optima — diverge. A shard's class recorder counts
// the probes that shard executed, no others. Each shard's engine is the
// one home of its workload: RecordPredicate counts a planner leaf on
// every shard, so every shard prices the mix the database served.
// WorkloadSnapshot rolls the per-shard recorders up into the fleet-wide
// view; Drift aggregates the per-shard drifts.
//
// Concurrency. The facade adds no locking of its own, and the read path
// spawns nothing: a value query walks the shards its summaries admit in
// shard order on the calling goroutine, each shard answering under its
// engine's usual atomic-snapshot discipline, so read concurrency is
// exactly the caller's (dispatchers, embedded workers). Measured on the
// hosts we have, a goroutine per shard never paid for a probe of a few
// microseconds (DESIGN.md §7.5). Writes partition across the per-shard
// write locks, so N shards admit N concurrent writers where the single
// engine serializes on one, and Apply runs its per-shard sub-batches
// concurrently because their commits — fsyncs, on a durable database —
// overlap.
package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/oodb"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/stats"
)

// ErrCrossShard reports an insert or update whose reference attributes
// point at objects living in different shards (or in a shard other than
// the routed one). The partitioning model keeps every path instance
// within one shard; co-locate the referenced objects (InsertAt places a
// new tree's root explicitly) or re-link within the owning shard.
var ErrCrossShard = errors.New("shard: references span shards")

// Options tune a sharded database.
type Options struct {
	// Engine is applied to every shard's lifecycle engine: each shard
	// gets its own recorder and auto-tuning loop over these shared
	// settings. Per-shard divergence comes from the traffic, not the
	// options.
	Engine engine.Options
}

// DB is an OID-hash-partitioned database: N independent lifecycle
// engines behind one facade. Point writes route by OID residue; value
// queries ask the admitted shards and merge; selection and
// reconfiguration run per shard. See the package comment for the
// partitioning model.
type DB struct {
	path   *schema.Path
	shards []*engine.Engine
	stores []*oodb.Store
	rr     atomic.Uint64 // round-robin cursor for reference-free inserts

	// sums holds the per-shard ending-value summaries (see summary.go).
	// probed and pruned count shard descents executed and skipped by the
	// summaries.
	sums   *summaries
	probed atomic.Uint64
	pruned atomic.Uint64

	parts []plan.Source // one *part per shard, in shard order
}

// assemble finishes a database over its opened engines: the summaries
// from the stores' contents and one probe part per shard.
func assemble(p *schema.Path, stores []*oodb.Store, engines []*engine.Engine) *DB {
	db := &DB{path: p, stores: stores, shards: engines, sums: newSummaries(p, stores)}
	for s := range engines {
		db.parts = append(db.parts, &part{db: db, s: s})
	}
	return db
}

// NewStores creates n empty stores over the schema whose OID sequences
// partition the OID space into residue classes: store i mints only OIDs
// congruent to i mod n. Populate them (directly, or through a DB after
// Open) and pass them to Open.
func NewStores(s *schema.Schema, pageSize, n int) ([]*oodb.Store, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	stores := make([]*oodb.Store, n)
	for i := range stores {
		first := oodb.OID(i)
		if i == 0 {
			first = oodb.OID(n) // zero is never a valid OID
		}
		st, err := oodb.NewStoreSeq(s, pageSize, first, uint64(n))
		if err != nil {
			return nil, err
		}
		stores[i] = st
	}
	return stores, nil
}

// New creates an empty n-shard database over the schema, every shard
// starting on cfg. The stores are created with NewStores; populate
// through Insert/InsertAt.
func New(s *schema.Schema, p *schema.Path, cfg core.Configuration, pageSize, n int, opts Options) (*DB, error) {
	stores, err := NewStores(s, pageSize, n)
	if err != nil {
		return nil, err
	}
	return Open(stores, p, cfg, pageSize, opts)
}

// Open builds a sharded database over pre-populated stores (one shard
// per store, in slice order), every shard starting on cfg. Each store's
// OID sequence must match its slot — stride len(stores), residue i —
// so that routing by OID residue resolves every object to the store
// actually holding it; stores from NewStores satisfy this.
func Open(stores []*oodb.Store, p *schema.Path, cfg core.Configuration, pageSize int, opts Options) (*DB, error) {
	n := len(stores)
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 store")
	}
	if p == nil {
		return nil, fmt.Errorf("shard: nil path")
	}
	engines := make([]*engine.Engine, n)
	for i, st := range stores {
		if st == nil {
			return nil, fmt.Errorf("shard: nil store at slot %d", i)
		}
		next, stride := st.OIDSeq()
		if stride != uint64(n) || int(next%oodb.OID(n)) != i%n {
			return nil, fmt.Errorf("shard: store at slot %d allocates OIDs (next %d, stride %d); want stride %d with residue %d — create the stores with shard.NewStores", i, next, stride, n, i)
		}
		e, err := engine.New(st, p, cfg, pageSize, opts.Engine)
		if err != nil {
			return nil, fmt.Errorf("shard: opening shard %d: %w", i, err)
		}
		engines[i] = e
	}
	return assemble(p, stores, engines), nil
}

// NumShards returns the number of shards.
func (db *DB) NumShards() int { return len(db.shards) }

// ShardOf resolves an OID to the shard holding it — one modulo, the
// routing function every OID-keyed operation uses.
func (db *DB) ShardOf(oid oodb.OID) int { return int(oid % oodb.OID(len(db.shards))) }

// Shard returns shard i's lifecycle engine, for per-shard inspection and
// control (per-shard Advise/Reconfigure, workload snapshots, index
// stats).
func (db *DB) Shard(i int) *engine.Engine { return db.shards[i] }

// Store returns shard i's object store.
func (db *DB) Store(i int) *oodb.Store { return db.stores[i] }

// Path returns the indexed path.
func (db *DB) Path() *schema.Path { return db.path }

// Len returns the total number of live objects across shards.
func (db *DB) Len() int {
	var n int
	for _, st := range db.stores {
		n += st.Len()
	}
	return n
}

// refShard scans attrs for reference values and returns the one shard
// they all live in; -1 when attrs hold no references. References
// spanning shards report ErrCrossShard.
func (db *DB) refShard(attrs map[string][]oodb.Value) (int, error) {
	target := -1
	for name, vals := range attrs {
		for _, v := range vals {
			if v.Kind != oodb.RefVal {
				continue
			}
			s := db.ShardOf(v.Ref)
			if target == -1 {
				target = s
			} else if target != s {
				return 0, fmt.Errorf("%w: %s references object %d in shard %d, but an earlier reference lives in shard %d", ErrCrossShard, name, v.Ref, s, target)
			}
		}
	}
	return target, nil
}

// Insert stores a new object: Apply with one insert.
func (db *DB) Insert(class string, attrs map[string][]oodb.Value) (oodb.OID, error) {
	ws := []exec.Write{{Kind: exec.WriteInsert, Class: class, Attrs: attrs}}
	err := db.Apply(ws)[0]
	return ws[0].OID, err
}

// InsertAt stores a new object on an explicit shard — how a caller
// co-locates the objects of a path-instance tree it is about to link
// together. Reference attributes, if any, must already live on that
// shard.
func (db *DB) InsertAt(i int, class string, attrs map[string][]oodb.Value) (oodb.OID, error) {
	if i < 0 || i >= len(db.shards) {
		return 0, fmt.Errorf("shard: no shard %d (have %d)", i, len(db.shards))
	}
	target, err := db.refShard(attrs)
	if err != nil {
		return 0, err
	}
	if target >= 0 && target != i {
		return 0, fmt.Errorf("%w: attributes reference shard %d, object placed on shard %d", ErrCrossShard, target, i)
	}
	oid, err := db.shards[i].Insert(class, attrs)
	if err == nil {
		db.sums.noteWrite(i, class, attrs)
	}
	return oid, err
}

// Update applies an in-place update: Apply with one update.
func (db *DB) Update(oid oodb.OID, attrs map[string][]oodb.Value) error {
	return db.Apply([]exec.Write{{OID: oid, Attrs: attrs}})[0]
}

// route returns the shard an entry writes to. An insert goes to the shard
// owning its references, or round-robin when it has none — the root of a
// new path-instance tree (InsertAt places one explicitly); an update or a
// delete goes to the shard owning its OID. References spanning shards, or
// an update re-linking its object to another shard, report ErrCrossShard.
func (db *DB) route(w *exec.Write) (int, error) {
	if w.Kind == exec.WriteDelete {
		return db.ShardOf(w.OID), nil
	}
	target, err := db.refShard(w.Attrs)
	switch {
	case err != nil:
		return 0, err
	case w.Kind == exec.WriteInsert && target < 0:
		return int((db.rr.Add(1) - 1) % uint64(len(db.shards))), nil
	case w.Kind == exec.WriteInsert:
		return target, nil
	}
	s := db.ShardOf(w.OID)
	if target >= 0 && target != s {
		return 0, fmt.Errorf("%w: update of object %d (shard %d) references shard %d", ErrCrossShard, w.OID, s, target)
	}
	return s, nil
}

// Apply applies a batch of writes (engine.Engine.Apply), each entry routed
// once (route) into its shard's sub-batch, which keeps the batch's order —
// one lock hold and one commit on its shard. Sub-batches run concurrently
// when more than one shard has entries, so the batch's writes genuinely
// partition and, on a durable database, its fsyncs overlap; each shard's
// summary notes its sub-batch's new ending values once it is applied. The
// result has one error per entry in batch order, nil on success; a failed
// entry never stops the rest, and one that cannot be routed fails alone
// without reaching a shard. A successful insert's OID is filled into its
// entry.
func (db *DB) Apply(ws []exec.Write) []error {
	errs := make([]error, len(ws))
	subs := make([][]exec.Write, len(db.shards))
	at := make([][]int, len(db.shards)) // batch position of each entry of subs[s]
	routed := 0
	for i := range ws {
		s, err := db.route(&ws[i])
		if errs[i] = err; err == nil {
			subs[s] = append(subs[s], ws[i])
			at[s] = append(at[s], i)
			routed++
		}
	}
	var wg sync.WaitGroup
	for s, sub := range subs {
		run := func() {
			for k, err := range db.shards[s].Apply(sub) {
				i := at[s][k]
				if errs[i], ws[i].OID = err, sub[k].OID; err == nil {
					db.noteWrite(s, &ws[i])
				}
			}
		}
		switch {
		case len(sub) == routed:
			run()
		case len(sub) > 0:
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
			}()
		}
	}
	wg.Wait()
	return errs
}

// noteWrite feeds an applied insert's or update's new ending values into
// the owning shard's summary; an update's class comes from a lock-only
// Peek, which a later entry's delete leaves nothing to note for.
func (db *DB) noteWrite(s int, w *exec.Write) {
	if _, ok := w.Attrs[db.sums.endAttr]; !ok || w.Kind == exec.WriteDelete {
		return
	}
	class := w.Class
	if obj, ok := db.stores[s].Peek(w.OID); ok && w.Kind == exec.WriteUpdate {
		class = obj.Class
	}
	db.sums.noteWrite(s, class, w.Attrs)
}

// part is one shard seen as a probe source, the one home of the pruning
// check: a probe the shard's summary excludes answers empty without a
// descent and counts as pruned (see summary.go); any other descends into
// the shard's engine and counts as probed.
type part struct {
	db *DB
	s  int
}

// admit counts one probe of the part as probed or pruned and reports
// whether it descends.
func (p *part) admit(mayMatch bool) bool {
	if !mayMatch {
		p.db.pruned.Add(1)
		return false
	}
	p.db.probed.Add(1)
	return true
}

// QueryHops is DB.QueryHops on the part's shard: each hop the summary
// excludes counts as pruned and is dropped, each other counts as probed,
// and the hops left descend into the shard's engine as one chain,
// appending to dst — none left, and the part answers empty without a
// descent.
func (p *part) QueryHops(dst []oodb.OID, hops []exec.Hop, within []oodb.OID, targetClass string, hierarchy bool) ([]oodb.OID, int, error) {
	sum := p.db.sums.per[p.s]
	var room [16]exec.Hop // the kept hops; only a larger group spills to the heap
	kept := room[:0]
	for _, h := range hops {
		if p.admit(h.Ranged && sum.MayMatchRange(h.Lo, h.Hi) || !h.Ranged && sum.MayMatchEq(h.Lo)) {
			kept = append(kept, h)
		}
	}
	if len(kept) == 0 {
		return dst, 0, nil
	}
	return p.db.shards[p.s].QueryHops(dst, kept, within, targetClass, hierarchy)
}

// Parts returns one probe source per shard, in shard order
// (plan.Partitioned): the database's answer to any probe is the disjoint
// union of theirs, because the shards partition the OID space and no
// path instance crosses a shard. A planner over the database therefore
// runs a predicate tree once per shard and merges once, at the root.
// Each part prunes and counts exactly as QueryHops does.
func (db *DB) Parts() []plan.Source { return slices.Clone(db.parts) }

// partRuns is the pooled memory DB.QueryHops collects its shards' answers
// in before it merges them into the caller's dst.
type partRuns struct {
	buf  []oodb.OID
	runs [][]oodb.OID
}

var partRunsPool = sync.Pool{New: func() any { return new(partRuns) }}

// QueryHops answers a disjunction of first hops for targetClass
// (plan.Source) on every shard, in shard order on the calling goroutine,
// and merges the per-shard answers — disjoint sorted runs — into one
// sorted run appended to dst. A nil dst gets a fresh answer of its exact
// size, nil when empty; a reused one makes the call allocation-free once
// the pooled scratch the shards answer into is warm (it keeps no more
// than exec.KeptOIDs). A shard answers only the hops its summary admits,
// as one chain, and one whose summary admits none is skipped (see
// summary.go). within, when non-nil, restricts every shard's answer to
// that sorted candidate set. produced sums the shards' counts
// (engine.Engine.QueryHops). The first failing shard ends the walk with
// its error and dst as it was passed.
func (db *DB) QueryHops(dst []oodb.OID, hops []exec.Hop, within []oodb.OID, targetClass string, hierarchy bool) ([]oodb.OID, int, error) {
	sc := partRunsPool.Get().(*partRuns)
	defer func() {
		clear(sc.runs)
		sc.runs = sc.runs[:0]
		if sc.buf = sc.buf[:0]; cap(sc.buf) > exec.KeptOIDs {
			sc.buf = nil
		}
		partRunsPool.Put(sc)
	}()
	produced := 0
	for _, p := range db.parts {
		base := len(sc.buf)
		out, n, err := p.QueryHops(sc.buf, hops, within, targetClass, hierarchy)
		if err != nil {
			return dst, 0, err
		}
		sc.buf = out
		sc.runs = append(sc.runs, out[base:])
		produced += n
	}
	return exec.MergeKSortedOIDs(dst, sc.runs...), produced, nil
}

// Query evaluates A_n = value for targetClass across every shard whose
// summary admits the value and merges the answers — matching objects
// can live anywhere in the partitioned OID space, but a shard whose
// ending-value summary excludes the probed value provably holds no
// match and is skipped (see summary.go). The merged result is sorted and
// duplicate-free, bit-identical to the same query against a single
// engine holding all the objects.
func (db *DB) Query(value oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	out, _, err := db.QueryHops(nil, []exec.Hop{{Lo: value}}, nil, targetClass, hierarchy)
	return out, err
}

// QueryRange evaluates A_n IN [lo, hi) for targetClass across every
// shard whose summarized value interval overlaps the range, merging as
// Query does.
func (db *DB) QueryRange(lo, hi oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	out, _, err := db.QueryHops(nil, []exec.Hop{{Lo: lo, Hi: hi, Ranged: true}}, nil, targetClass, hierarchy)
	return out, err
}

// Advise runs one re-selection pass per shard — each over its own
// collected statistics and observed workload, the facade's predicate mix
// included (see RecordPredicate) — without touching any active
// configuration. Advice comes back in shard order.
func (db *DB) Advise() ([]engine.Advice, error) {
	out := make([]engine.Advice, len(db.shards))
	for i, e := range db.shards {
		adv, err := e.Advise()
		if err != nil {
			return out, fmt.Errorf("shard %d: %w", i, err)
		}
		out[i] = adv
	}
	return out, nil
}

// Reconfigure runs one observe → re-select → diff-build → swap cycle on
// every shard, each independently: a hot shard can swap to a
// maintenance-light configuration while a cold one keeps what it has.
// Reports come back in shard order; the first failing shard stops the
// sweep (earlier shards keep their new configurations).
func (db *DB) Reconfigure() ([]engine.Report, error) {
	out := make([]engine.Report, len(db.shards))
	for i, e := range db.shards {
		rep, err := e.Reconfigure()
		out[i] = rep
		if err != nil {
			return out, fmt.Errorf("shard %d: %w", i, err)
		}
		// The reconfiguration pass is the natural re-tightening point for
		// the shard's summary: rebuild it from the store, shedding the
		// over-approximation deletions have accumulated.
		db.sums.per[i].rebuild(db.stores[i], db.path)
	}
	return out, nil
}

// RebuildSummaries rebuilds every shard's ending-value summary from its
// store's current contents. Required after writing directly through a
// shard's engine (db.Shard(i).Insert and friends bypass the facade's
// summary maintenance); harmless any other time.
func (db *DB) RebuildSummaries() {
	for i, st := range db.stores {
		db.sums.per[i].rebuild(st, db.path)
	}
}

// PruneCounters returns the cumulative shard-descent accounting of the
// value-query path: probed counts (shard, probe) descents actually
// executed, pruned counts descents skipped because the shard's summary
// excluded the probed value. Their sum is the descent count an
// unpruned deployment would have paid.
func (db *DB) PruneCounters() (probed, pruned uint64) {
	return db.probed.Load(), db.pruned.Load()
}

// RecordPredicate counts one planner predicate-leaf evaluation
// (plan.PredicateSink) on every shard's engine. The planner forwards a
// leaf once per execution when any shard ran it, so the leaf describes
// the shape of the traffic the database served (or, for a residual leaf,
// would absorb with an index) — not a fraction to be split. Each shard's
// selection, drift, auto-tune and checkpoint then see the mix as they
// see their own traffic.
func (db *DB) RecordPredicate(path string, kind stats.PredKind) {
	for _, e := range db.shards {
		e.RecordPredicate(path, kind)
	}
}

// Configs returns the active configuration of every shard, in shard
// order — after reconfiguration under skewed traffic these genuinely
// differ.
func (db *DB) Configs() []core.Configuration {
	out := make([]core.Configuration, len(db.shards))
	for i, e := range db.shards {
		out[i] = e.Config()
	}
	return out
}

// WorkloadSnapshots returns each shard's recorded traffic — the
// per-partition statistics its next selection will run on.
func (db *DB) WorkloadSnapshots() []stats.Workload {
	out := make([]stats.Workload, len(db.shards))
	for i, e := range db.shards {
		out[i] = e.WorkloadSnapshot()
	}
	return out
}

// WorkloadSnapshot returns the fleet-wide roll-up of the per-shard
// recorders. It aggregates shard-level work: a value query contributes
// one query per shard that executed a probe for it — the
// capacity-relevant count; shards the summaries pruned did no work and
// record nothing. Write operations, which route to exactly one shard,
// each count once. A planner leaf recorded through RecordPredicate
// counts once per shard, as every shard's selection counts it.
func (db *DB) WorkloadSnapshot() stats.Workload {
	return stats.MergeWorkloads(db.WorkloadSnapshots()...)
}

// DriftView is the aggregate drift over a sharded database: per-shard
// drifts plus the two fleet-level summaries a re-selection policy wants
// — the worst shard and the traffic-weighted mean.
type DriftView struct {
	// PerShard is each shard's own drift (engine.Drift), shard order.
	PerShard []float64
	// Max is the largest per-shard drift: the trigger view, since
	// reconfiguration is per shard and the worst shard reconfigures
	// first.
	Max float64
	// Weighted is the mean of the per-shard drifts weighted by each
	// shard's observed operation count — low when only idle shards have
	// drifted.
	Weighted float64
}

// Drift returns the aggregate drift view across shards. Each shard's
// drift and its weight come from one recorder snapshot, so the weight
// counts exactly the traffic the drift was computed over.
func (db *DB) Drift() DriftView {
	v := DriftView{PerShard: make([]float64, len(db.shards))}
	var wsum, osum float64
	for i, e := range db.shards {
		w, d := e.DriftStats()
		v.PerShard[i] = d
		if d > v.Max {
			v.Max = d
		}
		ops := float64(w.Total)
		wsum += d * ops
		osum += ops
	}
	if osum > 0 {
		v.Weighted = wsum / osum
	}
	return v
}

// ResetStats zeroes every shard's index counters.
func (db *DB) ResetStats() {
	for _, e := range db.shards {
		e.ResetStats()
	}
}

// Swaps returns the total number of configuration swaps across shards.
func (db *DB) Swaps() uint64 {
	var n uint64
	for _, e := range db.shards {
		n += e.Swaps()
	}
	return n
}

// Quiesce blocks until every shard's in-flight background
// reconfiguration has finished.
func (db *DB) Quiesce() {
	for _, e := range db.shards {
		e.Quiesce()
	}
}
