package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/storage"
	"repro/internal/wal"
)

// durable_write: an embedded durable engine, flush policy SyncAlways, a
// buffer pool of one eighth of the store's pages, and a write-heavy mix
// over Zipf-chosen objects. Index maintenance, B-tree writes, pager
// misses, WAL append and fsync, and automatic checkpoints dominate: the
// write side of the layers embed_path only reads. The run ends with a
// power cut in the middle of the mix and a timed recovery, and checks
// every acknowledged write against a reference.
const (
	durableScale      = 0.05
	durablePoolShare  = 8         // pool pages = store pages / 8: the working set does not fit
	durableCheckpoint = 512 << 10 // WAL bytes per automatic checkpoint: several land in the timed cells
	durableBatch      = 16
	zipfS             = 1.1
)

type writeKind int

const (
	kUpdate writeKind = iota
	kInsert
	kDelete
	kBatch
	kRead
	numKinds
)

var kindSpan = [numKinds]string{"engine.update", "engine.insert", "engine.delete", "engine.update_batch", "engine.query"}

// pickKind draws from the mix: 40 % update, 15 % insert, 10 % delete,
// 15 % batch of 16 updates, 20 % point read.
func pickKind(rng *rand.Rand) writeKind {
	switch r := rng.Intn(100); {
	case r < 40:
		return kUpdate
	case r < 55:
		return kInsert
	case r < 65:
		return kDelete
	case r < 80:
		return kBatch
	default:
		return kRead
	}
}

// population is the preloaded dataset as the mix addresses it.
type population struct {
	levels [][]oodb.OID // the objects of each path level, shuffled; Zipf ranks index them
	class  map[oodb.OID]string
	attrs  map[string]pathAttr // by class
	values []oodb.Value        // the ending attribute's domain
}

// levelShare is the share of updates each path level receives, in
// percent: fixed, so that which class the hottest object happens to be of
// does not change the mix from seed to seed. Persons are most of the data
// and most of the writes.
var levelShare = []int{80, 12, 4, 4}

// pathAttr is how the mix rewrites one class's attribute along the path:
// k references drawn from pool, or one of the domain's values at the
// ending level.
type pathAttr struct {
	name string
	pool []oodb.OID
	k    int
}

func newPopulation(g *gen.Generated, seed int64) *population {
	p := g.Path
	pop := &population{class: map[oodb.OID]string{}, attrs: map[string]pathAttr{}, values: g.EndValues, levels: make([][]oodb.OID, p.Len())}
	rng := rand.New(rand.NewSource(seed*31 + 11))
	for l := 1; l <= p.Len(); l++ {
		for _, cn := range p.HierarchyAt(l) {
			pop.levels[l-1] = append(pop.levels[l-1], g.ByClass[cn]...)
			for _, oid := range g.ByClass[cn] {
				pop.class[oid] = cn
			}
		}
		lv := pop.levels[l-1]
		rng.Shuffle(len(lv), func(i, j int) { lv[i], lv[j] = lv[j], lv[i] })
	}
	for l := 1; l <= p.Len(); l++ {
		a := pathAttr{name: p.Attr(l), k: 1}
		if l < p.Len() {
			a.pool = pop.levels[l]
		}
		if p.MultiValuedAt(l) {
			a.k = 2
		}
		for _, cn := range p.HierarchyAt(l) {
			pop.attrs[cn] = a
		}
	}
	return pop
}

// writer is one client's side of the mix. Clients own disjoint slices of
// every level (rank mod clients), so no two write the same object and the
// reference each keeps is exact whatever the interleaving.
type writer struct {
	pop  *population
	id   int
	n    int // number of clients
	rng  *rand.Rand
	zipf []*rand.Zipf // per level
	mine []oodb.OID   // persons this client inserted and has not deleted
	// ref is what every acknowledged write left behind: the object's
	// path-attribute values, nil once deleted.
	ref  map[oodb.OID][]oodb.Value
	dst  []oodb.OID
	ups  []exec.Update
	last []oodb.OID // objects the last op addressed
	did  writeKind  // the kind the last op ran as
}

func newWriter(pop *population, id, n int, seed int64) *writer {
	w := &writer{pop: pop, id: id, n: n, rng: rand.New(rand.NewSource(seed*104729 + int64(id) + 2)), ref: map[oodb.OID][]oodb.Value{}}
	for _, lv := range pop.levels {
		w.zipf = append(w.zipf, rand.NewZipf(w.rng, zipfS, 1, uint64(max(len(lv)/n, 1)-1)))
	}
	return w
}

// target draws one of the client's objects: the level by its fixed share,
// the object within the level by Zipf rank, hot ranks first.
func (w *writer) target() oodb.OID {
	l, r := 0, w.rng.Intn(100)
	for r >= levelShare[l] {
		r -= levelShare[l]
		l++
	}
	lv := w.pop.levels[l]
	return lv[(int(w.zipf[l].Uint64())*w.n+w.id)%len(lv)]
}

func refsTo(rng *rand.Rand, pool []oodb.OID, k int) []oodb.Value {
	vals := make([]oodb.Value, 0, k)
	for len(vals) < k {
		v := oodb.RefV(pool[rng.Intn(len(pool))])
		dup := false
		for _, o := range vals {
			dup = dup || o.Equal(v)
		}
		if !dup || len(pool) < k {
			vals = append(vals, v)
		}
	}
	return vals
}

// change is a new value for the object's path attribute: a person is
// re-linked to another vehicle, a vehicle to another maker, a company to
// other divisions, a division is renamed. References only ever point at
// preloaded objects, which were all inserted before anything that can
// refer to them.
func (w *writer) change(oid oodb.OID) (attr string, vals []oodb.Value) {
	a := w.pop.attrs[w.pop.class[oid]]
	if a.pool == nil {
		return a.name, []oodb.Value{w.pop.values[w.rng.Intn(len(w.pop.values))]}
	}
	return a.name, refsTo(w.rng, a.pool, a.k)
}

// step runs one op of the mix and, once it is acknowledged, records what
// it wrote. w.last lists the objects the op addressed: after a failed op,
// whether their write survives a power cut is undefined.
func (w *writer) step(e *engine.Engine, kind writeKind) error {
	w.last, w.did = w.last[:0], kind
	switch kind {
	case kDelete:
		if len(w.mine) > 0 {
			i := w.rng.Intn(len(w.mine))
			oid := w.mine[i]
			w.last = append(w.last, oid)
			if err := e.Delete(oid); err != nil {
				return err
			}
			w.mine[i] = w.mine[len(w.mine)-1]
			w.mine = w.mine[:len(w.mine)-1]
			w.ref[oid] = nil
			return nil
		}
		w.did = kInsert // nothing of its own to delete yet: insert instead
		fallthrough
	case kInsert:
		vals := refsTo(w.rng, w.pop.levels[1], 1)
		oid, err := e.Insert("Person", map[string][]oodb.Value{"owns": vals})
		if err != nil {
			return err
		}
		w.last = append(w.last, oid)
		w.mine = append(w.mine, oid)
		w.ref[oid] = vals
	case kUpdate:
		oid := w.target()
		w.last = append(w.last, oid)
		attr, vals := w.change(oid)
		if err := e.Update(oid, map[string][]oodb.Value{attr: vals}); err != nil {
			return err
		}
		w.ref[oid] = vals
	case kBatch:
		w.ups = w.ups[:0]
		seen := map[oodb.OID]bool{}
		for tries := 0; len(w.ups) < durableBatch && tries < 50*durableBatch; tries++ {
			oid := w.target()
			if seen[oid] {
				continue
			}
			seen[oid] = true
			w.last = append(w.last, oid)
			attr, vals := w.change(oid)
			w.ups = append(w.ups, exec.Update{OID: oid, Attrs: map[string][]oodb.Value{attr: vals}})
		}
		for _, err := range e.UpdateBatch(w.ups) {
			if err != nil {
				return err
			}
		}
		for _, u := range w.ups {
			for _, vals := range u.Attrs {
				w.ref[u.OID] = vals
			}
		}
	case kRead:
		v := w.pop.values[w.rng.Intn(len(w.pop.values))]
		var err error
		w.dst, err = e.QueryInto(w.dst[:0], v, "Person", false)
		return err
	}
	return nil
}

type durableWrite struct {
	seed      int64
	dir       string
	e         *engine.Engine
	pop       *population
	writers   []*writer
	poolPages int
	opts      engine.DurableOptions
	replay    *queryReplay
	scratch   *wal.Log // the traced pass replays each write's log traffic here
	rec       []byte

	// what the counted pass and the loaded cell moved
	passCheckpoints, checkpoints           uint64
	writeOps, walBytes, fsyncs, maintPages uint64
	points                                 pointPages
	// the power cut
	cutDone  bool
	recoverS float64
	replayed uint64
}

var dirSeq atomic.Int64

func setupDurableWrite(p params) (instance, error) {
	ps := model.Figure7Stats()
	cfg, err := servedConfig()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(p.out, fmt.Sprintf("durable-%d-%d", os.Getpid(), dirSeq.Add(1)))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	x := &durableWrite{seed: p.seed, dir: dir}
	x.opts = engine.DurableOptions{Options: engineOptions(), Policy: wal.SyncAlways, CheckpointBytes: durableCheckpoint}
	schema := ps.Path.Schema()

	// Load: the generator writes straight into the store of a first
	// incarnation, whose Close checkpoints the population; the engine that
	// serves is the recovery of that checkpoint, with indexes built from
	// it and the pool sized from the page count the load produced.
	loader, err := engine.OpenDurable(dir, schema, ps.Path, cfg, pageSize, x.opts)
	if err != nil {
		return nil, err
	}
	g, err := gen.GenerateIn(loader.Store(), ps, durableScale*p.scale, dataSeed)
	if err != nil {
		loader.Close()
		return nil, err
	}
	x.poolPages = max(loader.Store().Pager().NumPages()/durablePoolShare, 8)
	if err := loader.Close(); err != nil {
		return nil, err
	}
	x.opts.PoolPages = x.poolPages
	if x.e, err = engine.OpenDurable(dir, schema, ps.Path, cfg, pageSize, x.opts); err != nil {
		return nil, err
	}
	x.replay = newQueryReplay(x.e)

	x.pop = newPopulation(g, p.seed)
	for c := 0; c < numClients(); c++ {
		x.writers = append(x.writers, newWriter(x.pop, c, numClients(), p.seed))
	}
	return x, nil
}

func (x *durableWrite) engines() []*engine.Engine { return []*engine.Engine{x.e} }

func (x *durableWrite) load(client int, deadline time.Time, lat *[]int64, t *tally) {
	w := x.writers[client]
	for {
		kind := pickKind(w.rng)
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		err := w.step(x.e, kind)
		*lat = append(*lat, int64(time.Since(t0)))
		t.done(int(kind), nil, err)
	}
}

// pass runs the mix from client 0 alone. The untraced pass is the counted
// one: WAL bytes, fsyncs and index-maintenance pages are charged to the
// write ops that caused them, index reads to the point reads.
func (x *durableWrite) pass(n int, tr *tracer, t *tally) time.Duration {
	w := x.writers[0]
	defer func() { x.passCheckpoints = x.e.Checkpoints() }()
	start := time.Now()
	for i := 0; i < n; i++ {
		kind := pickKind(w.rng)
		if tr != nil && kind == kRead {
			v := x.pop.values[w.rng.Intn(len(x.pop.values))]
			_, err := x.replay.query(tr, 0, i, v, nil, "Person", false)
			t.done(int(kind), nil, err)
			continue
		}
		var is0, ds0 storage.Stats
		if tr == nil {
			is0, ds0 = x.e.IndexStats(), x.e.DurabilityStats()
		}
		t0 := time.Now()
		err := w.step(x.e, kind)
		d := time.Since(t0)
		t.done(int(kind), nil, err)
		if err != nil {
			continue
		}
		if tr != nil {
			root := tr.root(i, kindSpan[w.did], t0, d, max(len(w.last), 1))
			if err := x.replayLog(tr, root, w.last); err != nil {
				t.failed++
			}
			continue
		}
		is, ds := x.e.IndexStats(), x.e.DurabilityStats()
		if kind == kRead {
			x.points.ops++
			x.points.pages += is.Reads - is0.Reads
			continue
		}
		x.writeOps++
		x.walBytes += ds.WALBytes - ds0.WALBytes
		x.fsyncs += ds.Fsyncs - ds0.Fsyncs
		x.maintPages += is.Accesses() - is0.Accesses()
	}
	return time.Since(start)
}

// replayLog repeats a write op's log traffic on a scratch log beside the
// engine's: one record per object written — its post-image, or nine bytes
// for a delete — then one fsync, as SyncAlways commits. What is left of
// the op's time is the engine's own: store, index maintenance, pager.
func (x *durableWrite) replayLog(tr *tracer, root int, written []oodb.OID) (err error) {
	if x.scratch == nil {
		if x.scratch, err = wal.OpenPath(filepath.Join(x.dir, "scratch-wal.log"), wal.SyncNever, 0, nil); err != nil {
			return err
		}
	}
	var appendD time.Duration
	for _, oid := range written {
		x.rec = append(x.rec[:0], 0)
		if obj, ok := x.e.Store().Peek(oid); ok {
			x.rec = oodb.AppendObject(x.rec, obj.OID, obj.Class, obj.Attrs)
		} else {
			x.rec = append(x.rec, make([]byte, 8)...)
		}
		t0 := time.Now()
		if err := x.scratch.Append(x.rec); err != nil {
			return err
		}
		appendD += time.Since(t0)
	}
	tr.child(root, "wal.append", appendD, len(written))
	t0 := time.Now()
	if err := x.scratch.Sync(); err != nil {
		return err
	}
	tr.child(root, "wal.fsync", time.Since(t0), 1)
	return nil
}

// verify cuts the power in the middle of the mix, recovers, and checks
// every acknowledged write of every client against its reference.
func (x *durableWrite) verify(t *tally) {
	if x.cutDone {
		return
	}
	x.cutDone = true
	if err := x.powerCut(t); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: durable_write power cut:", err)
		t.failed++
	}
}

func (x *durableWrite) powerCut(t *tally) error {
	x.checkpoints = x.e.Checkpoints() - x.passCheckpoints
	// Reopen on files that forget what was not synced. The clean Close
	// checkpoints, so this incarnation starts from an empty log.
	if err := x.e.Close(); err != nil {
		return err
	}
	group := &lossyGroup{}
	lossy := x.opts
	lossy.OpenFile = group.open
	path, cfg := x.e.Path(), x.e.Config()
	e, err := engine.OpenDurable(x.dir, path.Schema(), path, cfg, pageSize, lossy)
	if err != nil {
		return err
	}
	x.e = e

	// The cut falls on a seeded file write a few hundred ops into the mix:
	// inside an op, after its bytes were written and before its fsync.
	// Reads touch no file, so the loop always ends on a write.
	w := x.writers[0]
	group.killAfterWrites(200 + w.rng.Intn(400))
	uncertain := map[oodb.OID]bool{}
	for {
		err := w.step(e, pickKind(w.rng))
		t.attempted++
		if err == nil {
			continue
		}
		if !group.dead() {
			return fmt.Errorf("op failed before the cut: %w", err)
		}
		for _, oid := range w.last {
			uncertain[oid] = true
		}
		break
	}

	t0 := time.Now()
	e, err = engine.OpenDurable(x.dir, path.Schema(), path, cfg, pageSize, x.opts)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	x.recoverS = time.Since(t0).Seconds()
	x.e, x.replayed = e, e.Replayed()

	for _, w := range x.writers {
		for oid, want := range w.ref {
			if uncertain[oid] {
				continue
			}
			t.attempted++
			obj, ok := e.Store().Peek(oid)
			switch {
			case ok != (want != nil):
				t.failed++ // a deleted object is back, or an acknowledged one is missing
			case ok && !oodb.ValuesEqual(obj.Values(x.pop.attrs[obj.Class].name), want):
				t.failed++ // stale: an acknowledged write was lost
			}
		}
	}
	return nil
}

func (x *durableWrite) layers(m *metricSet, tr *tracer) error {
	if x.writeOps > 0 {
		w := float64(x.writeOps)
		m.set("wal.bytes_per_op", float64(x.walBytes)/w)
		m.set("wal.fsyncs_per_op", float64(x.fsyncs)/w)
		m.set("index.maint_pages_per_write", float64(x.maintPages)/w)
	}
	m.set("engine.update_batch_us_per_op", tr.meanNS("engine.update_batch")/1e3)
	m.set("engine.checkpoints", float64(x.checkpoints))
	m.set("engine.recover_s", x.recoverS)
	m.set("engine.replayed_records", float64(x.replayed))
	t0 := time.Now()
	if err := x.e.Checkpoint(); err != nil {
		return err
	}
	m.set("engine.checkpoint_s", time.Since(t0).Seconds())
	lookupMetrics(m, tr, x.replay)
	if err := x.points.modelMetrics(m, x.e, "Person"); err != nil {
		return err
	}
	if err := pagerLayers(m, x.dir); err != nil {
		return err
	}
	return commonLayers(m, x.engines())
}

func (x *durableWrite) extraSizes(s map[string]int) { s["pool_pages"] = x.poolPages }

func (x *durableWrite) close() error {
	err := x.e.Close()
	if x.scratch != nil {
		if cerr := x.scratch.Close(); err == nil {
			err = cerr
		}
	}
	if rerr := os.RemoveAll(x.dir); err == nil {
		err = rerr
	}
	return err
}

// pagerLayers measures the storage layer alone, on a scratch page file
// beside the engine's: a pager read of a resident page against one of an
// evicted page. The latencies are this sandbox's — reads come from the
// operating system's cache — not a device's.
func pagerLayers(m *metricSet, dir string) error {
	be, err := storage.OpenFileBackend(filepath.Join(dir, "scratch-pages.db"), pageSize)
	if err != nil {
		return err
	}
	defer be.Close()
	const pool, pages = 8, 64
	pg, err := storage.NewPagerBacked(pageSize, pool, be)
	if err != nil {
		return err
	}
	ids := make([]storage.PageID, pages)
	for i := range ids {
		p := pg.Alloc("scratch")
		ids[i] = p.ID
		if err := pg.Write(p); err != nil {
			return err
		}
	}
	if err := pg.Flush(); err != nil {
		return err
	}
	var rerr error
	read := func(id storage.PageID) {
		if _, err := pg.Read(id); err != nil {
			rerr = err
		}
	}
	read(ids[0])
	m.set("storage.pager_hit_ns", perCallNS(20000, func(int) { read(ids[0]) }))
	// Round-robin over eight times the pool: LRU has always evicted the
	// page before its turn comes again, so every read misses.
	m.set("storage.pager_miss_ns", perCallNS(20000, func(i int) { read(ids[i%pages]) }))
	return rerr
}
