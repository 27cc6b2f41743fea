package exec

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/index"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/storage"
)

// IndexSet owns the working index structures of one configuration: one
// PathIndex per assignment, the level-ownership table that routes
// operations to them, and an optional workload recorder threaded through
// the query and update paths.
//
// An IndexSet is the unit of copy-on-write reconfiguration. A set is
// immutable in shape — its configuration never changes — so swapping
// configurations means building a new set (reusing the structures of
// unchanged assignments via NewIndexSetReusing) and publishing it
// atomically; queries in flight keep reading the set they started on and
// never observe a half-built configuration.
//
// Locking protocol: the query methods do NOT lock. A caller that owns a
// single set for its lifetime brackets queries with RLock/RUnlock; a
// caller that swaps sets (the engine) must additionally re-check its
// current-set pointer after locking, and Drain the old set after a swap
// before mutating structures the new set adopted. The write methods take
// the write lock themselves.
type IndexSet struct {
	path *schema.Path
	cfg  core.Configuration

	// mu serializes index maintenance (W) against lookups (R). The
	// B+-tree pages underneath are not safe for concurrent read/write.
	mu sync.RWMutex

	// indexes are ordered like the configuration's assignments (head of
	// the path first); levelOwner[l-1] is the position owning level l.
	indexes    []index.PathIndex
	levelOwner []int
	levelOf    map[string]int // class -> global path level

	// pairs[i] are the updates Apply has stored but index i not yet
	// maintained, at[i] their batch positions; pending counts them all.
	// Owned by the one writer Apply's callers serialize.
	pairs   [][]index.Pair
	at      [][]int
	pending int

	reused int             // structures adopted from a predecessor set
	rec    *stats.Recorder // optional; nil-safe
}

// NewIndexSet builds the index structures of cfg over the store's current
// contents. Index pages are sized pageSize. Objects are loaded deepest
// level first, respecting the forward-reference order NIX maintenance
// relies on. rec, when non-nil, receives one count per query and
// maintained update.
func NewIndexSet(st *oodb.Store, p *schema.Path, cfg core.Configuration, pageSize int, rec *stats.Recorder) (*IndexSet, error) {
	return newIndexSet(st, p, cfg, pageSize, rec, nil)
}

// NewIndexSetReusing is NewIndexSet diffing cfg against a predecessor
// set: assignments identical in subpath and organization adopt the
// predecessor's live structure instead of rebuilding it (the structures
// are continuously maintained, so their contents are current). Only the
// genuinely new assignments are built and bulk-loaded.
func NewIndexSetReusing(st *oodb.Store, p *schema.Path, cfg core.Configuration, pageSize int, rec *stats.Recorder, old *IndexSet) (*IndexSet, error) {
	return newIndexSet(st, p, cfg, pageSize, rec, old)
}

func newIndexSet(st *oodb.Store, p *schema.Path, cfg core.Configuration, pageSize int, rec *stats.Recorder, old *IndexSet) (*IndexSet, error) {
	if err := cfg.Validate(p.Len()); err != nil {
		return nil, err
	}
	s := &IndexSet{
		path:       p,
		cfg:        cfg,
		indexes:    make([]index.PathIndex, len(cfg.Assignments)),
		levelOwner: make([]int, p.Len()),
		levelOf:    make(map[string]int),
		pairs:      make([][]index.Pair, len(cfg.Assignments)),
		at:         make([][]int, len(cfg.Assignments)),
		rec:        rec,
	}
	for l := 1; l <= p.Len(); l++ {
		for _, cn := range p.HierarchyAt(l) {
			s.levelOf[cn] = l
		}
	}
	var fresh []int
	for i, asg := range cfg.Assignments {
		for l := asg.A; l <= asg.B; l++ {
			s.levelOwner[l-1] = i
		}
		if old != nil {
			if ix := old.matching(asg); ix != nil {
				s.indexes[i] = ix
				s.reused++
				continue
			}
		}
		ix, err := index.New(st, p, asg.A, asg.B, asg.Org, pageSize)
		if err != nil {
			return nil, fmt.Errorf("exec: %w", err)
		}
		s.indexes[i] = ix
		fresh = append(fresh, i)
	}
	// Bulk load, deepest level first within each index (the order NIX
	// maintenance relies on), each class in ascending OID order (what
	// OIDsOfClass returns) — the order of insertion shapes the trees, so
	// equal stores build equal trees. Each fresh index owns a disjoint level
	// range and a dedicated pager, so they load concurrently. Store access is
	// read-only: Peek does not count page accesses; PX additionally reads
	// objects through the store's pager, whose atomic counters and locked
	// buffer bookkeeping make concurrent counting safe (and, with the
	// store's unbuffered pager, deterministic in total).
	load := func(i int) error {
		asg := cfg.Assignments[i]
		ix := s.indexes[i]
		for l := asg.B; l >= asg.A; l-- {
			for _, cn := range p.HierarchyAt(l) {
				for _, oid := range st.OIDsOfClass(cn) {
					obj, _ := st.Peek(oid)
					if err := ix.OnInsert(obj); err != nil {
						return fmt.Errorf("exec: loading %s: %w", cn, err)
					}
				}
			}
		}
		return nil
	}
	if len(fresh) == 1 {
		if err := load(fresh[0]); err != nil {
			return nil, err
		}
		return s, nil
	}
	errs := make([]error, len(fresh))
	var wg sync.WaitGroup
	for k, i := range fresh {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			errs[k] = load(i)
		}(k, i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// matching returns the set's live structure for an identical assignment
// (same subpath, same organization), or nil.
func (s *IndexSet) matching(asg core.Assignment) index.PathIndex {
	for i, a := range s.cfg.Assignments {
		if a == asg {
			return s.indexes[i]
		}
	}
	return nil
}

// Config returns the configuration the set was built from.
func (s *IndexSet) Config() core.Configuration { return s.cfg }

// Indexes returns the set's structures in assignment order. The slice is
// the set's own; callers must not modify it.
func (s *IndexSet) Indexes() []index.PathIndex { return s.indexes }

// Reused returns how many structures were adopted from the predecessor
// set at construction.
func (s *IndexSet) Reused() int { return s.reused }

// RLock brackets a batch of queries against concurrent maintenance.
func (s *IndexSet) RLock() { s.mu.RLock() }

// RUnlock releases RLock.
func (s *IndexSet) RUnlock() { s.mu.RUnlock() }

// Drain waits until every reader that acquired the set before the call
// has released it. After a copy-on-write swap the publisher drains the
// retired set before allowing maintenance on structures the new set
// adopted, so late readers never race a writer.
func (s *IndexSet) Drain() {
	s.mu.Lock()
	//lint:ignore SA2001 the empty critical section is the point: acquiring the write lock waits out every reader.
	s.mu.Unlock()
}

// LevelOf resolves a class to its global path level.
func (s *IndexSet) LevelOf(class string) (int, error) {
	if l, ok := s.levelOf[class]; ok {
		return l, nil
	}
	// A copy in the message: class stays the caller's (see insert).
	return 0, fmt.Errorf("exec: class %q not in scope of %s", strings.Clone(class), s.path)
}

// queryScratch bundles the per-worker buffers of one query evaluation:
// the index kernels' transient buffers, whose OID set collects every hop,
// and the key set the next subpath is probed with. Scratches are pooled,
// so a steady-state point query performs no heap allocation.
type queryScratch struct {
	ix   *index.Scratch
	keys []oodb.OID
}

var scratchPool = sync.Pool{New: func() any { return &queryScratch{ix: index.NewScratch()} }}

// Hop is one way into a configuration's last subpath (index.Hop): the
// ending attribute A_n equals Lo, or — Ranged — falls in [Lo, Hi).
type Hop = index.Hop

// QueryHops evaluates the disjunction of hops for targetClass as one
// chain: the last subpath is entered through every hop, and each earlier
// subpath is probed once, with the union. When within is non-nil — a
// sorted, duplicate-free candidate set — the answer is restricted to it.
// The answer, sorted and duplicate-free, is appended to dst and dst
// returned; contents before len(dst) are untouched, and on error dst comes
// back as it was passed. A nil dst gets a fresh unrestricted answer of its
// exact size, nil when empty (oodb.OIDSet.AppendTo); a reused dst makes a
// steady-state query allocation-free. produced is the answer's length for
// an unrestricted call; within candidates it is the number of OIDs the
// chain's last hop yielded before the restriction, duplicates included —
// the size the hops would have answered. Each hop is recorded as one
// query. The caller must hold RLock.
//
// It is Proposition 4.1 made operational, for every query the set
// answers: the last subpath is probed with every hop, into the scratch's
// one OID set; each earlier subpath, back to the one owning targetClass's
// level, is probed in one key-set hop with the sorted, deduplicated OIDs
// its successor produced, read back from the set, asked for its starting
// class hierarchy — the objects the successor's OIDs are ending values of.
// The hop that yields targetClass's OIDs is read back once, into dst,
// through within when it is non-nil.
func (s *IndexSet) QueryHops(dst []oodb.OID, hops []Hop, within []oodb.OID, targetClass string, hierarchy bool) ([]oodb.OID, int, error) {
	level, err := s.LevelOf(targetClass)
	if err != nil {
		return dst, 0, err
	}
	// Record only after the class resolved: probes against classes outside
	// the path's scope must not skew drift detection.
	for range hops {
		s.rec.Record(targetClass, stats.OpQuery)
	}
	qs := scratchPool.Get().(*queryScratch)
	defer scratchPool.Put(qs)
	gi := s.levelOwner[level-1]
	last := len(s.indexes) - 1
	set := qs.ix.Set()
	for i := last; ; i-- {
		ix := s.indexes[i]
		tc, hier := targetClass, hierarchy
		if i != gi {
			a, _ := ix.Bounds()
			tc, hier = s.path.Class(a), true
		}
		if i < last {
			err = ix.CollectKeys(qs.keys, tc, hier, qs.ix)
		} else {
			for _, h := range hops {
				if err = ix.Collect(h, tc, hier, qs.ix); err != nil {
					break
				}
			}
		}
		if err != nil {
			return dst, 0, err
		}
		if i == gi {
			if within != nil {
				produced := set.Added()
				return set.AppendWithin(dst, within), produced, nil
			}
			base := len(dst)
			dst = set.AppendTo(dst)
			return dst, len(dst) - base, nil
		}
		// The key set was read in full by the hop just ended.
		qs.keys = set.AppendTo(qs.keys[:0])
		if len(qs.keys) == 0 {
			return dst, 0, nil
		}
	}
}

// WriteKind says what a Write does; the zero value is an update.
type WriteKind uint8

// Write kinds.
const (
	WriteUpdate WriteKind = iota
	WriteInsert
	WriteDelete
)

// Write is one entry of a write batch (Apply): an in-place update of OID —
// the named attributes are replaced, an empty value slice removes one,
// attributes not named keep their values — the insert of a new object of
// Class with Attrs, whose OID Apply fills in, or the delete of OID.
type Write struct {
	Kind  WriteKind
	OID   oodb.OID
	Class string // an insert's class
	Attrs map[string][]oodb.Value
}

// Update is a Write by the name batch-update callers use.
type Update = Write

// Apply applies a batch of writes to st in input order and maintains the
// owning indexes — the set's one write path. errs[i] receives entry i's
// error, nil on success; a failed entry never stops the rest, and a
// missing OID reports oodb.ErrNotFound. A successful insert's OID is filled
// into its entry. stored, when non-nil, receives the object each insert or
// update stored, as it stored it: the image a log records, which a later
// entry may replace or delete. errs and stored hold len(ws) entries; a nil
// errs is made. The caller serializes Apply calls, and writes against
// configuration swaps (the engine's writeMu does both).
//
// A run of consecutive updates is maintained as a batch (DESIGN.md §5.2):
// the store applies the run first, then each owning index gets all its
// pairs in one OnUpdates call, under one write lock, so a tree is visited
// once, not once per update. MX, MIX and NIX read nothing but their own
// pages and the pairs, and objects are immutable, so the delay is safe; PX
// navigates the store, so a PX owner is maintained at each update's own
// position. An insert or a delete first flushes the pending pairs. An
// index error fails every update that index was maintaining.
func (s *IndexSet) Apply(st *oodb.Store, ws []Write, errs []error, stored []*oodb.Object) []error {
	if errs == nil {
		errs = make([]error, len(ws))
	}
	for i := range ws {
		w := &ws[i]
		var obj *oodb.Object
		switch w.Kind {
		case WriteUpdate:
			obj, errs[i] = s.update(st, w.OID, w.Attrs, i, errs)
		case WriteInsert:
			s.flush(errs)
			obj, errs[i] = s.insert(st, w)
		case WriteDelete:
			s.flush(errs)
			errs[i] = s.delete(st, w.OID)
		default:
			errs[i] = fmt.Errorf("exec: unknown write kind %d", w.Kind)
		}
		if stored != nil {
			stored[i] = obj
		}
	}
	s.flush(errs)
	return errs
}

// update applies entry i, an update, to st and queues its (old, new) pair
// on the index owning the object's level: maintained at once by a PX, at
// the next flush by any other. An update needs no boundary maintenance:
// the OID preceding subpaths chain through does not change.
func (s *IndexSet) update(st *oodb.Store, oid oodb.OID, attrs map[string][]oodb.Value, i int, errs []error) (*oodb.Object, error) {
	obj, ok := st.Peek(oid)
	if !ok {
		return nil, fmt.Errorf("exec: no object %d: %w", oid, oodb.ErrNotFound)
	}
	level, err := s.LevelOf(obj.Class)
	if err != nil {
		return nil, err
	}
	old, upd, err := st.Update(oid, attrs)
	if err != nil {
		return nil, err
	}
	gi := s.levelOwner[level-1]
	s.pairs[gi] = append(s.pairs[gi], index.Pair{Old: old, New: upd})
	s.at[gi] = append(s.at[gi], i)
	s.pending++
	if s.cfg.Assignments[gi].Org == cost.PX {
		s.mu.Lock()
		s.maintainLocked(gi, errs)
		s.mu.Unlock()
	}
	return upd, errs[i]
}

// flush hands every index its pending pairs, all under one write lock.
func (s *IndexSet) flush(errs []error) {
	if s.pending == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for gi := range s.pairs {
		s.maintainLocked(gi, errs)
	}
}

// maintainLocked hands index gi its pending pairs in one OnUpdates call
// and settles the errors of the updates behind them, under the write lock.
// A queue longer than keptPairs is let go rather than kept for the set's
// life.
func (s *IndexSet) maintainLocked(gi int, errs []error) {
	ps, at := s.pairs[gi], s.at[gi]
	if len(ps) == 0 {
		return
	}
	err := s.indexes[gi].OnUpdates(ps)
	for k, i := range at {
		if errs[i] = err; err == nil {
			s.rec.Record(ps[k].Old.Class, stats.OpUpdate)
		}
	}
	s.pending -= len(ps)
	clear(ps) // a kept pair would pin its objects
	if cap(ps) > keptPairs {
		ps, at = nil, nil
	}
	s.pairs[gi], s.at[gi] = ps[:0], at[:0]
}

const keptPairs = 1024

// insert stores a new object and maintains the index owning its level.
func (s *IndexSet) insert(st *oodb.Store, w *Write) (*oodb.Object, error) {
	level, err := s.LevelOf(w.Class)
	if err != nil {
		return nil, err
	}
	// The schema's copy of the name goes into the store: were the entry's
	// own to escape, a caller's attrs map would escape with it.
	oid, err := st.Insert(s.path.Schema().Class(w.Class).Name, w.Attrs)
	if err != nil {
		return nil, err
	}
	obj, _ := st.Peek(oid)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.indexes[s.levelOwner[level-1]].OnInsert(obj); err != nil {
		return nil, err
	}
	s.rec.Record(obj.Class, stats.OpInsert)
	w.OID = oid
	return obj, nil
}

// delete maintains the index owning the object's level and — when the
// object's class starts a subpath — the Definition 4.2 boundary of the
// preceding subpath's index, then removes the object from st.
func (s *IndexSet) delete(st *oodb.Store, oid oodb.OID) error {
	obj, ok := st.Peek(oid)
	if !ok {
		return fmt.Errorf("exec: no object %d: %w", oid, oodb.ErrNotFound)
	}
	level, err := s.LevelOf(obj.Class)
	if err != nil {
		return err
	}
	s.mu.Lock()
	gi := s.levelOwner[level-1]
	err = s.indexes[gi].OnDelete(obj)
	if a, _ := s.indexes[gi].Bounds(); err == nil && a == level && gi > 0 {
		err = s.indexes[gi-1].BoundaryDelete(oid)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.rec.Record(obj.Class, stats.OpDelete)
	return st.Delete(oid)
}

// Stats sums the page-access counters over all subpath indexes.
func (s *IndexSet) Stats() storage.Stats {
	var total storage.Stats
	for _, ix := range s.indexes {
		total.Add(ix.Stats())
	}
	return total
}

// ResetStats zeroes all index counters.
func (s *IndexSet) ResetStats() {
	for _, ix := range s.indexes {
		ix.ResetStats()
	}
}
