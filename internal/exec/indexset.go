package exec

import (
	"fmt"
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
	one        [1]index.Pair  // the batch of one a single update is; under mu

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
	return 0, fmt.Errorf("exec: class %q not in scope of %s", class, s.path)
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
// The answer is a fresh slice of its exact size, sorted and
// duplicate-free, nil when empty. produced is the answer's length for an
// unrestricted call; within candidates it is the number of OIDs the
// chain's last hop yielded before the restriction, duplicates included —
// the size the hops would have answered. Each hop is recorded as one
// query. The caller must hold RLock.
func (s *IndexSet) QueryHops(hops []Hop, within []oodb.OID, targetClass string, hierarchy bool) ([]oodb.OID, int, error) {
	qs := scratchPool.Get().(*queryScratch)
	defer scratchPool.Put(qs)
	return s.queryInto(qs, nil, true, hops, within, targetClass, hierarchy)
}

// QueryInto evaluates A_n = value for targetClass, appending the result
// to dst — QueryHops with one point hop as the allocation-free serving
// kernel. The appended region of dst is sorted and deduplicated;
// contents before len(dst) are untouched (and returned unchanged on
// error). The caller must hold RLock.
func (s *IndexSet) QueryInto(dst []oodb.OID, value oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	qs := scratchPool.Get().(*queryScratch)
	defer scratchPool.Put(qs)
	hop := [1]Hop{{Lo: value}}
	dst, _, err := s.queryInto(qs, dst, false, hop[:], nil, targetClass, hierarchy)
	return dst, err
}

// queryInto is Proposition 4.1 made operational, for every query the set
// answers: the last subpath is probed with every hop, into the scratch's
// one OID set; each earlier subpath, back to the one owning targetClass's
// level, is probed in one key-set hop with the sorted, deduplicated OIDs
// its successor produced, read back from the set, asked for its starting
// class hierarchy — the objects the successor's OIDs are ending values of.
// The hop that yields targetClass's OIDs is read back once: through within
// when it is non-nil, else into a fresh slice when fresh is set, else
// appended to dst. produced is as QueryHops describes.
func (s *IndexSet) queryInto(qs *queryScratch, dst []oodb.OID, fresh bool, hops []Hop, within []oodb.OID, targetClass string, hierarchy bool) ([]oodb.OID, int, error) {
	level, err := s.LevelOf(targetClass)
	if err != nil {
		return dst, 0, err
	}
	// Record only after the class resolved: probes against classes outside
	// the path's scope must not skew drift detection.
	for range hops {
		s.rec.Record(targetClass, stats.OpQuery)
	}
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
			switch produced := set.Added(); {
			case within != nil:
				return set.AppendWithin(dst, within), produced, nil
			case fresh:
				out := set.Take()
				return out, len(out), nil
			default:
				base := len(dst)
				dst = set.AppendTo(dst)
				return dst, len(dst) - base, nil
			}
		}
		// The key set was read in full by the hop just ended.
		qs.keys = set.AppendTo(qs.keys[:0])
		if len(qs.keys) == 0 {
			return dst, 0, nil
		}
	}
}

// InsertInto stores a new object in st and maintains the owning
// subpath's index; the single write path under the lifecycle engine. The
// caller is responsible for serializing store mutations against
// configuration swaps.
func (s *IndexSet) InsertInto(st *oodb.Store, class string, attrs map[string][]oodb.Value) (oodb.OID, error) {
	if _, err := s.LevelOf(class); err != nil {
		return 0, err
	}
	oid, err := st.Insert(class, attrs)
	if err != nil {
		return 0, err
	}
	obj, _ := st.Peek(oid)
	if err := s.OnInsert(obj); err != nil {
		return 0, err
	}
	return oid, nil
}

// UpdateIn applies an in-place update to an object of st and maintains
// the owning subpath's index incrementally from the (old, new) pair the
// store returns — a batch of one. Updates never need boundary maintenance:
// the object's OID — the key value preceding subpaths chain through — does
// not change. A missing OID reports oodb.ErrNotFound. The caller is
// responsible for serializing store mutations against configuration swaps.
func (s *IndexSet) UpdateIn(st *oodb.Store, oid oodb.OID, attrs map[string][]oodb.Value) error {
	p, gi, err := s.storeUpdate(st, oid, attrs)
	if err != nil {
		return err
	}
	return s.maintainOne(gi, p)
}

// storeUpdate applies one update to st and returns the (old, new) pair with
// the position of the index owning the object's level.
func (s *IndexSet) storeUpdate(st *oodb.Store, oid oodb.OID, attrs map[string][]oodb.Value) (index.Pair, int, error) {
	obj, ok := st.Peek(oid)
	if !ok {
		return index.Pair{}, 0, fmt.Errorf("exec: no object %d: %w", oid, oodb.ErrNotFound)
	}
	level, err := s.LevelOf(obj.Class)
	if err != nil {
		return index.Pair{}, 0, err
	}
	old, upd, err := st.Update(oid, attrs)
	if err != nil {
		return index.Pair{}, 0, err
	}
	return index.Pair{Old: old, New: upd}, s.levelOwner[level-1], nil
}

// maintainOne hands one pair to the index at position gi under the write
// lock.
func (s *IndexSet) maintainOne(gi int, p index.Pair) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.one[0] = p
	err := s.indexes[gi].OnUpdates(s.one[:])
	s.one[0] = index.Pair{}
	if err == nil {
		s.rec.Record(p.Old.Class, stats.OpUpdate)
	}
	return err
}

// Update is one in-place object update of a batch: the named attributes
// of OID are replaced (an empty value slice removes the attribute;
// attributes not named keep their values).
type Update struct {
	OID   oodb.OID
	Attrs map[string][]oodb.Value
}

// UpdateBatch applies a batch of in-place updates to the store in input
// order, then hands each owning index all its updates in one OnUpdates
// call, under one write lock — so an index maintains the batch as a few
// operations, each tree visited once, not one descent per update (DESIGN.md
// §5.2). Deferring maintenance past the store is safe because MX, MIX and
// NIX read nothing but their own pages and the pairs, and objects are
// immutable: what they end with depends only on the pairs. PX navigates the
// store, so a PX owner is still called at each update's own position. The
// batch's value is its contract: one call, per-update errors, and — at the
// engine level — one serialization against configuration swaps and one
// commit for the whole group. It does not fan out, and applies the same
// batch the same way every time.
//
// The result has one entry per update, nil on success; a failed update
// never prevents the rest of the batch from applying, and an index error
// fails every update that index was maintaining.
func (s *IndexSet) UpdateBatch(st *oodb.Store, ups []Update) []error {
	errs := make([]error, len(ups))
	pairs := make([][]index.Pair, len(s.indexes)) // by owner, in input order
	at := make([][]int, len(s.indexes))           // the updates behind them
	for i, u := range ups {
		p, gi, err := s.storeUpdate(st, u.OID, u.Attrs)
		switch {
		case err != nil:
			errs[i] = err
		case s.cfg.Assignments[gi].Org == cost.PX:
			errs[i] = s.maintainOne(gi, p)
		default:
			pairs[gi] = append(pairs[gi], p)
			at[gi] = append(at[gi], i)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for gi, ps := range pairs {
		if len(ps) == 0 {
			continue
		}
		err := s.indexes[gi].OnUpdates(ps)
		for k, i := range at[gi] {
			if errs[i] = err; err == nil {
				s.rec.Record(ps[k].Old.Class, stats.OpUpdate)
			}
		}
	}
	return errs
}

// DeleteFrom removes an object from st, maintaining the owning subpath's
// index and the Definition 4.2 boundary. A missing OID reports
// oodb.ErrNotFound.
func (s *IndexSet) DeleteFrom(st *oodb.Store, oid oodb.OID) error {
	obj, ok := st.Peek(oid)
	if !ok {
		return fmt.Errorf("exec: no object %d: %w", oid, oodb.ErrNotFound)
	}
	if err := s.OnDelete(obj); err != nil {
		return err
	}
	return st.Delete(oid)
}

// OnInsert maintains the owning subpath's index for a newly stored
// object. It takes the write lock itself.
func (s *IndexSet) OnInsert(obj *oodb.Object) error {
	level, err := s.LevelOf(obj.Class)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.indexes[s.levelOwner[level-1]].OnInsert(obj); err != nil {
		return err
	}
	s.rec.Record(obj.Class, stats.OpInsert)
	return nil
}

// OnDelete maintains the owning subpath's index for an object about to be
// deleted, and — when the object's class starts a subpath — performs the
// Definition 4.2 boundary maintenance on the preceding subpath's index.
// It takes the write lock itself.
func (s *IndexSet) OnDelete(obj *oodb.Object) error {
	level, err := s.LevelOf(obj.Class)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	gi := s.levelOwner[level-1]
	if err := s.indexes[gi].OnDelete(obj); err != nil {
		return err
	}
	if a, _ := s.indexes[gi].Bounds(); a == level && gi > 0 {
		if err := s.indexes[gi-1].BoundaryDelete(obj.OID); err != nil {
			return err
		}
	}
	s.rec.Record(obj.Class, stats.OpDelete)
	return nil
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
