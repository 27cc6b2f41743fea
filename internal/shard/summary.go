package shard

import (
	"encoding/binary"
	"hash/fnv"
	"sync"

	"repro/internal/oodb"
	"repro/internal/schema"
)

// Shard summaries: each shard maintains a compact over-approximation of
// the ending-attribute values present on it — per-kind min/max bounds
// plus a small Bloom filter over exact values. A value query fans out to
// every shard only because a matching object could live anywhere; but
// the co-location contract (a path instance never crosses a shard
// boundary, see the package comment) means a shard whose summary
// excludes the probed value provably holds no match, so the fan-out
// skips it entirely: no goroutine, no index descent, no workload
// recording on that shard.
//
// Soundness is one-directional. The summary may claim values the shard
// no longer holds — deletions never shrink it, the Bloom filter
// saturates upward, bounds only widen — and every such stale claim costs
// one wasted (empty-result) shard descent, never a missed match. The
// summary is rebuilt from the store on Open and after each shard's
// Reconfigure, which is when it re-tightens.
//
// The summaries watch the facade's write path (Apply and InsertAt).
// Writes applied directly to a shard's engine bypass them;
// call RebuildSummaries afterwards.

// bloomBits is the filter size in bits per shard (1 KiB). At the paper's
// D_max = 5000 distinct ending values per shard the false-positive rate
// is ~0.4 with k = 4 — still halving wasted descents on misses — while
// value sets in the hundreds keep it under 2%.
const (
	bloomBits   = 8192
	bloomWords  = bloomBits / 64
	bloomHashes = 4
)

// kindBounds is the closed [min, max] interval of summarized values of
// one kind.
type kindBounds struct {
	ok       bool
	min, max oodb.Value
}

// endSummary is one shard's ending-value summary.
type endSummary struct {
	mu     sync.RWMutex
	words  [bloomWords]uint64
	bounds [3]kindBounds // indexed by oodb.ValueKind
}

// hashValue folds a value — kind tag plus payload — to a 64-bit FNV
// digest; the two filter hashes derive from its halves (Kirsch-
// Mitzenmacher).
func hashValue(v oodb.Value) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	buf[0] = byte(v.Kind)
	switch v.Kind {
	case oodb.IntVal:
		binary.LittleEndian.PutUint64(buf[1:], uint64(v.Int))
		h.Write(buf[:9])
	case oodb.StrVal:
		h.Write(buf[:1])
		h.Write([]byte(v.Str))
	default:
		binary.LittleEndian.PutUint64(buf[1:], uint64(v.Ref))
		h.Write(buf[:9])
	}
	return h.Sum64()
}

func (s *endSummary) setBit(i uint64) {
	i %= bloomBits
	s.words[i/64] |= 1 << (i % 64)
}

func (s *endSummary) bit(i uint64) bool {
	i %= bloomBits
	return s.words[i/64]&(1<<(i%64)) != 0
}

// add records one ending value. Caller holds s.mu.
func (s *endSummary) add(v oodb.Value) {
	h := hashValue(v)
	h1, h2 := h&0xffffffff, h>>32
	for k := uint64(0); k < bloomHashes; k++ {
		s.setBit(h1 + k*h2)
	}
	b := &s.bounds[v.Kind]
	if !b.ok {
		b.ok, b.min, b.max = true, v, v
		return
	}
	if v.Compare(b.min) < 0 {
		b.min = v
	}
	if v.Compare(b.max) > 0 {
		b.max = v
	}
}

// AddAll records a batch of ending values under one lock acquisition.
func (s *endSummary) AddAll(vs []oodb.Value) {
	if len(vs) == 0 {
		return
	}
	s.mu.Lock()
	for _, v := range vs {
		s.add(v)
	}
	s.mu.Unlock()
}

// MayMatchEq reports whether the shard could hold an object whose
// ending attribute equals v: false only when the shard provably cannot
// match (out of bounds, or Bloom-negative). An empty summary — an empty
// shard — matches nothing.
func (s *endSummary) MayMatchEq(v oodb.Value) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b := s.bounds[v.Kind]
	if !b.ok || v.Compare(b.min) < 0 || v.Compare(b.max) > 0 {
		return false
	}
	h := hashValue(v)
	h1, h2 := h&0xffffffff, h>>32
	for k := uint64(0); k < bloomHashes; k++ {
		if !s.bit(h1 + k*h2) {
			return false
		}
	}
	return true
}

// MayMatchRange reports whether the shard could hold an ending value in
// [lo, hi): true iff the summarized interval of lo's kind overlaps it.
// The Bloom filter cannot answer range predicates; the bounds alone
// decide.
func (s *endSummary) MayMatchRange(lo, hi oodb.Value) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b := s.bounds[lo.Kind]
	return b.ok && lo.Compare(b.max) <= 0 && hi.Compare(b.min) > 0
}

// rebuild resets the summary to exactly the ending values the store
// currently holds — scanning the ending hierarchy of p — which is how
// stale over-approximation from deletions is shed.
func (s *endSummary) rebuild(st *oodb.Store, p *schema.Path) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.words = [bloomWords]uint64{}
	s.bounds = [3]kindBounds{}
	attr := p.Attr(p.Len())
	for _, cn := range p.HierarchyAt(p.Len()) {
		st.ScanClass(cn, func(obj *oodb.Object) bool {
			for _, v := range obj.Values(attr) {
				s.add(v)
			}
			return true
		})
	}
}

// summaries is the per-shard summary table plus the prune accounting.
type summaries struct {
	path    *schema.Path
	endAttr string
	// ending reports membership in the ending level's class hierarchy —
	// the classes whose writes carry summarized values.
	ending map[string]bool
	per    []*endSummary
}

func newSummaries(p *schema.Path, stores []*oodb.Store) *summaries {
	sm := &summaries{
		path:    p,
		endAttr: p.Attr(p.Len()),
		ending:  make(map[string]bool),
		per:     make([]*endSummary, len(stores)),
	}
	for _, cn := range p.HierarchyAt(p.Len()) {
		sm.ending[cn] = true
	}
	for i, st := range stores {
		sm.per[i] = &endSummary{}
		sm.per[i].rebuild(st, p)
	}
	return sm
}

// noteWrite feeds an insert's or update's attribute map into shard i's
// summary when the written class sits at the path's ending level and the
// write touches the ending attribute.
func (sm *summaries) noteWrite(i int, class string, attrs map[string][]oodb.Value) {
	if !sm.ending[class] {
		return
	}
	if vs, ok := attrs[sm.endAttr]; ok {
		sm.per[i].AddAll(vs)
	}
}
