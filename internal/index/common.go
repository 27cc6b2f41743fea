// Package index implements the five index organizations of Section 2.2 as
// working structures over the object store and the page-based B+-tree:
// the simple index (SIX), inherited index (IIX), multi-index (MX),
// multi-inherited index (MIX) and nested inherited index (NIX, Figures
// 3–5, primary plus auxiliary index). Every organization supports lookup by
// the subpath's ending attribute and full maintenance under object
// insertion and deletion, with page accesses counted on a dedicated pager
// so the analytic cost model can be validated against the running
// structures (experiment V1).
//
// Indexes cover a subpath [A..B] of a path. For B < len(P) the key domain
// of the ending attribute A_B is the OIDs of the level-B+1 objects; for
// B == len(P) it is the atomic values of A_n. Maintenance relies on the
// paper's forward-reference model: an object's references always point at
// objects inserted earlier, so a newly inserted object has no parents yet.
package index

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/cost"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/storage"
)

// PathIndex is the common interface of the working index organizations.
// LookupInto, LookupKeys and LookupRange are pure reads — they never
// mutate the structure — so any number of them may run concurrently under
// the owner's read lock. All three are entry points into the organization's
// one lookup kernel and differ only in its first hop (hop.go).
type PathIndex interface {
	// Org identifies the organization.
	Org() cost.Organization
	// Bounds returns the subpath levels [A, B] the index covers.
	Bounds() (a, b int)
	// LookupInto appends to dst the OIDs of objects of targetClass at some
	// level within the subpath whose nested A_B value equals key — with
	// hierarchy set, subclasses of targetClass are included — unordered
	// and possibly with duplicates; the caller sorts and deduplicates once
	// per probe batch. Transient buffers are threaded through sc, so the
	// paper's organizations allocate nothing. The returned slice is the
	// extended dst; neither dst nor sc is retained.
	LookupInto(key oodb.Value, targetClass string, hierarchy bool, dst []oodb.OID, sc *Scratch) ([]oodb.OID, error)
	// LookupKeys is LookupInto for a sorted, duplicate-free set of OID keys
	// — what the next subpath of a configuration produced — answered by one
	// sweep of each tree instead of a descent per key. An unsorted set gets
	// the same answer at a higher page count.
	LookupKeys(keys []oodb.OID, targetClass string, hierarchy bool, dst []oodb.OID, sc *Scratch) ([]oodb.OID, error)
	// LookupRange is the lookup for a half-open range [lo, hi) of ending
	// values, returned as a fresh sorted, duplicate-free slice.
	LookupRange(lo, hi oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error)
	// OnInsert maintains the index for a newly inserted object of a class
	// in the subpath's scope.
	OnInsert(obj *oodb.Object) error
	// OnUpdates maintains the index for a batch of in-place updates, in
	// order; an object may appear in several pairs. It is the one update
	// entry point: a single update is a batch of one. Maintenance is
	// incremental — only the entries the changed subpath attributes
	// actually move are touched, and a pair whose attribute is unchanged
	// costs nothing. MX, MIX and NIX read nothing but the index and the
	// pairs, so they may be handed a batch after the store has applied all
	// of it; PX navigates the store, which must hold exactly the states up
	// to its pairs when it is called.
	OnUpdates(pairs []Pair) error
	// OnDelete maintains the index for a deleted object.
	OnDelete(obj *oodb.Object) error
	// BoundaryDelete removes the index entries keyed by an OID of the
	// class hierarchy at level B+1 (Definition 4.2's boundary maintenance:
	// the deleted object was a key value of this subpath's ending
	// attribute). No-op for subpaths ending the path.
	BoundaryDelete(oid oodb.OID) error
	// Stats returns the page-access counters of the index's pager.
	Stats() storage.Stats
	// ResetStats zeroes the counters.
	ResetStats()
}

// Pair is one in-place update as maintenance sees it: the same object (same
// OID, same class) before and after the change.
type Pair struct{ Old, New *oodb.Object }

// Subpath captures the [A..B] slice of a path together with class-level
// resolution used by every organization. The scope map, the per-level
// class lists and the subclass closure of every class in scope are
// resolved once at construction, so the lookup kernels never recompute
// them (schema.Hierarchy allocates on every call).
type Subpath struct {
	Path *schema.Path
	A, B int
	// levelOf maps every class in the subpath's scope to its global level.
	levelOf map[string]int
	// levels[l-A] lists the hierarchy class names at global level l.
	levels [][]string
	// hierOf maps every class in scope to its inheritance hierarchy
	// (itself first) — the pre-resolved form of schema.Hierarchy.
	hierOf map[string][]string
}

// NewSubpath validates bounds and precomputes the scope tables.
func NewSubpath(p *schema.Path, a, b int) (*Subpath, error) {
	if p == nil {
		return nil, fmt.Errorf("index: nil path")
	}
	if a < 1 || b > p.Len() || a > b {
		return nil, fmt.Errorf("index: invalid subpath [%d,%d] of %s", a, b, p)
	}
	sp := &Subpath{
		Path:    p,
		A:       a,
		B:       b,
		levelOf: make(map[string]int),
		hierOf:  make(map[string][]string),
	}
	for l := a; l <= b; l++ {
		level := p.HierarchyAt(l)
		sp.levels = append(sp.levels, level)
		for _, cn := range level {
			sp.levelOf[cn] = l
			if _, ok := sp.hierOf[cn]; !ok {
				sp.hierOf[cn] = p.Schema().Hierarchy(cn)
			}
		}
	}
	return sp, nil
}

// HierarchyOf returns the pre-resolved inheritance hierarchy (the class
// itself first) of a class in the subpath's scope; nil outside the scope.
// Callers must not modify the returned slice.
func (sp *Subpath) HierarchyOf(class string) []string { return sp.hierOf[class] }

// targetMatch reports whether a class of the subpath's scope satisfies a
// query target, without allocating.
func (sp *Subpath) targetMatch(class, target string, hierarchy bool) bool {
	if class == target {
		return true
	}
	return hierarchy && sp.Path.Schema().IsSubclassOf(class, target)
}

// LevelOf returns the global level of a class within the subpath's scope.
func (sp *Subpath) LevelOf(class string) (int, bool) {
	l, ok := sp.levelOf[class]
	return l, ok
}

// Attr returns the path attribute at global level l.
func (sp *Subpath) Attr(l int) string { return sp.Path.Attr(l) }

// EndsPath reports whether the subpath contains the path's ending attribute.
func (sp *Subpath) EndsPath() bool { return sp.B == sp.Path.Len() }

// AppendValue appends the B+-tree key encoding of an attribute value to
// dst — the allocation-free form of EncodeValue. The kind tag keeps value
// spaces disjoint; integers and OIDs are big-endian so byte order matches
// numeric order.
func AppendValue(dst []byte, v oodb.Value) []byte {
	switch v.Kind {
	case oodb.IntVal:
		var b [8]byte
		// Flipping the sign bit makes the big-endian byte order coincide
		// with numeric order across negative and positive values, which
		// range scans rely on.
		binary.BigEndian.PutUint64(b[:], uint64(v.Int)^(1<<63))
		return append(append(dst, 'i'), b[:]...)
	case oodb.StrVal:
		return append(append(dst, 's'), v.Str...)
	default:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v.Ref))
		return append(append(dst, 'r'), b[:]...)
	}
}

// EncodeValue encodes an attribute value as a fresh B+-tree key.
func EncodeValue(v oodb.Value) []byte { return AppendValue(nil, v) }

// AppendOID appends the key encoding of an OID to dst.
func AppendOID(dst []byte, oid oodb.OID) []byte { return AppendValue(dst, oodb.RefV(oid)) }

// EncodeOID encodes an OID key.
func EncodeOID(oid oodb.OID) []byte { return EncodeValue(oodb.RefV(oid)) }

// sortedKeys lists the keys of set in byte order. PX maintenance collects
// the keys an object reaches in a map and visits them through this list,
// never in map order, so equal histories build equal trees.
func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// oidSet is a serialized sorted set of OIDs: count-prefixed big-endian
// 64-bit values.
func encodeOIDSet(oids []oodb.OID) []byte {
	sorted := append([]oodb.OID(nil), oids...)
	slices.Sort(sorted)
	out := make([]byte, 4+8*len(sorted))
	binary.BigEndian.PutUint32(out, uint32(len(sorted)))
	for i, o := range sorted {
		binary.BigEndian.PutUint64(out[4+8*i:], uint64(o))
	}
	return out
}

// appendOIDSet decodes a serialized set, appending its OIDs to dst — the
// allocation-free form of decodeOIDSet.
func appendOIDSet(dst []oodb.OID, b []byte) ([]oodb.OID, error) {
	if len(b) < 4 {
		return dst, fmt.Errorf("index: truncated OID set")
	}
	n := int(binary.BigEndian.Uint32(b))
	if len(b) < 4+8*n {
		return dst, fmt.Errorf("index: OID set of %d entries in %d bytes", n, len(b))
	}
	return appendOIDs(dst, b[4:], n, 8), nil
}

// appendOIDs appends the n big-endian OIDs found every stride bytes of b —
// the decode loop under every lookup, so dst grows once and the stores are
// indexed. b must hold them: len(b) >= (n-1)*stride + 8.
func appendOIDs(dst []oodb.OID, b []byte, n, stride int) []oodb.OID {
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	for i := range out {
		out[i] = oodb.OID(binary.BigEndian.Uint64(b[i*stride:]))
	}
	return dst[:len(dst)+n]
}

func decodeOIDSet(b []byte) ([]oodb.OID, error) {
	out, err := appendOIDSet(nil, b)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// addOID inserts an OID into a serialized set, returning the new set.
func addOID(b []byte, oid oodb.OID) []byte {
	var oids []oodb.OID
	if b != nil {
		oids, _ = decodeOIDSet(b)
	}
	for _, o := range oids {
		if o == oid {
			return b
		}
	}
	return encodeOIDSet(append(oids, oid))
}

// removeOID removes an OID from a serialized set, returning nil when the
// set empties (which deletes the index record).
func removeOID(b []byte, oid oodb.OID) []byte {
	if b == nil {
		return nil
	}
	oids, _ := decodeOIDSet(b)
	out := oids[:0]
	for _, o := range oids {
		if o != oid {
			out = append(out, o)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return encodeOIDSet(out)
}

// refSet collects reference OIDs into a set.
func refSet(refs []oodb.OID) map[oodb.OID]bool {
	s := make(map[oodb.OID]bool, len(refs))
	for _, r := range refs {
		s[r] = true
	}
	return s
}

// diffKeys splits an attribute's old and new values into the encoded
// tree keys only the old object held (removed) and only the new object
// holds (added), each in first-occurrence order. The comparison is
// set-semantic — duplicate values collapse, matching the OID-set records
// the attribute indexes keep — so an update only touches the records
// whose membership genuinely changes, and every value is encoded exactly
// once.
func diffKeys(old, upd []oodb.Value) (removed, added [][]byte) {
	oldKeys := make(map[string]bool, len(old))
	oldOrder := make([][]byte, 0, len(old))
	for _, v := range old {
		k := EncodeValue(v)
		if !oldKeys[string(k)] {
			oldKeys[string(k)] = true
			oldOrder = append(oldOrder, k)
		}
	}
	updKeys := make(map[string]bool, len(upd))
	for _, v := range upd {
		k := EncodeValue(v)
		if updKeys[string(k)] {
			continue
		}
		updKeys[string(k)] = true
		if !oldKeys[string(k)] {
			added = append(added, k)
		}
	}
	for _, k := range oldOrder {
		if !updKeys[string(k)] {
			removed = append(removed, k)
		}
	}
	return removed, added
}

// classesAt returns the hierarchy class names at global level l, from the
// pre-resolved per-level table.
func (sp *Subpath) classesAt(l int) []string { return sp.levels[l-sp.A] }

// Scratch holds what a lookup kernel threads through the stack: an
// encoded-key buffer, the read handle on the record a hop yields and the
// path of a key-set hop's sweep (both emptied when the hop ends), two OID
// ping-pong buffers for intra-subpath probe chains and the buffer
// LookupRange collects its result in.
// A Scratch is owned by one goroutine at a time; the executor pools them
// per worker, so a steady-state point query performs no heap allocation.
// The zero value is ready to use (buffers grow on first use and are then
// reused).
type Scratch struct {
	key   []byte       // encoded probe key
	rec   btree.Record // read handle on the record a hop yields
	sweep btree.Sweep  // path through the tree a key-set hop reads
	a, b  []oodb.OID   // ping-pong hop buffers for chained probes
	out   []oodb.OID   // LookupRange's result before it is copied out
}

// NewScratch returns an empty scratch; buffers are sized by first use.
func NewScratch() *Scratch { return &Scratch{} }
