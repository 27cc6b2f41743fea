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
// Collect, CollectKeys, LookupInto and LookupRange are pure reads — they
// never mutate the structure — so any number of them may run concurrently
// under the owner's read lock. All four are entry points into the
// organization's one lookup kernel and differ only in its first hop
// (hop.go); the kernel decodes the records it reads straight into the
// scratch's OID set, which its caller reads back once.
type PathIndex interface {
	// Org identifies the organization.
	Org() cost.Organization
	// Bounds returns the subpath levels [A, B] the index covers.
	Bounds() (a, b int)
	// Collect adds to sc.Set() the OIDs of objects of targetClass at some
	// level within the subpath whose nested A_B value equals hop.Lo or,
	// when hop.Ranged, falls in [hop.Lo, hop.Hi) — with hierarchy set,
	// subclasses of targetClass are included. Several hops may be
	// collected into one set before it is read back; on error the set is
	// emptied. Transient buffers are threaded through sc, so the paper's
	// organizations allocate nothing in the steady state; sc is not
	// retained.
	Collect(hop Hop, targetClass string, hierarchy bool, sc *Scratch) error
	// CollectKeys is Collect for a sorted, duplicate-free set of OID keys
	// — what the next subpath of a configuration produced — answered by
	// one sweep of each tree instead of a descent per key. An unsorted set
	// gets the same answer at a higher page count. keys must not share
	// storage with sc.
	CollectKeys(keys []oodb.OID, targetClass string, hierarchy bool, sc *Scratch) error
	// LookupInto is Collect through a point hop on key, read back into
	// dst: the appended OIDs are sorted and duplicate-free. The returned
	// slice is the extended dst; neither dst nor sc is retained.
	LookupInto(key oodb.Value, targetClass string, hierarchy bool, dst []oodb.OID, sc *Scratch) ([]oodb.OID, error)
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
// resolution used by every organization. The scope table and the
// per-level class lists are resolved once at construction, so the lookup
// kernels never recompute them (schema.Hierarchy allocates on every call).
type Subpath struct {
	Path *schema.Path
	A, B int
	// scope maps every class in the subpath's scope to its global level and
	// the section positions of its inheritance hierarchy.
	scope map[string]scopeClass
	// levels[l-A] lists the hierarchy class names at global level l.
	levels [][]string
}

// scopeClass is one class of a subpath's scope. Positions number the
// classes in scope order — levels A..B, hierarchy order within a level —
// which is a NIX record's section order.
type scopeClass struct {
	level int
	hier  []int // the positions of the class's hierarchy, itself first
}

// NewSubpath validates bounds and precomputes the scope tables.
func NewSubpath(p *schema.Path, a, b int) (*Subpath, error) {
	if p == nil {
		return nil, fmt.Errorf("index: nil path")
	}
	if a < 1 || b > p.Len() || a > b {
		return nil, fmt.Errorf("index: invalid subpath [%d,%d] of %s", a, b, p)
	}
	sp := &Subpath{Path: p, A: a, B: b, scope: make(map[string]scopeClass)}
	// A class listed at two levels keeps its last level and position.
	pos, level, n := make(map[string]int), make(map[string]int), 0
	for l := a; l <= b; l++ {
		classes := p.HierarchyAt(l)
		sp.levels = append(sp.levels, classes)
		for _, cn := range classes {
			pos[cn], level[cn] = n, l
			n++
		}
	}
	for cn, l := range level {
		var hier []int
		for _, sub := range p.Schema().Hierarchy(cn) {
			if i, ok := pos[sub]; ok {
				hier = append(hier, i)
			}
		}
		sp.scope[cn] = scopeClass{level: l, hier: hier}
	}
	return sp, nil
}

// sections returns the section positions a query for class asks for: the
// class's own, and with hierarchy those of its subclasses in scope. ok is
// false for a class outside the scope. Callers must not modify the slice.
func (sp *Subpath) sections(class string, hierarchy bool) (pos []int, ok bool) {
	c, ok := sp.scope[class]
	if !ok {
		return nil, false
	}
	if !hierarchy {
		return c.hier[:1], true
	}
	return c.hier, true
}

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
	c, ok := sp.scope[class]
	return c.level, ok
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

// oidList returns the encoded OIDs of a serialized set and their count.
func oidList(b []byte) ([]byte, int, error) {
	if len(b) < 4 {
		return nil, 0, fmt.Errorf("index: truncated OID set")
	}
	n := int(binary.BigEndian.Uint32(b))
	if len(b) < 4+8*n {
		return nil, 0, fmt.Errorf("index: OID set of %d entries in %d bytes", n, len(b))
	}
	return b[4 : 4+8*n], n, nil
}

func decodeOIDSet(b []byte) ([]oodb.OID, error) {
	list, n, err := oidList(b)
	if err != nil {
		return nil, err
	}
	out := make([]oodb.OID, n)
	for i := range out {
		out[i] = oodb.OID(binary.BigEndian.Uint64(list[8*i:]))
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

// oidWindow is the lowest and highest OID an index's OnInsert has seen. It
// never shrinks, so every OID the index's records hold lies inside it; a
// lookup hands it to its OID set as the bitmap's window. The set treats it
// as a hint, so an answer never depends on it being right.
type oidWindow struct {
	lo, hi oodb.OID
	seen   bool
}

func (w *oidWindow) see(o oodb.OID) {
	if !w.seen {
		*w = oidWindow{lo: o, hi: o, seen: true}
		return
	}
	w.lo, w.hi = min(w.lo, o), max(w.hi, o)
}

// hint names the window to set, unless nothing was inserted yet.
func (w *oidWindow) hint(set *oodb.OIDSet) {
	if w.seen {
		set.Hint(w.lo, w.hi)
	}
}

// Scratch holds what a lookup kernel threads through the stack: an
// encoded-key buffer, the read handle on the record a hop yields and the
// path of a key-set hop's sweep (both emptied when the hop ends), the OID
// set a lookup collects its answer in, and an MX/MIX chain's set and key
// buffer for the levels below its first.
// A Scratch is owned by one goroutine at a time; the executor pools them
// per worker, so a steady-state point query performs no heap allocation.
// The zero value is ready to use (buffers grow on first use and are then
// reused).
type Scratch struct {
	key   []byte       // encoded probe key
	rec   btree.Record // read handle on the record a hop yields
	sweep btree.Sweep  // path through the tree a key-set hop reads
	set   oodb.OIDSet  // the answer Collect adds to
	chain oodb.OIDSet  // one level of an MX/MIX chain, below its first
	keys  []oodb.OID   // that level's OIDs: the next level's key set
}

// NewScratch returns an empty scratch; buffers are sized by first use.
func NewScratch() *Scratch { return &Scratch{} }

// Set returns the OID set Collect and CollectKeys add to. Its caller reads
// it back once (or resets it) before the scratch serves another lookup.
func (sc *Scratch) Set() *oodb.OIDSet { return &sc.set }
