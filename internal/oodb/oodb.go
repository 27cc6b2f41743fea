// Package oodb is the in-memory paged object store the working indexes are
// built over. It follows the paper's physical assumptions: every object is
// identified by a system-generated OID, a page contains objects of only one
// class, and objects hold forward references only. Page accesses are
// counted through a storage.Pager.
package oodb

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/schema"
	"repro/internal/storage"
)

// ErrNotFound reports a lookup of an OID with no live object — either one
// that never existed or one already deleted. Callers navigating forward
// references test for it with errors.Is to distinguish a dangling
// reference (expected under the paper's forward-reference model) from a
// genuine store failure.
var ErrNotFound = errors.New("object not found")

// OID identifies an object; zero is never valid.
type OID uint64

// ValueKind discriminates attribute values.
type ValueKind int

const (
	// IntVal is an integer-valued attribute value.
	IntVal ValueKind = iota
	// StrVal is a string-valued attribute value.
	StrVal
	// RefVal is a reference to another object (a part-of relationship).
	RefVal
)

// Value is one attribute value: an integer, a string, or an object
// reference. Multi-valued attributes hold several Values.
type Value struct {
	Kind ValueKind
	Int  int64
	Str  string
	Ref  OID
}

// IntV, StrV and RefV are Value constructors.
func IntV(v int64) Value  { return Value{Kind: IntVal, Int: v} }
func StrV(v string) Value { return Value{Kind: StrVal, Str: v} }
func RefV(o OID) Value    { return Value{Kind: RefVal, Ref: o} }

// Size returns the budgeted storage footprint of the value in bytes.
func (v Value) Size() int {
	switch v.Kind {
	case StrVal:
		return 4 + len(v.Str)
	default:
		return 8
	}
}

// Equal compares two values.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case IntVal:
		return v.Int == o.Int
	case StrVal:
		return v.Str == o.Str
	default:
		return v.Ref == o.Ref
	}
}

// Compare orders two values: -1, 0 or +1 as v sorts before, equal to or
// after o. Values of different kinds order by kind (integers before
// strings before references), making the order total — what the shard
// summaries' min/max bounds and the planner's range predicates rely on.
func (v Value) Compare(o Value) int {
	if v.Kind != o.Kind {
		if v.Kind < o.Kind {
			return -1
		}
		return 1
	}
	switch v.Kind {
	case IntVal:
		switch {
		case v.Int < o.Int:
			return -1
		case v.Int > o.Int:
			return 1
		}
	case StrVal:
		switch {
		case v.Str < o.Str:
			return -1
		case v.Str > o.Str:
			return 1
		}
	default:
		switch {
		case v.Ref < o.Ref:
			return -1
		case v.Ref > o.Ref:
			return 1
		}
	}
	return 0
}

// ValuesEqual compares two value slices element-wise (order-sensitive).
// Index maintenance uses it as the cheap "did this attribute actually
// change" test on the update path.
func ValuesEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case IntVal:
		return fmt.Sprintf("%d", v.Int)
	case StrVal:
		return v.Str
	default:
		return fmt.Sprintf("oid:%d", v.Ref)
	}
}

// Object is a stored object: its identity, class, and attribute values.
type Object struct {
	OID   OID
	Class string
	Attrs map[string][]Value
}

// Values returns the attribute's values (nil if unset).
func (o *Object) Values(attr string) []Value { return o.Attrs[attr] }

// Refs returns the OIDs held by a reference attribute.
func (o *Object) Refs(attr string) []OID {
	var out []OID
	for _, v := range o.Attrs[attr] {
		if v.Kind == RefVal {
			out = append(out, v.Ref)
		}
	}
	return out
}

// size is the budgeted footprint of the object on a page.
func (o *Object) size() int {
	s := 16 // OID + header
	for name, vals := range o.Attrs {
		s += 4 + len(name)
		for _, v := range vals {
			s += v.Size()
		}
	}
	return s
}

// pageSlot tracks the objects living on one page.
type pageSlot struct {
	page *storage.Page
	used int
	oids map[OID]bool
}

// objEntry couples an object with the page slot storing it, so the hot
// read path resolves both with a single map lookup.
type objEntry struct {
	obj  *Object
	slot *pageSlot
}

// Store is the object database.
//
// Concurrency: objects are immutable once stored — Update installs a
// fresh object under the same OID instead of mutating — and the catalog
// maps are guarded by an RWMutex: readers (Get, Peek, the scans, OID
// listings) run concurrently with each other and serialize only against
// Insert, Update and Delete. This is what lets the engine collect statistics and
// bulk-load replacement indexes in the background while queries keep
// flowing. The scan callbacks run outside the lock (on an immutable
// snapshot of the class's objects), so a callback may itself re-enter the
// store without risking a recursive read-lock deadlock.
//
// The read paths consult pre-resolved tables where possible: the object
// and its page slot live in one map entry (one lookup under the read lock
// instead of two), and the inheritance hierarchy of every class is
// resolved once at construction, so scans and hierarchy listings never
// recompute the subclass closure under traffic.
type Store struct {
	schema *schema.Schema
	pager  *storage.Pager
	// hier pre-resolves schema.Hierarchy for every class known at
	// construction; read-only afterwards, so it is consulted without the
	// lock. Classes added to the schema later fall back to the schema.
	hier map[string][]string

	mu      sync.RWMutex // guards next, objects, classPages
	next    OID
	stride  OID // OID sequence step; 1 for a standalone store
	objects map[OID]objEntry
	// classPages maps a class to its pages in allocation order; the last
	// page receives new objects until full.
	classPages map[string][]*pageSlot
}

// NewStore creates a store over its own pager with the given page size.
// OIDs are minted sequentially from 1.
func NewStore(s *schema.Schema, pageSize int) (*Store, error) {
	return NewStoreSeq(s, pageSize, 1, 1)
}

// NewStoreSeq is NewStore with an explicit OID sequence: the store mints
// first, first+stride, first+2*stride, ... This is the shard-aware
// allocation underpinning OID-hash partitioning: a store created with
// (first = i or n, stride = n) only ever mints OIDs congruent to
// i mod n, so a router can resolve any OID to its shard with one
// modulo — a pure function of the OID, stable for the object's whole
// lifetime, with no directory to maintain. first must be at least 1
// (zero is never a valid OID) and stride at least 1.
func NewStoreSeq(s *schema.Schema, pageSize int, first OID, stride uint64) (*Store, error) {
	pager, err := storage.NewPager(pageSize, 0)
	if err != nil {
		return nil, err
	}
	return NewStoreWithPager(s, pager, first, stride)
}

// NewStoreWithPager is NewStoreSeq over a caller-supplied pager — the
// durable engine passes a disk-backed pager (storage.NewPagerBacked) so
// buffer-pool misses and dirty write-backs hit a real page file, while
// everything else about the store is unchanged.
func NewStoreWithPager(s *schema.Schema, pager *storage.Pager, first OID, stride uint64) (*Store, error) {
	if s == nil {
		return nil, fmt.Errorf("oodb: nil schema")
	}
	if pager == nil {
		return nil, fmt.Errorf("oodb: nil pager")
	}
	if first < 1 {
		return nil, fmt.Errorf("oodb: first OID must be at least 1, got %d", first)
	}
	if stride < 1 {
		return nil, fmt.Errorf("oodb: OID stride must be at least 1, got %d", stride)
	}
	hier := make(map[string][]string)
	for _, cn := range s.Classes() {
		hier[cn] = s.Hierarchy(cn)
	}
	return &Store{
		schema:     s,
		pager:      pager,
		hier:       hier,
		next:       first,
		stride:     OID(stride),
		objects:    make(map[OID]objEntry),
		classPages: make(map[string][]*pageSlot),
	}, nil
}

// OIDSeq returns the store's OID sequence position: the OID the next
// Insert will mint and the sequence stride. A sharded deployment uses it
// to verify that a store's allocation pattern matches its shard slot.
func (st *Store) OIDSeq() (next OID, stride uint64) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.next, uint64(st.stride)
}

// hierarchyOf returns the pre-resolved hierarchy of a class. If any class
// was added to the schema after the store was created the whole table is
// stale — a new subclass extends existing roots' hierarchies — so the
// schema is consulted live; the class count is the staleness check.
func (st *Store) hierarchyOf(root string) []string {
	if st.schema.NumClasses() != len(st.hier) {
		return st.schema.Hierarchy(root)
	}
	if h, ok := st.hier[root]; ok {
		return h
	}
	return st.schema.Hierarchy(root)
}

// Schema returns the store's schema.
func (st *Store) Schema() *schema.Schema { return st.schema }

// Pager exposes the store's pager for access accounting.
func (st *Store) Pager() *storage.Pager { return st.pager }

// Len returns the number of live objects.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.objects)
}

// ClassCount returns the number of objects of exactly the given class.
func (st *Store) ClassCount(class string) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var n int
	for _, slot := range st.classPages[class] {
		n += len(slot.oids)
	}
	return n
}

// validateAttrs checks attribute names, arity and reference targets for
// an object of the given class: names must resolve on the class (including
// inherited attributes), single-valued attributes get at most one value,
// and reference values must point at live objects of the declared domain
// (or a subclass of it). self, when non-zero, is the OID of the object
// being updated, which its own references may not point at. The map must
// also be one the codec can encode (CheckAttrs). Callers hold st.mu.
func (st *Store) validateAttrs(class string, attrs map[string][]Value, self OID) error {
	if err := CheckAttrs(attrs); err != nil {
		return err
	}
	for name, vals := range attrs {
		decl, ok := st.schema.ResolveAttr(class, name)
		if !ok {
			return fmt.Errorf("oodb: class %q has no attribute %q", class, name)
		}
		if !decl.MultiValued && len(vals) > 1 {
			return fmt.Errorf("oodb: attribute %s.%s is single-valued but got %d values", class, name, len(vals))
		}
		for _, v := range vals {
			if decl.Kind == schema.Ref {
				if v.Kind != RefVal {
					return fmt.Errorf("oodb: attribute %s.%s needs references", class, name)
				}
				if self != 0 && v.Ref == self {
					return fmt.Errorf("oodb: %s.%s may not reference its own object %d", class, name, self)
				}
				target, ok := st.objects[v.Ref]
				if !ok {
					return fmt.Errorf("oodb: %s.%s references missing object %d (forward references only)", class, name, v.Ref)
				}
				if !st.schema.IsSubclassOf(target.obj.Class, decl.Domain) {
					return fmt.Errorf("oodb: %s.%s references %s object, want %s", class, name, target.obj.Class, decl.Domain)
				}
			} else if v.Kind == RefVal {
				return fmt.Errorf("oodb: attribute %s.%s is atomic but got a reference", class, name)
			}
		}
	}
	return nil
}

// Insert stores a new object of the given class and returns its OID. The
// class must exist; attribute names must resolve on the class (including
// inherited attributes); reference values must point at live objects of
// the declared domain (or a subclass of it).
func (st *Store) Insert(class string, attrs map[string][]Value) (OID, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.schema.Class(class) == nil {
		return 0, fmt.Errorf("oodb: unknown class %q", class)
	}
	if err := st.validateAttrs(class, attrs, 0); err != nil {
		return 0, err
	}
	obj := &Object{OID: st.next, Class: class, Attrs: make(map[string][]Value, len(attrs))}
	st.next += st.stride
	for k, vs := range attrs {
		obj.Attrs[k] = append([]Value(nil), vs...)
	}
	slot, err := st.placeObject(obj)
	if err != nil {
		return 0, err
	}
	st.objects[obj.OID] = objEntry{obj: obj, slot: slot}
	return obj.OID, nil
}

// placeObject puts the object on the last page of its class, allocating a
// new page when it does not fit, and counts the page write. The write can
// only fail on a disk-backed pager whose backend has failed; the pager
// latches that error (see Store.Err), so the catalog update still standing
// is harmless — the store is condemned either way.
func (st *Store) placeObject(obj *Object) (*pageSlot, error) {
	pages := st.classPages[obj.Class]
	need := obj.size()
	var slot *pageSlot
	if len(pages) > 0 {
		last := pages[len(pages)-1]
		if last.used+need <= st.pager.PageSize() {
			slot = last
		}
	}
	if slot == nil {
		slot = &pageSlot{page: st.pager.Alloc("obj/" + obj.Class), oids: make(map[OID]bool)}
		st.classPages[obj.Class] = append(pages, slot)
	}
	slot.used += need
	slot.oids[obj.OID] = true
	if err := st.pager.Write(slot.page); err != nil {
		return nil, fmt.Errorf("oodb: placing object %d: %w", obj.OID, err)
	}
	return slot, nil
}

// Get fetches an object, counting one page read. A missing OID reports
// ErrNotFound.
func (st *Store) Get(oid OID) (*Object, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	e, ok := st.objects[oid]
	if !ok {
		return nil, fmt.Errorf("oodb: no object %d: %w", oid, ErrNotFound)
	}
	if _, err := st.pager.Read(e.slot.page.ID); err != nil {
		return nil, fmt.Errorf("oodb: reading object %d: %w", oid, err)
	}
	return e.obj, nil
}

// Peek returns an object without counting a page access; for test
// assertions and internal bookkeeping that would not touch disk.
func (st *Store) Peek(oid OID) (*Object, bool) {
	st.mu.RLock()
	e, ok := st.objects[oid]
	st.mu.RUnlock()
	return e.obj, ok
}

// Update replaces the named attributes of a live object in place and
// returns the object's states before and after the change — the pair
// index maintenance diffs. Attributes not named keep their values; an
// empty or nil value slice removes the attribute. Validation matches
// Insert (names resolve on the class, arity, reference domains), with one
// relaxation: a reference may re-link to any live object of the declared
// domain, not only earlier-inserted ones — OIDs and classes never change,
// Definition 2.1 forbids a class from repeating along a path, and
// navigation depth is bounded by path length, so re-linking cannot make
// path evaluation diverge. A reference to the object itself is rejected.
//
// Page accounting: one read to fetch the object plus one write to store
// it; when the new size no longer fits its page the object relocates to
// the tail page of its class (a write on each side, and the old page is
// freed if it empties).
//
// Objects stay immutable: Update installs a fresh *Object under the same
// OID, so readers holding the old pointer keep a consistent snapshot. A
// missing OID reports ErrNotFound.
func (st *Store) Update(oid OID, attrs map[string][]Value) (old, updated *Object, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.objects[oid]
	if !ok {
		return nil, nil, fmt.Errorf("oodb: no object %d: %w", oid, ErrNotFound)
	}
	old = e.obj
	if err := st.validateAttrs(old.Class, attrs, oid); err != nil {
		return nil, nil, err
	}
	upd := &Object{OID: oid, Class: old.Class, Attrs: make(map[string][]Value, len(old.Attrs)+len(attrs))}
	for k, vs := range old.Attrs {
		upd.Attrs[k] = vs // unchanged attributes share the immutable slices
	}
	for k, vs := range attrs {
		if len(vs) == 0 {
			delete(upd.Attrs, k)
			continue
		}
		upd.Attrs[k] = append([]Value(nil), vs...)
	}
	slot := e.slot
	if _, err := st.pager.Read(slot.page.ID); err != nil {
		return nil, nil, fmt.Errorf("oodb: updating object %d: %w", oid, err)
	}
	if delta := upd.size() - old.size(); slot.used+delta <= st.pager.PageSize() {
		slot.used += delta
		st.objects[oid] = objEntry{obj: upd, slot: slot}
		if err := st.pager.Write(slot.page); err != nil {
			return nil, nil, fmt.Errorf("oodb: updating object %d: %w", oid, err)
		}
		return old, upd, nil
	}
	// The grown object no longer fits its page: drop it there and
	// re-place it on the tail page of its class.
	if err := st.dropFromSlotLocked(old, slot); err != nil {
		return nil, nil, fmt.Errorf("oodb: updating object %d: %w", oid, err)
	}
	ns, err := st.placeObject(upd)
	if err != nil {
		return nil, nil, err
	}
	st.objects[oid] = objEntry{obj: upd, slot: ns}
	return old, upd, nil
}

// dropFromSlotLocked removes an object's footprint from its page slot,
// writing the shrunken page or freeing it when it empties. Callers hold
// st.mu and handle the st.objects entry themselves.
func (st *Store) dropFromSlotLocked(obj *Object, slot *pageSlot) error {
	delete(slot.oids, obj.OID)
	slot.used -= obj.size()
	if len(slot.oids) == 0 {
		pages := st.classPages[obj.Class]
		for i, s := range pages {
			if s == slot {
				st.classPages[obj.Class] = append(pages[:i], pages[i+1:]...)
				break
			}
		}
		return st.pager.Free(slot.page.ID)
	}
	return st.pager.Write(slot.page)
}

// Delete removes an object, counting a page write (and freeing the page if
// it empties). Dangling references from other objects are permitted, as in
// the paper's forward-reference model; index maintenance handles them.
// A missing OID reports ErrNotFound.
func (st *Store) Delete(oid OID) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.objects[oid]
	if !ok {
		return fmt.Errorf("oodb: no object %d: %w", oid, ErrNotFound)
	}
	delete(st.objects, oid)
	if err := st.dropFromSlotLocked(e.obj, e.slot); err != nil {
		return fmt.Errorf("oodb: deleting object %d: %w", oid, err)
	}
	return nil
}

// ScanClass iterates the objects of exactly the given class; fn
// returning false stops the scan. The class's objects are snapshotted
// under the read lock and fn runs outside it, so fn may re-enter the
// store (e.g. navigate references with Get). Page-access accounting is
// per class, not per page visited: every page of the class counts one
// read when the snapshot is taken, even if fn stops the iteration early.
func (st *Store) ScanClass(class string, fn func(*Object) bool) {
	st.mu.RLock()
	var objs []*Object
	for _, slot := range st.classPages[class] {
		// A read can only fail on a disk-backed pager with a dead backend;
		// the pager latches that error (Store.Err) and the in-memory image
		// stays valid, so the scan proceeds on it.
		st.pager.Read(slot.page.ID) //nolint:errcheck
		for oid := range slot.oids {
			objs = append(objs, st.objects[oid].obj)
		}
	}
	st.mu.RUnlock()
	for _, obj := range objs {
		if !fn(obj) {
			return
		}
	}
}

// ScanHierarchy iterates the objects of the class and all its subclasses.
// The subclass closure comes from the pre-resolved hierarchy table.
func (st *Store) ScanHierarchy(root string, fn func(*Object) bool) {
	for _, cn := range st.hierarchyOf(root) {
		stop := false
		st.ScanClass(cn, func(o *Object) bool {
			if !fn(o) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// OIDsOfClass returns the OIDs of the class's objects in ascending order
// (no page accesses; catalog information). The order is the contract: a
// page lists its objects in map order, and a caller that builds from this
// list — a bulk load, a differential sweep — must see the same sequence on
// every run.
func (st *Store) OIDsOfClass(class string) []OID {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []OID
	for _, slot := range st.classPages[class] {
		for oid := range slot.oids {
			out = append(out, oid)
		}
	}
	slices.Sort(out)
	return out
}

// PagesOfClass returns the number of pages used by a class.
func (st *Store) PagesOfClass(class string) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.classPages[class])
}
