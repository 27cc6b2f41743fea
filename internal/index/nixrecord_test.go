package index

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/oodb"
	"repro/internal/storage"
)

// The oracle: a primary record as plain slices, with the packed encoding
// and the decode-everything reader maintenance used to run on. Production
// code patches records in place through nixView; these stay as the
// reference it is compared against.

type nixEntry struct {
	oid   oodb.OID
	count uint32
}

// nixRecord is a decoded primary record: one entry list per class section.
type nixRecord struct {
	sections [][]nixEntry
}

func (r *nixRecord) empty() bool {
	for _, s := range r.sections {
		if len(s) > 0 {
			return false
		}
	}
	return true
}

func (r *nixRecord) find(pos int, oid oodb.OID) int {
	return slices.IndexFunc(r.sections[pos], func(e nixEntry) bool { return e.oid == oid })
}

// sorted returns the sections ordered by OID: a section is a set, and the
// view's swap-remove does not keep insertion order.
func (r *nixRecord) sorted() [][]nixEntry {
	out := make([][]nixEntry, len(r.sections))
	for i, s := range r.sections {
		out[i] = append([]nixEntry{}, s...)
		slices.SortFunc(out[i], func(a, b nixEntry) int { return int(a.oid) - int(b.oid) })
	}
	return out
}

// encodeRecord lays a record out packed: directory, then the sections back
// to back with no slack.
func encodeRecord(r *nixRecord) []byte {
	h := 4 + 8*len(r.sections)
	total := h
	for _, s := range r.sections {
		total += len(s) * nixEntryLen
	}
	out := make([]byte, total)
	binary.BigEndian.PutUint32(out, uint32(len(r.sections)))
	off := h
	for i, s := range r.sections {
		binary.BigEndian.PutUint32(out[4+8*i:], uint32(off))
		binary.BigEndian.PutUint32(out[4+8*i+4:], uint32(len(s)))
		for _, e := range s {
			binary.BigEndian.PutUint64(out[off:], uint64(e.oid))
			binary.BigEndian.PutUint32(out[off+8:], e.count)
			off += nixEntryLen
		}
	}
	return out
}

// decodeRecord reads every section of a record of classes sections through
// its directory, checking that the sections lie in order inside the value
// without overlapping.
func decodeRecord(b []byte, classes int) (*nixRecord, error) {
	h := 4 + 8*classes
	if len(b) < h {
		return nil, fmt.Errorf("index: truncated NIX record (%d bytes)", len(b))
	}
	if nc := int(binary.BigEndian.Uint32(b)); nc != classes {
		return nil, fmt.Errorf("index: NIX record with %d classes, want %d", nc, classes)
	}
	r := &nixRecord{sections: make([][]nixEntry, classes)}
	floor := h
	for i := 0; i < classes; i++ {
		off := int(binary.BigEndian.Uint32(b[4+8*i:]))
		cnt := int(binary.BigEndian.Uint32(b[4+8*i+4:]))
		if off < floor || off+cnt*nixEntryLen > len(b) {
			return nil, fmt.Errorf("index: NIX section %d at [%d,+%d entries) outside [%d,%d)", i, off, cnt, floor, len(b))
		}
		floor = off + cnt*nixEntryLen
		for j := 0; j < cnt; j++ {
			p := off + j*nixEntryLen
			r.sections[i] = append(r.sections[i], nixEntry{
				oid:   oodb.OID(binary.BigEndian.Uint64(b[p:])),
				count: binary.BigEndian.Uint32(b[p+8:]),
			})
		}
	}
	return r, nil
}

// recordRig is one primary record kept twice: in a tree, maintained through
// a nixView, and in the oracle.
type recordRig struct {
	t       *testing.T
	tree    *btree.Tree
	view    nixView
	key     []byte
	classes int
	base    int // pager pages before the record exists
	open    bool
	want    *nixRecord
}

func newRecordRig(t *testing.T, pageSize, classes int) *recordRig {
	tree := btree.New(storage.MustNewPager(pageSize, 0), "rig")
	return &recordRig{
		t: t, tree: tree, view: newNixView(tree, classes), key: EncodeValue(oodb.StrV("k")),
		classes: classes, base: tree.Pager().NumPages(),
		want: &nixRecord{sections: make([][]nixEntry, classes)},
	}
}

func (r *recordRig) ensureOpen() {
	if !r.open {
		if err := r.view.open(r.key); err != nil {
			r.t.Fatal(err)
		}
		r.open = true
	}
}

// add puts (oid, c) into section pos of both copies, adding c to the count
// of an entry already there.
func (r *recordRig) add(pos int, oid oodb.OID, c uint32) {
	r.ensureOpen()
	i, j := r.view.find(pos, oid), r.want.find(pos, oid)
	if (i < 0) != (j < 0) {
		r.t.Fatalf("find(%d, %d): view %d, oracle %d", pos, oid, i, j)
	}
	if i < 0 {
		r.view.add(pos, oid, c)
		r.want.sections[pos] = append(r.want.sections[pos], nixEntry{oid, c})
		return
	}
	if got := r.view.count(pos, i); got != r.want.sections[pos][j].count {
		r.t.Fatalf("count(%d, %d): view %d, oracle %d", pos, oid, got, r.want.sections[pos][j].count)
	}
	r.view.setCount(pos, i, r.view.count(pos, i)+c)
	r.want.sections[pos][j].count += c
}

func (r *recordRig) remove(pos int, oid oodb.OID) {
	r.ensureOpen()
	i, j := r.view.find(pos, oid), r.want.find(pos, oid)
	if (i < 0) != (j < 0) {
		r.t.Fatalf("find(%d, %d): view %d, oracle %d", pos, oid, i, j)
	}
	if i >= 0 {
		r.view.remove(pos, i)
		r.want.sections[pos] = slices.Delete(r.want.sections[pos], j, j+1)
	}
}

// flush writes the view back and compares what the tree now holds with the
// oracle, section by section, the way a lookup would read it.
func (r *recordRig) flush() {
	if r.open {
		r.view.flush()
		r.open = false
	}
	if err := r.tree.Validate(); err != nil {
		r.t.Fatal(err)
	}
	val, ok := r.tree.Get(r.key)
	if r.want.empty() {
		if ok || r.tree.Pager().NumPages() != r.base {
			r.t.Fatalf("emptied record: key present %v, %d pages (base %d)", ok, r.tree.Pager().NumPages(), r.base)
		}
		return
	}
	if !ok {
		r.t.Fatalf("record missing; oracle has %v", r.want.sections)
	}
	got, err := decodeRecord(val, r.classes)
	if err != nil {
		r.t.Fatal(err)
	}
	if !reflect.DeepEqual(got.sorted(), r.want.sorted()) {
		r.t.Fatalf("record diverged:\n  view:   %v\n  oracle: %v", got.sorted(), r.want.sorted())
	}
}

// repack replaces the stored record by the oracle's packed encoding: the
// view must work on records it did not lay out — no slack anywhere, a
// length that is not whole pages.
func (r *recordRig) repack() {
	r.flush()
	if !r.want.empty() {
		r.tree.Insert(r.key, encodeRecord(r.want))
	}
}

// run interprets ops, three bytes each, as a maintenance history.
func (r *recordRig) run(ops []byte) {
	for ; len(ops) >= 3; ops = ops[3:] {
		kind, a, b := ops[0], int(ops[1]), int(ops[2])
		pos, oid := a%r.classes, oodb.OID(1+b%40)
		switch kind % 10 {
		case 0, 1, 2:
			r.add(pos, oid, uint32(1+b/40))
		case 3, 4:
			r.remove(pos, oid)
		case 5: // a run of fresh entries: fills slack, forces growth
			for i := 0; i <= b%24; i++ {
				r.add(pos, oodb.OID(1000+a*32+i), 1)
			}
		case 6: // empty a section
			for len(r.want.sections[pos]) > 0 {
				r.remove(pos, r.want.sections[pos][b%len(r.want.sections[pos])].oid)
			}
		case 7: // empty the record
			for p := range r.want.sections {
				for len(r.want.sections[p]) > 0 {
					r.remove(p, r.want.sections[p][0].oid)
				}
			}
		case 8: // first, last and only entries go by swap-remove too
			if s := r.want.sections[pos]; len(s) > 0 {
				r.remove(pos, s[(b%2)*(len(s)-1)].oid)
			}
		case 9:
			r.repack()
		}
		if kind < 128 { // otherwise the next op shares this one's handle
			r.flush()
		}
	}
	r.flush()
}

// TestNIXRecordMatchesOracle is the differential of the patched record
// against the decode/encode oracle: random histories at page sizes small
// enough that growth, the inline/overflow crossing and multi-page shifts
// all happen within a few operations.
func TestNIXRecordMatchesOracle(t *testing.T) {
	for _, pageSize := range []int{128, 256, 1024} {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 3*400)
			rng.Read(ops)
			newRecordRig(t, pageSize, 1+int(seed)%6).run(ops)
		}
	}
}

func FuzzNIXRecord(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 0, 0})                                // add then remove the only entry: the key goes
	f.Add([]byte{5, 0, 23, 5, 1, 23, 5, 0, 23, 8, 0, 0, 8, 0, 1})  // grow two sections across the inline limit, swap-remove first and last
	f.Add([]byte{5, 2, 23, 9, 0, 0, 5, 2, 23, 133, 1, 5, 6, 2, 0}) // packed by hand, grown again, shared handle, section emptied
	f.Add([]byte{5, 0, 23, 5, 0, 23, 7, 0, 0, 0, 1, 1})            // multi-page record emptied, key re-created inline
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*200 {
			ops = ops[:3*200]
		}
		newRecordRig(t, 128, 3).run(ops)
	})
}

// pagesUnder counts the distinct pages of size ps under the byte ranges
// (pairs of offset and length).
func pagesUnder(ps int, ranges ...int) uint64 {
	seen := map[int]bool{}
	for i := 0; i < len(ranges); i += 2 {
		for p := ranges[i] / ps; ranges[i+1] > 0 && p <= (ranges[i]+ranges[i+1]-1)/ps; p++ {
			seen[p] = true
		}
	}
	return uint64(len(seen))
}

// TestNIXRecordPageAccounting pins what one entry's maintenance costs on a
// record of many overflow pages: one descent, the directory page, the pages
// of that one section — never another section's — and at most the entry's
// page and the directory page written, each once.
func TestNIXRecordPageAccounting(t *testing.T) {
	const ps, classes = 256, 6
	const person, vehicle, division = 0, 1, 5
	rig := newRecordRig(t, ps, classes)
	for i := 0; i < 100; i++ { // the Vehicle section alone is five pages
		rig.add(vehicle, oodb.OID(5000+i), 1)
	}
	for i := 0; i < 30; i++ {
		rig.add(person, oodb.OID(100+i), 1)
	}
	rig.add(division, 9000, 1)
	rig.flush()
	v, tree := &rig.view, rig.tree
	h := uint64(tree.Height())
	hl := v.headerLen()
	// measure runs one operation on a fresh view and returns its counters
	// and the directory as the operation found it.
	measure := func(op func()) (storage.Stats, []nixSection) {
		t.Helper()
		tree.Pager().ResetStats()
		if err := v.open(rig.key); err != nil {
			t.Fatal(err)
		}
		rig.open = true
		dir := slices.Clone(v.dir)
		op()
		v.flush()
		s := tree.Pager().Stats()
		rig.open = false
		rig.flush()
		return s, dir
	}
	if err := v.open(rig.key); err != nil {
		t.Fatal(err)
	}
	if v.h.Len() < 8*ps {
		t.Fatalf("record of %d bytes; the test wants 8 pages or more", v.h.Len())
	}
	for v.dir[person].off+(v.dir[person].cnt+1)*nixEntryLen > v.end(person) { // make sure the next add finds slack
		rig.open = true
		rig.add(person, oodb.OID(200+v.dir[person].cnt), 1)
	}
	rig.open = true
	rig.flush()

	// Add with slack.
	s, dir := measure(func() { rig.add(person, 300, 1) })
	sec := dir[person]
	slot := sec.off + sec.cnt*nixEntryLen
	if want := h + pagesUnder(ps, 0, hl, sec.off, sec.cnt*nixEntryLen, slot, nixEntryLen); s.Reads != want {
		t.Errorf("add: %d reads, want %d (descent, directory, Person section)", s.Reads, want)
	}
	if want := pagesUnder(ps, 0, hl, slot, nixEntryLen); s.Writes != want || want > 2 || s.Allocs != 0 || s.Frees != 0 {
		t.Errorf("add: %+v, want %d writes (the entry's page and the directory's)", s, want)
	}

	// numchild change: the entry's page only.
	s, dir = measure(func() { rig.add(person, 100, 4) })
	sec = dir[person]
	if want := h + pagesUnder(ps, 0, hl, sec.off, sec.cnt*nixEntryLen); s.Reads != want || s.Writes != 1 || s.Allocs+s.Frees != 0 {
		t.Errorf("numchild: %+v, want %d reads and 1 write", s, want)
	}

	// Remove: the last entry moves into the hole, the directory count drops.
	s, dir = measure(func() { rig.remove(person, 100) })
	sec = dir[person]
	if want := h + pagesUnder(ps, 0, hl, sec.off, sec.cnt*nixEntryLen); s.Reads != want {
		t.Errorf("remove: %d reads, want %d", s.Reads, want)
	}
	if want := pagesUnder(ps, 0, hl, sec.off, nixEntryLen); s.Writes != want || want > 2 || s.Allocs+s.Frees != 0 {
		t.Errorf("remove: %+v, want %d writes", s, want)
	}

	// The last section grows by extending the chain: nothing moves.
	for v.open(rig.key); v.dir[division].off+(v.dir[division].cnt+1)*nixEntryLen <= v.end(division); v.open(rig.key) {
		rig.add(division, oodb.OID(9001+v.dir[division].cnt), 1)
		rig.flush()
	}
	s, dir = measure(func() { rig.add(division, 9999, 1) })
	sec = dir[division]
	slot = sec.off + sec.cnt*nixEntryLen
	if want := pagesUnder(ps, 0, hl, slot, nixEntryLen); s.Allocs != 1 || s.Writes != want || s.Frees != 0 {
		t.Errorf("chain growth at the last section: %+v, want 1 allocation and %d writes (directory, the entry's pages)", s, want)
	}
	if want := h + pagesUnder(ps, 0, hl, sec.off, sec.cnt*nixEntryLen); s.Reads != want {
		t.Errorf("chain growth at the last section: %d reads, want %d", s.Reads, want)
	}

	// The first section growing shifts everything behind it — rarely: the
	// writes of a long run of adds stay a small constant per entry.
	var total storage.Stats
	const run = 400
	for i := 0; i < run; i++ {
		s, _ := measure(func() { rig.add(person, oodb.OID(10000+i), 1) })
		total.Add(s)
	}
	if perAdd := float64(total.Writes) / run; perAdd > 4 {
		t.Errorf("%.2f page writes per Person add over %d adds, want a small constant", perAdd, run)
	}
	t.Logf("%d adds: %.2f reads, %.2f writes, %.3f allocations per add; record now %d pages",
		run, float64(total.Reads)/run, float64(total.Writes)/run, float64(total.Allocs)/run, tree.Pager().NumPages()-rig.base)
}
