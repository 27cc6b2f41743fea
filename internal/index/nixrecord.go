package index

import (
	"encoding/binary"
	"fmt"

	"repro/internal/btree"
	"repro/internal/oodb"
)

// A primary record keeps the layout of Figure 3: a class directory —
// the class count, then (offset, count) per class in section order — and
// one section of 12-byte (OID, numchild) entries per class. Sections are
// laid out in directory order and a section's capacity is the gap to the
// next section's offset (to the record's end for the last), so a record
// may carry slack: room for entries not there yet. Lookups read count
// entries from offset and never see it.
//
// Slack is what lets maintenance patch a record instead of rebuilding it.
// A record short enough to live in its leaf has none: any change rewrites
// the leaf once whatever moved inside it. A record on overflow pages is a
// whole number of pages long, and when one of its sections is full, grow
// gives that section room for nixGrowNum/nixGrowDen more entries than it
// holds plus whatever is left of the last page the record then needs; the
// sections before it do not move and the others keep the room they have.
// Records never shrink short of emptying, when the key is deleted.
const (
	nixEntryLen = 12 // oid (8) + numchild (4)

	// A full section of n entries grows to n + 1 + n*nixGrowNum/nixGrowDen.
	// An eighth keeps a record within one page in eight of its packed size
	// — page rounding already costs every multi-page record half a page on
	// average — and makes the bytes moved over a section's life a small
	// multiple of its final size.
	nixGrowNum = 1
	nixGrowDen = 8
)

// nixSection is one directory entry.
type nixSection struct{ off, cnt int }

// nixView is one primary record opened for maintenance: the B-tree handle
// and the directory, decoded once. Every change to the record within one
// index operation goes through one view, so each of its pages is read and
// written at most once however long the cascade. The view reaches the
// records of one operation through one sweep of the tree, so records
// visited in key order also read each node on their paths once.
type nixView struct {
	t        *btree.Tree
	sw       btree.Sweep
	h        btree.Record
	dir      []nixSection // by section position
	dirDirty bool
	head     []byte // directory encoding buffer
}

// newNixView returns a view for the records of t, which have the given
// number of class sections.
func newNixView(t *btree.Tree, classes int) nixView {
	return nixView{t: t, dir: make([]nixSection, classes)}
}

func (v *nixView) headerLen() int { return 4 + 8*len(v.dir) }

// open positions the view on key's record through a sweep of that one key:
// a descent of its own.
func (v *nixView) open(key []byte) error {
	v.sw.Reset(v.t)
	return v.seek(key)
}

// seek moves the view on to key's record, continuing the sweep the last
// open or Reset of v.sw began; the record it stood on must have been
// flushed. An absent key opens as a record of empty sections that the first
// add creates.
func (v *nixView) seek(key []byte) error {
	v.sw.Seek(key, &v.h)
	v.dirDirty = false
	hl := v.headerLen()
	if !v.h.Exists() {
		for i := range v.dir {
			v.dir[i] = nixSection{off: hl}
		}
		return nil
	}
	if v.h.Len() < hl {
		return fmt.Errorf("index: truncated NIX record (%d bytes)", v.h.Len())
	}
	head := v.h.Read(0, hl)
	if nc := int(binary.BigEndian.Uint32(head)); nc != len(v.dir) {
		return fmt.Errorf("index: NIX record with %d classes, want %d", nc, len(v.dir))
	}
	for i := range v.dir {
		s := nixSection{
			off: int(binary.BigEndian.Uint32(head[4+8*i:])),
			cnt: int(binary.BigEndian.Uint32(head[8+8*i:])),
		}
		if s.off < hl || s.off+s.cnt*nixEntryLen > v.h.Len() {
			return fmt.Errorf("index: NIX section %d out of bounds", i)
		}
		v.dir[i] = s
	}
	return nil
}

// end returns the offset section pos's capacity runs to.
func (v *nixView) end(pos int) int {
	if pos+1 < len(v.dir) {
		return v.dir[pos+1].off
	}
	return max(v.h.Len(), v.headerLen())
}

// section returns the live entries of section pos, reading the pages they
// lie on.
func (v *nixView) section(pos int) []byte {
	s := v.dir[pos]
	if s.cnt == 0 {
		return nil
	}
	return v.h.Read(s.off, s.cnt*nixEntryLen)
}

// find returns the position of oid's entry in section pos, or -1.
func (v *nixView) find(pos int, oid oodb.OID) int {
	sec := v.section(pos)
	for i := 0; i < len(sec); i += nixEntryLen {
		if binary.BigEndian.Uint64(sec[i:]) == uint64(oid) {
			return i / nixEntryLen
		}
	}
	return -1
}

// oid returns the object of entry i of section pos.
func (v *nixView) oid(pos, i int) oodb.OID {
	return oodb.OID(binary.BigEndian.Uint64(v.h.Read(v.dir[pos].off+i*nixEntryLen, 8)))
}

// count returns the numchild of entry i of section pos.
func (v *nixView) count(pos, i int) uint32 {
	return binary.BigEndian.Uint32(v.h.Read(v.dir[pos].off+i*nixEntryLen+8, 4))
}

// setCount patches the numchild of entry i of section pos.
func (v *nixView) setCount(pos, i int, c uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], c)
	v.h.Patch(v.dir[pos].off+i*nixEntryLen+8, b[:])
}

// add appends the entry (oid, c) to section pos.
func (v *nixView) add(pos int, oid oodb.OID, c uint32) {
	s := &v.dir[pos]
	if s.off+(s.cnt+1)*nixEntryLen > v.end(pos) {
		v.grow(pos)
	}
	var b [nixEntryLen]byte
	binary.BigEndian.PutUint64(b[:], uint64(oid))
	binary.BigEndian.PutUint32(b[8:], c)
	v.h.Patch(s.off+s.cnt*nixEntryLen, b[:])
	s.cnt++
	v.dirDirty = true
}

// remove drops entry i of section pos by moving the section's last entry
// into its place.
func (v *nixView) remove(pos, i int) {
	s := &v.dir[pos]
	s.cnt--
	if i != s.cnt {
		v.h.Move(s.off+i*nixEntryLen, s.off+s.cnt*nixEntryLen, nixEntryLen)
	}
	v.dirDirty = true
}

// grow makes room in the full section pos: the record is extended and the
// sections behind pos shifted to its new end, all the room gained going to
// pos.
func (v *nixView) grow(pos int) {
	s := v.dir[pos]
	oldLen, end := max(v.h.Len(), v.headerLen()), v.end(pos)
	tail := oldLen - end // the sections behind pos, and the odd bytes behind them
	newEnd := s.off + (s.cnt+1)*nixEntryLen
	if newEnd+tail > v.t.MaxInline() {
		ps := v.t.Pager().PageSize()
		newEnd += s.cnt * nixGrowNum / nixGrowDen * nixEntryLen
		newEnd = (newEnd+tail+ps-1)/ps*ps - tail
	}
	v.h.Resize(newEnd + tail)
	if tail > 0 {
		v.h.Move(newEnd, end, tail)
	}
	for j := pos + 1; j < len(v.dir); j++ {
		v.dir[j].off += newEnd - end
	}
	v.dirDirty = true
}

// empty reports whether no section holds an entry.
func (v *nixView) empty() bool {
	for _, s := range v.dir {
		if s.cnt > 0 {
			return false
		}
	}
	return true
}

// flush writes the record's changes back — the directory if it changed,
// then every touched page once — and deletes the key of a record that
// emptied.
func (v *nixView) flush() {
	if v.dirDirty {
		if v.empty() {
			v.h.Delete()
		} else {
			v.head = binary.BigEndian.AppendUint32(v.head[:0], uint32(len(v.dir)))
			for _, s := range v.dir {
				v.head = binary.BigEndian.AppendUint32(v.head, uint32(s.off))
				v.head = binary.BigEndian.AppendUint32(v.head, uint32(s.cnt))
			}
			v.h.Patch(0, v.head)
		}
	}
	v.h.Flush()
}
