package index

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/oodb"
	"repro/internal/storage"
)

// AttrIndex is the building block of the MX and MIX organizations and, on
// its own, the paper's simple index (one class) and inherited index (a
// class hierarchy): a B+-tree mapping each value of one attribute to the
// set of OIDs of the covered classes holding that value.
//
// Maintenance stages the changes an operation makes to the OID sets and
// applies them through one sweep of the tree (apply), so the records of one
// operation cost the distinct pages on their paths, as Section 3.1's CMT
// prices them, and not a descent each.
type AttrIndex struct {
	tree    *btree.Tree
	attr    string
	classes []string // covered classes

	edits []oidEdit    // staged, not yet applied
	sw    btree.Sweep  // apply's path through the tree
	h     btree.Record // the record apply stands on
}

// oidEdit is one staged change to the OID set under key: oid added or
// removed, or the whole record dropped.
type oidEdit struct {
	key []byte
	oid oodb.OID
	op  setOp
}

type setOp uint8

const (
	setAdd setOp = iota
	setRemove
	setDrop
)

// NewAttrIndex creates an index on attr covering the given classes, with
// pages drawn from pager. With one class this is a SIX; with a full
// hierarchy it is an IIX (class-hierarchy index).
func NewAttrIndex(pager *storage.Pager, name, attr string, classes []string) (*AttrIndex, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("index: attribute index needs at least one class")
	}
	return &AttrIndex{tree: btree.New(pager, name), attr: attr, classes: slices.Clone(classes)}, nil
}

// Covers reports whether the index covers the class.
func (ai *AttrIndex) Covers(class string) bool { return slices.Contains(ai.classes, class) }

// Attr returns the indexed attribute.
func (ai *AttrIndex) Attr() string { return ai.attr }

// Tree exposes the underlying B+-tree (for geometry assertions in tests).
func (ai *AttrIndex) Tree() *btree.Tree { return ai.tree }

// Lookup returns the OIDs associated with a value.
func (ai *AttrIndex) Lookup(v oodb.Value) ([]oodb.OID, error) {
	raw, ok := ai.tree.Get(EncodeValue(v))
	if !ok {
		return nil, nil
	}
	return decodeOIDSet(raw)
}

// Add associates obj.OID with each of the object's values of the indexed
// attribute.
func (ai *AttrIndex) Add(obj *oodb.Object) error {
	return ai.each(obj, setAdd)
}

// Remove dissociates obj.OID from each of its values; records that empty
// are deleted.
func (ai *AttrIndex) Remove(obj *oodb.Object) error {
	return ai.each(obj, setRemove)
}

// each applies op with obj.OID to the record of each of the object's
// values.
func (ai *AttrIndex) each(obj *oodb.Object, op setOp) error {
	if !ai.Covers(obj.Class) {
		return fmt.Errorf("index: %s index does not cover class %s", ai.attr, obj.Class)
	}
	for _, v := range obj.Values(ai.attr) {
		ai.stage(EncodeValue(v), obj.OID, op)
	}
	ai.apply()
	return nil
}

// stageUpdate stages an updated object's re-association: it is
// dissociated from the values only the old state held and associated with
// the values only the new state holds. Records whose membership does not
// change are never touched, so an update costs page accesses proportional
// to the number of values that actually moved.
func (ai *AttrIndex) stageUpdate(p Pair) {
	removed, added := diffKeys(p.Old.Values(ai.attr), p.New.Values(ai.attr))
	for _, k := range removed {
		ai.stage(k, p.Old.OID, setRemove)
	}
	for _, k := range added {
		ai.stage(k, p.Old.OID, setAdd)
	}
}

// RemoveKey drops the whole record keyed by an OID value — the boundary
// maintenance of Definition 4.2 (the referenced object was deleted, so the
// key value disappears from the domain).
func (ai *AttrIndex) RemoveKey(oid oodb.OID) {
	ai.stage(EncodeOID(oid), 0, setDrop)
	ai.apply()
}

func (ai *AttrIndex) stage(key []byte, oid oodb.OID, op setOp) {
	ai.edits = append(ai.edits, oidEdit{key: key, oid: oid, op: op})
}

// apply runs the staged edits through one sweep of the tree in key order,
// the edits of one key in the order they were staged: each record is
// opened once, edited, and flushed before the next key is sought.
func (ai *AttrIndex) apply() {
	edits := ai.edits
	if len(edits) == 0 {
		return
	}
	slices.SortStableFunc(edits, func(a, b oidEdit) int { return bytes.Compare(a.key, b.key) })
	h := &ai.h
	ai.sw.Reset(ai.tree)
	for i := 0; i < len(edits); {
		k := edits[i].key
		var set []byte // nil: no record
		if ai.sw.Seek(k, h) {
			set = h.Read(0, h.Len())
		}
		for ; i < len(edits) && bytes.Equal(edits[i].key, k); i++ {
			switch e := edits[i]; e.op {
			case setAdd:
				set = addOID(set, e.oid)
			case setRemove:
				set = removeOID(set, e.oid)
			default:
				set = nil
			}
		}
		if set == nil {
			h.Delete()
		} else {
			h.SetValue(set)
		}
		h.Flush()
	}
	ai.sw.Reset(nil)
	clear(edits)
	ai.edits = edits[:0]
}

// Len returns the number of distinct indexed values.
func (ai *AttrIndex) Len() int { return ai.tree.Len() }
