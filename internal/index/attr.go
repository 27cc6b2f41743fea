package index

import (
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
type AttrIndex struct {
	tree    *btree.Tree
	attr    string
	classes []string // covered classes
}

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
	if !ai.Covers(obj.Class) {
		return fmt.Errorf("index: %s index does not cover class %s", ai.attr, obj.Class)
	}
	for _, v := range obj.Values(ai.attr) {
		ai.tree.Update(EncodeValue(v), func(old []byte) []byte {
			return addOID(old, obj.OID)
		})
	}
	return nil
}

// Remove dissociates obj.OID from each of its values; records that empty
// are deleted.
func (ai *AttrIndex) Remove(obj *oodb.Object) error {
	if !ai.Covers(obj.Class) {
		return fmt.Errorf("index: %s index does not cover class %s", ai.attr, obj.Class)
	}
	for _, v := range obj.Values(ai.attr) {
		ai.tree.Update(EncodeValue(v), func(old []byte) []byte {
			return removeOID(old, obj.OID)
		})
	}
	return nil
}

// UpdateObject re-associates an updated object's OID incrementally: it is
// dissociated from the values only the old state held and associated with
// the values only the new state holds. Records whose membership does not
// change are never touched, so an update costs page accesses proportional
// to the number of values that actually moved.
func (ai *AttrIndex) UpdateObject(old, upd *oodb.Object) error {
	if !ai.Covers(old.Class) {
		return fmt.Errorf("index: %s index does not cover class %s", ai.attr, old.Class)
	}
	removed, added := diffKeys(old.Values(ai.attr), upd.Values(ai.attr))
	for _, k := range removed {
		ai.tree.Update(k, func(b []byte) []byte {
			return removeOID(b, old.OID)
		})
	}
	for _, k := range added {
		ai.tree.Update(k, func(b []byte) []byte {
			return addOID(b, old.OID)
		})
	}
	return nil
}

// RemoveKey drops the whole record keyed by an OID value — the boundary
// maintenance of Definition 4.2 (the referenced object was deleted, so the
// key value disappears from the domain).
func (ai *AttrIndex) RemoveKey(oid oodb.OID) {
	ai.tree.Delete(EncodeOID(oid))
}

// Len returns the number of distinct indexed values.
func (ai *AttrIndex) Len() int { return ai.tree.Len() }
