package oodb

import (
	"fmt"
	"slices"
)

// Recovery entry points. WAL replay and checkpoint loading rebuild a store
// through these instead of Insert/Update/Delete because recovery has
// different rules than live traffic:
//
//   - No reference-liveness validation. The forward-reference model already
//     permits dangling references at runtime (Delete leaves them behind),
//     so a WAL can legitimately describe an object whose reference target
//     was deleted before the checkpoint — the target's insert record is
//     gone from the log. Replaying with live-object validation would
//     reject correct histories.
//
//   - Idempotence over an "ahead" base. A crash between the checkpoint
//     snapshot's atomic rename and the WAL truncation leaves a snapshot
//     that already contains the logged effects. Restore operations
//     converge when re-applied: RestoreObject overwrites with the full
//     image it carries, RestoreDelete of a missing object is a no-op.
//
// The schema must still know the class — a record for an unknown class is
// corruption, not history.

// Err surfaces the pager's latched storage error: nil until a disk-backed
// write-back, miss re-read or fsync fails, then permanently that first
// error. Callers on the write path should treat a non-nil Err as the store
// being condemned — the in-memory image is still coherent (reads keep
// working) but its disk image can no longer be trusted.
func (st *Store) Err() error { return st.pager.Err() }

// SetOIDSeq fast-forwards the OID sequence to next, used when loading a
// checkpoint snapshot that recorded the sequence position. It never moves
// the sequence backwards.
func (st *Store) SetOIDSeq(next OID) {
	st.mu.Lock()
	if next > st.next {
		st.next = next
	}
	st.mu.Unlock()
}

// RestoreObject installs the full image of an object — class and complete
// attribute map — minted under oid, overwriting any object already live
// under that OID. It takes ownership of attrs (decoded records hand over
// freshly built maps). The OID sequence advances past oid along the
// store's stride, so post-recovery inserts cannot re-mint a recovered OID.
func (st *Store) RestoreObject(oid OID, class string, attrs map[string][]Value) error {
	if oid == 0 {
		return fmt.Errorf("oodb: restore of OID 0")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.schema.Class(class) == nil {
		return fmt.Errorf("oodb: restore of unknown class %q", class)
	}
	if e, ok := st.objects[oid]; ok {
		if err := st.dropFromSlotLocked(e.obj, e.slot); err != nil {
			return fmt.Errorf("oodb: restoring object %d: %w", oid, err)
		}
	}
	if attrs == nil {
		attrs = map[string][]Value{}
	}
	obj := &Object{OID: oid, Class: class, Attrs: attrs}
	slot, err := st.placeObject(obj)
	if err != nil {
		return err
	}
	st.objects[oid] = objEntry{obj: obj, slot: slot}
	if oid >= st.next {
		st.next = oid + st.stride
	}
	return nil
}

// RestoreDelete removes an object if it is live; deleting a missing OID is
// a no-op, which is what makes replaying a delete over an ahead base (the
// checkpoint already dropped it) converge.
func (st *Store) RestoreDelete(oid OID) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.objects[oid]
	if !ok {
		return nil
	}
	delete(st.objects, oid)
	if err := st.dropFromSlotLocked(e.obj, e.slot); err != nil {
		return fmt.Errorf("oodb: restoring delete of %d: %w", oid, err)
	}
	return nil
}

// Objects streams every live object in ascending OID order without page
// accounting — the checkpoint writer's iteration. The order is the
// contract: a store restored from a checkpoint places objects on pages in
// the order it reads them, so a checkpoint written in map order would give
// every recovery a page layout of its own. fn returning an error stops the
// stream. The read lock is held across the stream; writers wait.
func (st *Store) Objects(fn func(*Object) error) error {
	st.mu.RLock()
	defer st.mu.RUnlock()
	oids := make([]OID, 0, len(st.objects))
	for oid := range st.objects {
		oids = append(oids, oid)
	}
	slices.Sort(oids)
	for _, oid := range oids {
		if err := fn(st.objects[oid].obj); err != nil {
			return err
		}
	}
	return nil
}
