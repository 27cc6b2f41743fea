package index

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/btree"
	"repro/internal/oodb"
)

// firstHop is the one thing a point lookup, a range lookup and a key-set
// lookup differ in: how the tree keyed by the subpath's ending attribute is
// read. A point query is the one-key range, answered by a tree get; a range
// [lo, hi) is answered by a scan of the chained leaves (Section 3's
// range-predicate extension; lo and hi share a value kind, so encoded byte
// order is value order); a sorted OID set — what the next subpath of the
// configuration, or the next level of an MX/MIX chain, produced — is
// answered by one sweep of the tree, each node on the keys' paths read once
// (Section 3.1's CRT). Everything after the hop — the backward chain, the
// section read, the suffix projection, the target-class filter — is written
// once per organization, in its lookup kernel. A range only makes sense on
// the subpath holding the path's ending attribute: earlier subpaths are
// keyed by OIDs and the executor chains them with key-set hops.
type firstHop struct {
	lo, hi []byte     // encoded; a point hop is lo alone
	keys   []oodb.OID // a key-set hop (no lo): sorted and duplicate-free
	scan   bool
}

// kernel is an organization's lookup: LookupInto's contract with the first
// hop explicit.
type kernel func(hop firstHop, targetClass string, hierarchy bool, dst []oodb.OID, sc *Scratch) ([]oodb.OID, error)

// pointHop encodes key into sc. The hop aliases sc.key, which a kernel may
// overwrite once its first hop is done.
func pointHop(sc *Scratch, key oodb.Value) firstHop {
	sc.key = AppendValue(sc.key[:0], key)
	return firstHop{lo: sc.key}
}

// records calls fn with a read handle on every record of t the hop
// selects, in key order, stopping at fn's first error: the one place the
// index layer reads a tree for a query. fn pays for the record pages it
// reads through the handle, which is sc's and valid only during the call.
func (h firstHop) records(t *btree.Tree, sc *Scratch, fn func(*btree.Record) error) (err error) {
	rec := &sc.rec
	switch {
	case h.scan:
		t.ScanInto(h.lo, h.hi, rec, func([]byte) bool {
			err = fn(rec)
			return err == nil
		})
	case h.lo != nil:
		if t.Open(h.lo, rec); rec.Exists() {
			err = fn(rec)
		}
	default:
		sw := &sc.sweep
		sw.Reset(t)
		for _, k := range h.keys {
			sc.key = AppendOID(sc.key[:0], k)
			if sw.Seek(sc.key, rec) {
				if err = fn(rec); err != nil {
					break
				}
			}
		}
		sw.Reset(nil)
	}
	*rec = btree.Record{} // nothing of the tree stays behind in a pooled scratch
	return err
}

// rangeScratches serves LookupRange, whose signature carries no scratch.
var rangeScratches = sync.Pool{New: func() any { return NewScratch() }}

// lookupRange is every organization's LookupRange: the kernel entered
// through a scan hop whose bounds are encoded into sc.key (like a point
// hop's key, the kernel may overwrite them once the scan is done), the
// result normalised where it was collected and copied out at its size.
func lookupRange(k kernel, lo, hi oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	if lo.Kind != hi.Kind {
		return nil, fmt.Errorf("index: range bounds of different kinds")
	}
	sc := rangeScratches.Get().(*Scratch)
	defer rangeScratches.Put(sc)
	sc.key = AppendValue(sc.key[:0], lo)
	n := len(sc.key)
	sc.key = AppendValue(sc.key, hi)
	out, err := k(firstHop{lo: sc.key[:n], hi: sc.key[n:], scan: true}, targetClass, hierarchy, sc.out[:0], sc)
	sc.out = out[:0]
	if err != nil {
		return nil, err
	}
	return slices.Clone(oodb.SortUnique(out)), nil
}
