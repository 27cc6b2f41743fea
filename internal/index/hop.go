package index

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/btree"
	"repro/internal/oodb"
)

// firstHop is the one thing a point lookup and a range lookup differ in:
// how the tree keyed by the subpath's ending attribute is read. A point
// query is the one-key range, answered by a tree get; a range [lo, hi) is
// answered by a scan of the chained leaves (Section 3's range-predicate
// extension; lo and hi share a value kind, so encoded byte order is value
// order). Everything after the hop — the backward chain, the section read,
// the suffix projection, the target-class filter — is written once per
// organization, in its lookup kernel. A range only makes sense on the
// subpath holding the path's ending attribute: earlier subpaths are keyed
// by OIDs and the executor chains them with point hops.
type firstHop struct {
	lo, hi []byte // encoded; a point hop is lo alone
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

// records calls fn with the value of every record of t the hop selects, in
// key order, stopping at fn's first error. val aliases sc or the tree and
// is valid only during the call.
func (h firstHop) records(t *btree.Tree, sc *Scratch, fn func(val []byte) error) error {
	if !h.scan {
		val, ok := t.GetInto(h.lo, sc.val[:0])
		sc.val = val
		if !ok {
			return nil
		}
		return fn(val)
	}
	var err error
	t.ScanInto(h.lo, h.hi, func(_, val []byte) bool {
		err = fn(val)
		return err == nil
	})
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
