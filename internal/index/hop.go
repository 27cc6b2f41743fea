package index

import (
	"fmt"
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

// Hop is one way into a subpath index through its ending attribute, the
// first hop of a Proposition 4.1 chain: A_B equals Lo, or — Ranged — falls
// in [Lo, Hi). It is the only thing a point and a range query differ in.
// Every later hop maps a key set to the union of its keys' records, so a
// chain entered through several hops at once answers their disjunction.
type Hop struct {
	Lo, Hi oodb.Value
	Ranged bool
}

// kernel is an organization's lookup: Collect's contract with the first
// hop explicit.
type kernel func(hop firstHop, targetClass string, hierarchy bool, sc *Scratch) error

// collect is every organization's Collect: its kernel entered through h,
// encoded into sc.key (which the kernel may overwrite once its first hop
// is done).
func collect(k kernel, h Hop, targetClass string, hierarchy bool, sc *Scratch) error {
	hop := firstHop{}
	sc.key = AppendValue(sc.key[:0], h.Lo)
	if h.Ranged {
		if h.Lo.Kind != h.Hi.Kind {
			sc.set.Reset()
			return fmt.Errorf("index: range bounds of different kinds")
		}
		n := len(sc.key)
		sc.key = AppendValue(sc.key, h.Hi)
		hop = firstHop{lo: sc.key[:n], hi: sc.key[n:], scan: true}
	} else {
		hop.lo = sc.key
	}
	return run(k, hop, targetClass, hierarchy, sc)
}

// run runs a kernel from its first hop — every organization's CollectKeys
// is a key-set hop run — and empties both of sc's sets on error.
func run(k kernel, hop firstHop, targetClass string, hierarchy bool, sc *Scratch) error {
	err := k(hop, targetClass, hierarchy, sc)
	if err != nil {
		sc.set.Reset()
		sc.chain.Reset()
	}
	return err
}

// reads is every organization's LookupInto and LookupRange: its Collect,
// read back once. ix is the organization itself.
type reads struct{ ix PathIndex }

// LookupInto collects a point hop on key and reads it back into dst.
func (r reads) LookupInto(key oodb.Value, targetClass string, hierarchy bool, dst []oodb.OID, sc *Scratch) ([]oodb.OID, error) {
	if err := r.ix.Collect(Hop{Lo: key}, targetClass, hierarchy, sc); err != nil {
		return dst, err
	}
	return sc.set.AppendTo(dst), nil
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

// LookupRange collects a range hop and reads it back into a fresh slice of
// the answer's size.
func (r reads) LookupRange(lo, hi oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	sc := rangeScratches.Get().(*Scratch)
	defer rangeScratches.Put(sc)
	if err := r.ix.Collect(Hop{Lo: lo, Hi: hi, Ranged: true}, targetClass, hierarchy, sc); err != nil {
		return nil, err
	}
	return sc.set.Take(), nil
}
