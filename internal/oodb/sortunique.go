package oodb

import "slices"

// SortUnique sorts oids in place and removes duplicates, returning the
// deduplicated prefix (nil when empty). It is the one OID set
// normalization: the slice path of OIDSet — the union between the hops of
// a Proposition 4.1 chain when a hop is too sparse for its index's window
// to pay for a bitmap — and the naive evaluators' result. Input that
// already ascends is only deduplicated (index records are not kept
// sorted — an attribute index's OID list is re-sorted on every write, but
// a NIX section is in insertion order, and ascends only until a delete or
// an out-of-order insert, so a union of several arrives in runs); any
// other input is sorted by slices.Sort first. A chain's dense hops do not
// reach it: OIDSet sets their bits instead (DESIGN.md §4.2).
func SortUnique(oids []OID) []OID {
	if len(oids) == 0 {
		return nil
	}
	if !slices.IsSorted(oids) {
		slices.Sort(oids)
	}
	return slices.Compact(oids)
}

// SortUniqueWithin is SortUnique keeping only the OIDs of within, a
// sorted, duplicate-free candidate set: it returns SortUnique(oids) ∩
// within as a prefix of oids. It is how a sparse last hop of a chain run
// within a conjunction's candidates (OIDSet.AppendWithin) drops every OID
// outside them, so that no intersection follows: the OIDs are normalized
// and galloped through the candidates, with no scratch at all.
func SortUniqueWithin(oids, within []OID) []OID {
	return keepSorted(SortUnique(oids), within)
}

// keepSorted keeps the OIDs of a that b holds, both sorted and
// duplicate-free, as a prefix of a. The shorter run drives and gallops
// through the longer one; each kept OID consumed a distinct OID of a at or
// after its write position, so writing never overtakes reading.
func keepSorted(a, b []OID) []OID {
	short, long := a, b
	if len(b) < len(a) {
		short, long = b, a
	}
	n, j := 0, 0
	for _, x := range short {
		j += gallop(long[j:], x)
		if j == len(long) {
			break
		}
		if long[j] == x {
			a[n] = x
			n++
			j++
		}
	}
	return a[:n]
}

// gallop returns the index of the first OID of the sorted run b that is at
// least x: exponential probing brackets it, a binary search finds it.
func gallop(b []OID, x OID) int {
	if len(b) == 0 || b[0] >= x {
		return 0
	}
	lo, hi := 0, 1 // b[lo] < x
	for hi < len(b) && b[hi] < x {
		lo, hi = hi, hi<<1
	}
	hi = min(hi, len(b))
	for lo+1 < hi {
		if mid := int(uint(lo+hi) >> 1); b[mid] < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
