package oodb

import (
	"math/bits"
	"slices"
	"sync"
)

// radixMinPerPass is the measured crossover between the two sorts behind
// SortUnique. The counting sort reads its input once to find the bytes to
// sort on and twice per such byte, and every byte costs it a 256-bucket
// prefix sum that a short input cannot repay: it wins from about 24 OIDs
// for each byte plus one, and the constant is rounded up so that it is
// never chosen where it loses (BenchmarkSortUnique, DESIGN.md §4.2).
const radixMinPerPass = 32

// bitmapMinPerWord is the measured crossover between the bitmap and the
// other two sorts. The bitmap pays a bit set per OID and, per 64-bit word of
// the window the OIDs span, a read-back whose branches mispredict on sparse
// words: over a 512-word window it overtakes the counting sort at about 2.5
// OIDs per word, and the constant is rounded up so that the bitmap is never
// chosen where it loses (BenchmarkSortUnique, DESIGN.md §4.2).
const bitmapMinPerWord = 3

// sortBuf is the pooled scratch of the two linear sorts: the counting
// sort's scatter target and the bitmap, which is all zero between uses.
// The pool holds pointers so that a Put does not allocate.
type sortBuf struct {
	oids []OID
	bits []uint64
}

var sortBufs = sync.Pool{New: func() any { return new(sortBuf) }}

// SortUnique sorts oids in place and removes duplicates, returning the
// deduplicated prefix (nil when empty). It is the one OID set
// normalization: the slice path of OIDSet — the union between the hops of
// a Proposition 4.1 chain when a hop is too sparse for its index's window
// — and the naive evaluators' result. It is linear and allocation-free in
// the steady state: input that already ascends is only deduplicated
// (index records are not kept sorted — an attribute index's OID list is
// re-sorted on every write, but a NIX section is in insertion order, and
// ascends only until a delete or an out-of-order insert, so a union of
// several arrives in runs); otherwise one pass finds the bits in which
// the OIDs differ at all. A dense set — at least bitmapMinPerWord OIDs
// for every 64 values of the window those bits span, as a store's
// sequential OIDs gathered by a chain hop are — sets one bit per OID and
// reads the bits back in order, which sorts and deduplicates at once. Any
// other input is sorted by an LSD counting sort over the bytes that hold
// differing bits — two for a store's sequential OIDs, eight at most — or,
// when it is too short for its number of such bytes and the per-pass
// bucket work would dominate, by slices.Sort.
func SortUnique(oids []OID) []OID {
	if len(oids) == 0 {
		return nil
	}
	// Unsorted OIDs differ in one byte at least: an input too short for the
	// counting sort even then is not worth looking at first.
	if len(oids) < 2*radixMinPerPass {
		slices.Sort(oids)
		return slices.Compact(oids)
	}
	return sortLong(oids)
}

// sortLong sorts and deduplicates an input long enough that a linear sort
// may pay. It is a function of its own to keep the short path's frame
// small: inlined into SortUnique it cost an 8-OID set 3 ns in 24.
func sortLong(oids []OID) []OID {
	if slices.IsSorted(oids) {
		return slices.Compact(oids)
	}
	and, diff := spread(oids)
	switch {
	case bitmapFits(diff, len(oids)):
		return bitmapSort(oids, and, diff)
	case len(oids) < radixMinPerPass*(1+liveBytes(diff)):
		slices.Sort(oids)
	default:
		radixSort(oids, diff)
	}
	return slices.Compact(oids)
}

// spread returns the bits every OID of oids has, and the bits in which
// some two of them differ: a bit differs iff some OID has it and some
// lacks it.
func spread(oids []OID) (and, diff OID) {
	or, and := oids[0], oids[0]
	for _, o := range oids[1:] {
		or |= o
		and &= o
	}
	return and, or &^ and
}

// bitmapFits reports whether n OIDs that differ in the bits of diff are
// dense enough for bitmapSort. Every such OID o contains the bits they all
// share, and, with them removed, lies within diff: o − and = o &^ and ≤
// diff. The window [and, and + diff] therefore holds them all, in
// diff/64 + 1 words, a count that cannot overflow whatever bits differ.
func bitmapFits(diff OID, n int) bool {
	return uint64(diff)>>6 < uint64(n/bitmapMinPerWord)
}

// bitmapSort sorts and deduplicates oids, which share the bits of and and
// differ only in the bits of diff, through a pooled bitmap over the window
// [and, and + diff]: one bit set per OID, then the set bits read back
// ascending into oids, each word cleared as it is read so that the pool's
// bitmap stays zero. It returns the deduplicated prefix.
func bitmapSort(oids []OID, and, diff OID) []OID {
	sb := sortBufs.Get().(*sortBuf)
	words := int(diff>>6) + 1
	sb.bits = slices.Grow(sb.bits[:0], words)
	bm := sb.bits[:words]
	for _, o := range oids {
		i := uint64(o - and)
		bm[i>>6] |= 1 << (i & 63)
	}
	n := 0
	for i, w := range bm {
		if w == 0 {
			continue
		}
		bm[i] = 0
		hi := and + OID(i<<6)
		for ; w != 0; w &= w - 1 {
			oids[n] = hi + OID(bits.TrailingZeros64(w))
			n++
		}
	}
	sortBufs.Put(sb)
	return oids[:n]
}

// liveBytes counts the bytes of diff that are not zero.
func liveBytes(diff OID) int {
	d := uint64(diff)
	d |= d >> 4
	d |= d >> 2
	d |= d >> 1
	return bits.OnesCount64(d & 0x0101010101010101)
}

// radixSort sorts oids ascending by an LSD counting sort over the bytes
// set in diff, the bits in which some two OIDs differ: a byte in which none
// do cannot order them and is skipped. Each pass counts a byte's buckets,
// then scatters from one of oids and a pooled buffer into the other.
func radixSort(oids []OID, diff OID) {
	sb := sortBufs.Get().(*sortBuf)
	sb.oids = slices.Grow(sb.oids[:0], len(oids))
	src, dst := oids, sb.oids[:len(oids)]
	for shift := uint(0); shift < 64; shift += 8 {
		if uint8(diff>>shift) == 0 {
			continue
		}
		var next [256]uint32
		for _, o := range src {
			next[uint8(o>>shift)]++
		}
		sum := uint32(0)
		for b, c := range next {
			next[b] = sum
			sum += c
		}
		for _, o := range src {
			b := uint8(o >> shift)
			dst[next[b]] = o
			next[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &oids[0] {
		copy(oids, src)
	}
	sortBufs.Put(sb)
}

// SortUniqueWithin is SortUnique keeping only the OIDs of within, a
// sorted, duplicate-free candidate set: it returns SortUnique(oids) ∩
// within as a prefix of oids. It is how a sparse last hop of a chain run
// within a conjunction's candidates (OIDSet.AppendWithin) drops every OID
// outside them before normalizing, so that no intersection follows. Its
// scratch is bounded by the candidates, whatever the span of oids.
// Candidates dense by
// SortUnique's rule — at least bitmapMinPerWord for each word of their
// own window — and no more numerous than oids mark a pooled bitmap with
// the OIDs inside that window; the candidates whose bit is set are the
// answer, already ascending and duplicate-free. Any other input is
// normalized first and galloped through the candidates.
func SortUniqueWithin(oids, within []OID) []OID {
	if len(oids) == 0 || len(within) == 0 {
		return oids[:0]
	}
	lo, span := within[0], within[len(within)-1]-within[0]
	if len(oids) < len(within) || !bitmapFits(span, len(within)) {
		return keepSorted(SortUnique(oids), within)
	}
	sb := sortBufs.Get().(*sortBuf)
	words := int(span>>6) + 1
	sb.bits = slices.Grow(sb.bits[:0], words)
	bm := sb.bits[:words]
	for _, o := range oids {
		if i := uint64(o - lo); i <= uint64(span) {
			bm[i>>6] |= 1 << (i & 63)
		}
	}
	// Every kept candidate stands for a distinct OID already read, so the
	// write position never overtakes the end of oids.
	n := 0
	for _, c := range within {
		if i := uint64(c - lo); bm[i>>6]&(1<<(i&63)) != 0 {
			oids[n] = c
			n++
		}
	}
	clear(bm)
	sortBufs.Put(sb)
	return oids[:n]
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
