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

// sortBuf is the counting sort's scatter target. The pool holds pointers
// so that a Put does not allocate.
type sortBuf struct{ oids []OID }

var sortBufs = sync.Pool{New: func() any { return new(sortBuf) }}

// SortUnique sorts oids in place and removes duplicates, returning the
// deduplicated prefix (nil when empty). It is the one OID set
// normalization shared by the executor and every index organization, and
// it sits between every two hops of a Proposition 4.1 chain, so it is
// linear and allocation-free in the steady state: input that already
// ascends (index records are stored sorted, so it often does) is only
// deduplicated; otherwise one pass finds the bytes in which the OIDs
// differ at all, and an LSD counting sort runs over those bytes only — two
// for a store's sequential OIDs, eight at most. An input too short for its
// number of differing bytes, where the per-pass bucket work would
// dominate, is left to slices.Sort.
func SortUnique(oids []OID) []OID {
	if len(oids) == 0 {
		return nil
	}
	// Unsorted OIDs differ in one byte at least: an input too short for the
	// counting sort even then is not worth looking at first.
	if len(oids) < 2*radixMinPerPass {
		slices.Sort(oids)
	} else {
		sortLong(oids)
	}
	return slices.Compact(oids)
}

// sortLong sorts an input long enough that the counting sort may pay. It
// is a function of its own to keep the short path's frame small: inlined
// into SortUnique it cost an 8-OID set 3 ns in 24.
func sortLong(oids []OID) {
	if slices.IsSorted(oids) {
		return
	}
	if diff := spread(oids); len(oids) < radixMinPerPass*(1+liveBytes(diff)) {
		slices.Sort(oids)
	} else {
		radixSort(oids, diff)
	}
}

// spread returns the bits in which some two of oids differ: a bit differs
// iff some OID has it and some lacks it.
func spread(oids []OID) OID {
	or, and := oids[0], oids[0]
	for _, o := range oids[1:] {
		or |= o
		and &= o
	}
	return or &^ and
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
