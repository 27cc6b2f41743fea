package oodb

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// promoteWordsPerOID is the measured density from which an OIDSet moves
// from its slice into its bitmap: one OID for every promoteWordsPerOID
// 64-bit words of the index's OID window. The bitmap pays one bit set per
// OID and one read-back per word of the window; the slice pays a store
// per OID and then SortUnique's comparison sort over them.
// BenchmarkSortUnique's direct-decode density cells put the break-even
// between 1/16 and 1/8 OID per word; the constant is the first of those
// cells the bitmap wins, so that promotion is never chosen where it loses
// (DESIGN.md §4.2).
const promoteWordsPerOID = 8

// OIDSet collects the OIDs one hop of a Proposition 4.1 chain reads off the
// index records — a NIX section, an attribute index's OID list, a PX
// suffix head — and hands them back once, sorted and duplicate-free: the
// union between the hops, fed straight from the record bytes.
//
// A set starts as a slice. Hint names the window the hop's OIDs are
// expected in, the lowest and highest OID its index has seen; once the
// slice holds one OID for every promoteWordsPerOID words of that window,
// and more than one run of them — a single record's list or section is
// stored ascending unless maintenance moved an entry, and SortUnique's
// ascending check alone normalises it — they move into a bitmap over the
// window, and every OID after them sets its bit as it is decoded. The
// read-back is then a scan of the words, which sorts and deduplicates at
// once; this bitmap is the package's only dense kernel. An OID outside
// the window moves the set back to the slice, so the window is only a
// hint: the answer never depends on it. A slice is sorted by SortUnique,
// a comparison sort, at the read-back.
//
// Every read-back (AppendTo, AppendWithin, Take) and Reset empty the set
// and forget its hint; the bitmap is all zero between uses, and both
// buffers are kept, so a set reused by one goroutine allocates nothing in
// the steady state. The zero value is an empty set without a hint.
type OIDSet struct {
	oids      []OID    // the slice: OIDs as added, duplicates included
	bits      []uint64 // the bitmap over [lo, lo + 64·len(bits)) while dense
	lo        OID
	words     int  // the hinted window's length in words
	promoteAt int  // len(oids) at which the slice moves into the bitmap; 0: never
	dense     bool // the OIDs are in bits, not in oids
	added     int  // OIDs added since the set was last emptied
}

// Hint names the window [lo, hi] the OIDs about to be added are expected
// in. It is ignored once the set holds OIDs: the first hint of an
// accumulation stands. An inverted window is no hint.
func (s *OIDSet) Hint(lo, hi OID) {
	if s.added > 0 {
		return
	}
	s.promoteAt = 0
	if hi < lo {
		return
	}
	// Promotion waits for one OID per promoteWordsPerOID words, so a
	// bitmap is at most promoteWordsPerOID times the slice it replaces; the
	// count is rounded up, so that a window narrower than that still
	// promotes (a count of 0 would mean never). A window of 2^31 words or
	// more is no hint.
	if w := uint64(hi-lo)>>6 + 1; w < math.MaxInt32 {
		s.lo, s.words = lo, int(w)
		s.promoteAt = (int(w) + promoteWordsPerOID - 1) / promoteWordsPerOID
	}
}

// Added returns how many OIDs were added since the set was last emptied,
// duplicates included.
func (s *OIDSet) Added() int { return s.added }

// Add adds one OID.
func (s *OIDSet) Add(o OID) {
	s.added++
	if s.dense {
		if i := uint64(o - s.lo); i>>6 < uint64(len(s.bits)) {
			s.bits[i>>6] |= 1 << (i & 63)
			return
		}
		s.oids = s.readBits(s.oids[:0], s.added) // outside the window: back to the slice
	}
	s.oids = append(s.oids, o)
	if s.promoteAt > 0 && len(s.oids) > 1 && len(s.oids) >= s.promoteAt {
		s.promote()
	}
}

// AddEncoded adds the n big-endian OIDs found every stride bytes of b — a
// NIX section's (OID, numchild) entries, an attribute index's OID list —
// decoding each straight into the bitmap while the set is dense. b must
// hold them: len(b) >= (n-1)*stride + 8.
func (s *OIDSet) AddEncoded(b []byte, n, stride int) {
	if n <= 0 {
		return
	}
	_ = b[(n-1)*stride+7]
	s.added += n
	if s.dense {
		k := s.setEncoded(b, n, stride)
		if k == n {
			return
		}
		s.oids = s.readBits(s.oids[:0], s.added) // outside the window: back to the slice
		b, n = b[k*stride:], n-k
	}
	at := len(s.oids)
	s.oids = slices.Grow(s.oids, n)[:at+n]
	out := s.oids[at:]
	for i := range out {
		out[i] = OID(binary.BigEndian.Uint64(b[i*stride:]))
	}
	if s.promoteAt > 0 && at > 0 && len(s.oids) >= s.promoteAt {
		s.promote()
	}
}

// setEncoded sets the bits of the n OIDs encoded in b, stopping at the
// first outside the window; it returns how many it set.
func (s *OIDSet) setEncoded(b []byte, n, stride int) int {
	b = b[:(n-1)*stride+8] // lets the loop's bound prove every load in range
	bm, lo := s.bits, uint64(s.lo)
	k := 0
	for off := 0; off+8 <= len(b); off += stride {
		i := binary.BigEndian.Uint64(b[off:off+8]) - lo
		if i>>6 >= uint64(len(bm)) {
			return k
		}
		bm[i>>6] |= 1 << (i & 63)
		k++
	}
	return n
}

// promote moves the slice into a bitmap over the hinted window, unless one
// of its OIDs lies outside it. It is tried once per accumulation.
func (s *OIDSet) promote() {
	s.promoteAt = 0
	if cap(s.bits) < s.words {
		s.bits = make([]uint64, s.words)
	}
	bm := s.bits[:s.words]
	for _, o := range s.oids {
		i := uint64(o - s.lo)
		if i>>6 >= uint64(len(bm)) {
			clear(bm)
			return
		}
		bm[i>>6] |= 1 << (i & 63)
	}
	s.bits, s.oids, s.dense = bm, s.oids[:0], true
}

// readBits appends the bitmap's OIDs to dst in ascending order, clearing
// each word as it reads it, and leaves the set a slice again. At most
// limit OIDs are set, duplicates being set once.
func (s *OIDSet) readBits(dst []OID, limit int) []OID {
	s.dense = false
	n := len(dst)
	out := slices.Grow(dst, min(limit, 64*len(s.bits)))
	out = out[:cap(out)]
	lo := s.lo
	for i, w := range s.bits {
		if w == 0 {
			continue
		}
		s.bits[i] = 0
		base := lo + OID(i<<6)
		// The OIDs are written four at a time, so that a sparse word is
		// written without a loop at all and a dense one by a loop that runs
		// once per four set bits: either way its exit mispredicts far less
		// than once per bit. The slots past the word's count are scratch
		// the next word overwrites (bits.TrailingZeros64(0) is 64).
		c := bits.OnesCount64(w)
		if n+c+4 > len(out) {
			for ; w != 0; w &= w - 1 {
				out[n] = base + OID(bits.TrailingZeros64(w))
				n++
			}
			continue
		}
		if c <= 4 {
			put4(out[n:n+4:n+4], base, w)
		} else {
			for k := n; k < n+c; k += 4 {
				w = put4(out[k:k+4:k+4], base, w)
			}
		}
		n += c
	}
	return out[:n]
}

// put4 writes the OIDs of w's four lowest set bits to o, 64 past base for
// a bit w lacks, and returns w without them.
func put4(o []OID, base OID, w uint64) uint64 {
	o[0] = base + OID(bits.TrailingZeros64(w))
	w &= w - 1
	o[1] = base + OID(bits.TrailingZeros64(w))
	w &= w - 1
	o[2] = base + OID(bits.TrailingZeros64(w))
	w &= w - 1
	o[3] = base + OID(bits.TrailingZeros64(w))
	return w & (w - 1)
}

// AppendTo appends the set's OIDs to dst, sorted and duplicate-free, and
// empties the set. dst must not share storage with the set's buffers.
func (s *OIDSet) AppendTo(dst []OID) []OID {
	if s.dense {
		dst = s.readBits(dst, s.added)
	} else {
		dst = append(dst, SortUnique(s.oids)...)
	}
	s.Reset()
	return dst
}

// AppendWithin appends the set's OIDs that within holds — a sorted,
// duplicate-free candidate set — to dst, sorted, and empties the set. A
// dense set is probed once per candidate inside its window, the
// candidates below it skipped by one gallop; a slice is filtered by
// SortUniqueWithin.
func (s *OIDSet) AppendWithin(dst, within []OID) []OID {
	if s.dense {
		lo, bm := s.lo, s.bits
		for _, c := range within[gallop(within, lo):] {
			i := uint64(c - lo)
			if i>>6 >= uint64(len(bm)) {
				break // past the window, as is every later candidate
			}
			if bm[i>>6]&(1<<(i&63)) != 0 {
				dst = append(dst, c)
			}
		}
	} else {
		dst = append(dst, SortUniqueWithin(s.oids, within)...)
	}
	s.Reset()
	return dst
}

// Take returns the set's OIDs as a fresh slice of their exact size, sorted
// and duplicate-free (nil when empty), and empties the set.
func (s *OIDSet) Take() []OID {
	var out []OID
	if s.dense {
		n := 0
		for _, w := range s.bits {
			n += bits.OnesCount64(w)
		}
		out = s.readBits(make([]OID, 0, n), n)
	} else if u := SortUnique(s.oids); len(u) > 0 {
		out = make([]OID, len(u))
		copy(out, u)
	}
	s.Reset()
	return out
}

// Reset empties the set and forgets its hint, keeping its buffers.
func (s *OIDSet) Reset() {
	if s.dense {
		clear(s.bits)
	}
	*s = OIDSet{oids: s.oids[:0], bits: s.bits}
}
