package exec

import "repro/internal/oodb"

// This file holds the sorted-OID-set kernels the planner and the sharded
// fan-out layer compose query answers with. Every run is a sorted,
// duplicate-free []oodb.OID — the normal form SortUnique and an OIDSet's
// read-back already produce — so set intersection and union reduce to
// merge passes that never touch the store.

// IntersectSortedOIDs intersects the sorted, duplicate-free runs a and b,
// appending the result to dst and returning it. The intersection is
// computed by galloping: the shorter run drives, and for each of its
// elements the position in the longer run advances by exponential search
// followed by binary refinement — O(min·log(max/min)) comparisons, which
// degrades gracefully to a linear merge when the runs are comparable and
// beats it by orders of magnitude when one run is tiny (the
// most-selective-conjunct-first case the planner arranges for).
//
// With dst capacity available no allocation is performed (the zero-alloc
// guard enforces this), and dst may alias either input's backing array
// from position 0 (e.g. IntersectSortedOIDs(a[:0], a, b)): the write
// position can never overtake either read position.
func IntersectSortedOIDs(dst, a, b []oodb.OID) []oodb.OID {
	if len(a) > len(b) {
		a, b = b, a
	}
	// Disjoint-range fast path: nothing can intersect.
	if len(a) == 0 || a[len(a)-1] < b[0] || b[len(b)-1] < a[0] {
		return dst
	}
	j := 0
	for i := 0; i < len(a); i++ {
		x := a[i]
		j += gallop(b[j:], x)
		if j >= len(b) {
			break
		}
		if b[j] == x {
			dst = append(dst, x)
			j++
		}
	}
	return dst
}

// gallop returns the index of the first element of b that is >= x:
// exponential probing to bracket the position, then binary search within
// the bracket. b is sorted.
func gallop(b []oodb.OID, x oodb.OID) int {
	if len(b) == 0 || b[0] >= x {
		return 0
	}
	// Invariant: b[lo] < x. Double hi until b[hi] >= x or hi runs off.
	lo, hi := 0, 1
	for hi < len(b) && b[hi] < x {
		lo = hi
		hi <<= 1
	}
	if hi > len(b) {
		hi = len(b)
	}
	// Binary search in (lo, hi]: b[lo] < x <= b[hi] (when hi < len(b)).
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid] < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// MergeKSortedOIDs unions k sorted, duplicate-free runs into one,
// appending to dst and returning it. Runs that happen to be disjoint and
// ordered end to end concatenate in one pass. Per-shard answers are not
// such runs: shard i holds the OIDs congruent to i mod N, so their runs
// interleave OID by OID and take the merge. Otherwise a tournament over a
// binary min-heap of run heads (two runs: a plain two-way merge) emits
// the union in O(total·log k), collapsing equal OIDs so the result stays
// set-like. Compare the pairwise fold it replaces, which re-scans the
// accumulator once per run for O(k·total).
func MergeKSortedOIDs(dst []oodb.OID, runs ...[]oodb.OID) []oodb.OID {
	// Compact away empty runs; remember whether the non-empty ones chain
	// disjointly in order.
	live := 0
	ordered := true
	for _, r := range runs {
		if len(r) == 0 {
			continue
		}
		if live > 0 && runs[live-1][len(runs[live-1])-1] >= r[0] {
			ordered = false
		}
		runs[live] = r
		live++
	}
	runs = runs[:live]
	switch live {
	case 0:
		return dst
	case 1:
		return append(dst, runs[0]...)
	}
	if ordered {
		for _, r := range runs {
			dst = append(dst, r...)
		}
		return dst
	}
	if live == 2 {
		return mergeTwoInto(dst, runs[0], runs[1])
	}
	// Tournament: a min-heap of run indices keyed by each run's head.
	heap := make([]int, live)
	for i := range heap {
		heap[i] = i
	}
	less := func(x, y int) bool { return runs[x][0] < runs[y][0] }
	var siftDown func(i, n int)
	siftDown = func(i, n int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < n && less(heap[l], heap[m]) {
				m = l
			}
			if r < n && less(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	n := live
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i, n)
	}
	base := len(dst)
	for n > 0 {
		top := heap[0]
		head := runs[top][0]
		if len(dst) == base || dst[len(dst)-1] != head {
			dst = append(dst, head)
		}
		runs[top] = runs[top][1:]
		if len(runs[top]) == 0 {
			heap[0] = heap[n-1]
			n--
		}
		siftDown(0, n)
	}
	return dst
}

// mergeTwoInto merges two sorted duplicate-free runs into dst, collapsing
// equal OIDs. It never reuses an input's backing array, so the caller
// controls placement.
func mergeTwoInto(dst, a, b []oodb.OID) []oodb.OID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i, j = i+1, j+1
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
