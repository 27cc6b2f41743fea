package exec

import "repro/internal/oodb"

// This file is the exec-level plumbing a sharded deployment composes the
// write-batch machinery with: splitting an OID-keyed write batch across
// partitions and putting the per-partition results back in batch order.
// The shape mirrors UpdateBatch — []error per update, original order
// preserved — so a router can fan a batch across several IndexSet owners
// and present the caller the exact contract a single owner gives.

// SplitUpdates partitions a batch of updates by shard, preserving batch
// order within each partition (so same-OID updates keep their relative
// order, the invariant UpdateBatch itself maintains). shardOf maps an
// OID to its partition in [0, nShards). It returns the per-shard
// sub-batches plus, for each, the original batch positions of its
// entries — the index ScatterErrors uses to reassemble per-update
// results.
func SplitUpdates(ups []Update, nShards int, shardOf func(oodb.OID) int) (parts [][]Update, pos [][]int) {
	parts = make([][]Update, nShards)
	pos = make([][]int, nShards)
	for i, u := range ups {
		s := shardOf(u.OID)
		parts[s] = append(parts[s], u)
		pos[s] = append(pos[s], i)
	}
	return parts, pos
}

// ScatterErrors writes per-shard UpdateBatch results back into original
// batch order: errs[s][k] lands at dst[pos[s][k]]. dst must have the
// original batch's length.
func ScatterErrors(dst []error, pos [][]int, errs [][]error) {
	for s, idx := range pos {
		for k, i := range idx {
			dst[i] = errs[s][k]
		}
	}
}
