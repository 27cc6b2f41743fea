package exec

import (
	"errors"
	"testing"

	"repro/internal/oodb"
)

func TestSplitUpdatesAndScatter(t *testing.T) {
	ups := []Update{
		{OID: 1}, {OID: 2}, {OID: 3}, {OID: 4}, {OID: 3}, {OID: 6}, {OID: 1},
	}
	shardOf := func(o oodb.OID) int { return int(o % 3) }
	parts, pos := SplitUpdates(ups, 3, shardOf)
	// Every update lands in its shard, order preserved within a shard.
	total := 0
	for s, part := range parts {
		for k, u := range part {
			if shardOf(u.OID) != s {
				t.Fatalf("shard %d holds OID %d", s, u.OID)
			}
			if ups[pos[s][k]].OID != u.OID {
				t.Fatalf("position map broken at shard %d entry %d", s, k)
			}
			total++
		}
	}
	if total != len(ups) {
		t.Fatalf("split dropped updates: %d of %d", total, len(ups))
	}
	// Same-OID updates keep batch order: OID 3 appears at positions 2, 4.
	if p := pos[0]; len(parts[0]) != 3 || p[0] != 2 || p[1] != 4 || p[2] != 5 {
		t.Fatalf("shard 0 positions %v", p)
	}
	// Scatter puts per-shard errors back at batch positions.
	perShard := make([][]error, 3)
	sentinel := errors.New("boom")
	for s := range parts {
		perShard[s] = make([]error, len(parts[s]))
	}
	perShard[0][1] = sentinel // batch position 4
	dst := make([]error, len(ups))
	ScatterErrors(dst, pos, perShard)
	for i, err := range dst {
		if (i == 4) != (err != nil) {
			t.Fatalf("position %d: err %v", i, err)
		}
	}
}
