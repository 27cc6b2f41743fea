package exec

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/oodb"
	"repro/internal/raceflag"
	"repro/internal/stats"
)

// TestQueryIntoAppendsSortedRegion checks QueryHops's append contract: the
// prefix of dst is untouched and the appended region is sorted and
// deduplicated — exactly the fresh answer's.
func TestQueryIntoAppendsSortedRegion(t *testing.T) {
	ps := smallStats(t)
	g, err := gen.Generate(ps, 1, 103)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Configuration{Assignments: []core.Assignment{
		{A: 1, B: 2, Org: cost.NIX}, {A: 3, B: 4, Org: cost.MX},
	}}
	set, err := NewIndexSet(g.Store, g.Path, cfg, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	set.RLock()
	defer set.RUnlock()
	prefix := []oodb.OID{9999, 8888}
	for _, v := range g.EndValues[:8] {
		want, err := pointQuery(set, v, "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		dst := append([]oodb.OID(nil), prefix...)
		dst, err = pointInto(set, dst, v, "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dst[:2], prefix) {
			t.Fatalf("prefix clobbered: %v", dst[:2])
		}
		region := dst[2:]
		if len(region) == 0 {
			region = nil
		}
		if !reflect.DeepEqual(region, want) {
			t.Fatalf("value %v: appended region %v, Query %v", v, region, want)
		}
	}
}

// TestRecordOnlyAfterClassResolves is the drift-skew regression: probes
// against classes outside the path's scope must not be recorded, on the
// query and range-query paths alike; a valid probe of either kind is one
// recorded query.
func TestRecordOnlyAfterClassResolves(t *testing.T) {
	ps := smallStats(t)
	g, err := gen.Generate(ps, 1, 105)
	if err != nil {
		t.Fatal(err)
	}
	rec := stats.NewRecorder(g.Path)
	cfg := core.Configuration{Assignments: []core.Assignment{{A: 1, B: 4, Org: cost.NIX}}}
	set, err := NewIndexSet(g.Store, g.Path, cfg, 1024, rec)
	if err != nil {
		t.Fatal(err)
	}
	set.RLock()
	if _, err := pointQuery(set, g.EndValues[0], "NoSuchClass", false); err == nil {
		t.Fatal("expected error for class outside the path's scope")
	}
	if _, err := rangeQuery(set, g.EndValues[0], g.EndValues[1], "NoSuchClass", false); err == nil {
		t.Fatal("expected range error for class outside the path's scope")
	}
	set.RUnlock()
	if got := rec.Total(); got != 0 {
		t.Fatalf("invalid-class probes were recorded: total = %d, want 0", got)
	}
	set.RLock()
	if _, err := pointQuery(set, g.EndValues[0], "Person", false); err != nil {
		t.Fatal(err)
	}
	if _, err := rangeQuery(set, g.EndValues[0], g.EndValues[0], "Person", false); err != nil {
		t.Fatal(err)
	}
	set.RUnlock()
	if got := rec.Total(); got != 2 {
		t.Fatalf("valid point and range probes recorded %d operations, want 2", got)
	}
}

// TestPointQueryZeroAllocs is the -benchmem assertion in test form: after
// warm-up, a steady-state point query through the optimal Example 5.1
// configuration performs zero heap allocations per operation.
func TestPointQueryZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector perturbs allocation counts")
	}
	ps := smallStats(t)
	g, err := gen.Generate(ps, 1, 107)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Configuration{Assignments: []core.Assignment{
		{A: 1, B: 2, Org: cost.NIX}, {A: 3, B: 4, Org: cost.MX},
	}}
	rec := stats.NewRecorder(g.Path)
	set, err := NewIndexSet(g.Store, g.Path, cfg, 1024, rec)
	if err != nil {
		t.Fatal(err)
	}
	set.RLock()
	defer set.RUnlock()
	var buf []oodb.OID
	// Warm-up sizes the pooled scratch and the result buffer.
	for _, v := range g.EndValues {
		if buf, err = pointInto(set, buf[:0], v, "Person", false); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		v := g.EndValues[i%len(g.EndValues)]
		i++
		buf, err = pointInto(set, buf[:0], v, "Person", false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("steady-state point query allocates %.1f objects/op, want 0", allocs)
	}
}
