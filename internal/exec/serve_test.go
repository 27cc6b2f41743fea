package exec

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/oodb"
	"repro/internal/raceflag"
	"repro/internal/stats"
)

// randomProbes builds a randomized mixed probe workload over the
// generated database's value domain and every target class of the path.
func randomProbes(g *gen.Generated, rng *rand.Rand, n int) []Probe {
	targets := []struct {
		class string
		hier  bool
	}{
		{"Person", false}, {"Person", true},
		{"Vehicle", true}, {"Bus", false}, {"Truck", false},
		{"Company", false}, {"Division", false},
	}
	probes := make([]Probe, n)
	for i := range probes {
		tc := targets[rng.Intn(len(targets))]
		probes[i] = Probe{
			Value:       g.EndValues[rng.Intn(len(g.EndValues))],
			TargetClass: tc.class,
			Hierarchy:   tc.hier,
		}
	}
	return probes
}

// TestQueryBatchMatchesSequential drives randomized workloads through
// every configuration shape and checks that the concurrent batch returns
// exactly the sequential results — and records exactly the sequential
// workload counts.
func TestQueryBatchMatchesSequential(t *testing.T) {
	ps := smallStats(t)
	g, err := gen.Generate(ps, 1, 97)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(98))
	for _, cfg := range configurations(ps.Len()) {
		recSeq := stats.NewRecorder(g.Path)
		recBatch := stats.NewRecorder(g.Path)
		seqSet, err := NewIndexSet(g.Store, g.Path, cfg, 1024, recSeq)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		batchSet, err := NewIndexSet(g.Store, g.Path, cfg, 1024, recBatch)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		probes := randomProbes(g, rng, 200)
		want := make([][]oodb.OID, len(probes))
		seqSet.RLock()
		for i, pb := range probes {
			want[i], err = seqSet.Query(pb.Value, pb.TargetClass, pb.Hierarchy)
			if err != nil {
				t.Fatalf("%v: sequential probe %d: %v", cfg, i, err)
			}
		}
		seqSet.RUnlock()
		batchSet.RLock()
		got, err := batchSet.QueryBatch(probes)
		batchSet.RUnlock()
		if err != nil {
			t.Fatalf("%v: batch: %v", cfg, err)
		}
		for i := range probes {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("%v: probe %d (%v): sequential %v, batch %v",
					cfg, i, probes[i], want[i], got[i])
			}
		}
		// A range query is the same path entered through another first
		// hop: same answer from either set, and one recorded query.
		lo, hi := g.EndValues[0], g.EndValues[len(g.EndValues)/2]
		if hi.Str < lo.Str {
			lo, hi = hi, lo
		}
		seqSet.RLock()
		wantRange, err := seqSet.QueryRange(lo, hi, "Person", false)
		seqSet.RUnlock()
		if err != nil {
			t.Fatalf("%v: sequential range: %v", cfg, err)
		}
		batchSet.RLock()
		gotRange, err := batchSet.QueryRange(lo, hi, "Person", false)
		batchSet.RUnlock()
		if err != nil {
			t.Fatalf("%v: batch-set range: %v", cfg, err)
		}
		if !reflect.DeepEqual(wantRange, gotRange) {
			t.Fatalf("%v: range [%v, %v): %v vs %v", cfg, lo, hi, wantRange, gotRange)
		}
		ws, wb := recSeq.Snapshot(), recBatch.Snapshot()
		if !reflect.DeepEqual(ws, wb) {
			t.Fatalf("%v: workload counts diverge: sequential %+v, batch %+v", cfg, ws, wb)
		}
		if want := uint64(len(probes) + 1); wb.Total != want {
			t.Fatalf("%v: recorded %d operations, want %d (one per probe, one for the range)", cfg, wb.Total, want)
		}
	}
}

// TestQueryIntoAppendsSortedRegion checks the QueryInto contract: the
// prefix of dst is untouched and the appended region is sorted and
// deduplicated — exactly Query's result.
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
		want, err := set.Query(v, "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		dst := append([]oodb.OID(nil), prefix...)
		dst, err = set.QueryInto(dst, v, "Person", false)
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
// query, range-query and batch paths alike.
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
	if _, err := set.Query(g.EndValues[0], "NoSuchClass", false); err == nil {
		t.Fatal("expected error for class outside the path's scope")
	}
	if _, err := set.QueryRange(g.EndValues[0], g.EndValues[1], "NoSuchClass", false); err == nil {
		t.Fatal("expected range error for class outside the path's scope")
	}
	if _, err := set.QueryBatch([]Probe{{Value: g.EndValues[0], TargetClass: "NoSuchClass"}}); err == nil {
		t.Fatal("expected batch error for class outside the path's scope")
	}
	set.RUnlock()
	if got := rec.Total(); got != 0 {
		t.Fatalf("invalid-class probes were recorded: total = %d, want 0", got)
	}
	set.RLock()
	if _, err := set.Query(g.EndValues[0], "Person", false); err != nil {
		t.Fatal(err)
	}
	set.RUnlock()
	if got := rec.Total(); got != 1 {
		t.Fatalf("valid probe not recorded: total = %d, want 1", got)
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
		if buf, err = set.QueryInto(buf[:0], v, "Person", false); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		v := g.EndValues[i%len(g.EndValues)]
		i++
		buf, err = set.QueryInto(buf[:0], v, "Person", false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("steady-state point query allocates %.1f objects/op, want 0", allocs)
	}
}

// TestQueryBatchBoundedAllocs guards the batch path: per probe, a batch
// may allocate only the result slices (plus amortized pool traffic), not
// per-hop temporaries.
func TestQueryBatchBoundedAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector perturbs allocation counts")
	}
	ps := smallStats(t)
	g, err := gen.Generate(ps, 1, 109)
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
	probes := make([]Probe, 64)
	for i := range probes {
		probes[i] = Probe{Value: g.EndValues[i%len(g.EndValues)], TargetClass: "Person"}
	}
	set.RLock()
	defer set.RUnlock()
	if _, err := set.QueryBatch(probes); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := set.QueryBatch(probes); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: the result-holding slices (a few growth steps per non-empty
	// probe), worker bookkeeping, and amortized pool refills. The guard
	// catches per-hop temporaries creeping back in (the seed path spent
	// ~20 allocations per probe on closures, key copies and set rebuilds).
	budget := float64(8*len(probes) + 64)
	if allocs > budget {
		t.Fatalf("batch of %d probes allocates %.0f objects/run, budget %.0f", len(probes), allocs, budget)
	}
}
