package engine

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/raceflag"
)

// TestQueryBatchDuringReconfigure races runs of point queries against
// configuration swaps (run under -race in CI): every query must answer
// from a coherent snapshot — results always equal the static baseline,
// whichever configuration serves them, because every tested configuration
// indexes the whole path.
func TestQueryBatchDuringReconfigure(t *testing.T) {
	g, err := gen.Generate(model.Figure7Stats(), 0.004, 7)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g.Store, g.Path, cfgSplit, 1024, Options{})
	if err != nil {
		t.Fatal(err)
	}
	values := make([]oodb.Value, 48)
	for i := range values {
		values[i] = g.EndValues[i%len(g.EndValues)]
	}
	want, err := queryEach(e, values)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := g.EndValues[0], g.EndValues[len(g.EndValues)/2]
	if hi.Str < lo.Str {
		lo, hi = hi, lo
	}
	wantRange, err := e.QueryRange(lo, hi, "Person", false)
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			next := cfgWhole
			if i%2 == 1 {
				next = cfgTail
			}
			if _, err := e.ApplyConfiguration(next); err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
		}
	}()
	for round := 0; round < 60; round++ {
		got, err := queryEach(e, values)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d: point results changed under reconfiguration", round)
		}
		gotRange, err := e.QueryRange(lo, hi, "Person", false)
		if err != nil {
			t.Fatalf("round %d: range: %v", round, err)
		}
		if !reflect.DeepEqual(wantRange, gotRange) {
			t.Fatalf("round %d: range result changed under reconfiguration", round)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// queryEach answers A_n = v for "Person" for each of values through
// Query, one by one, stopping at the first error.
func queryEach(e *Engine, values []oodb.Value) ([][]oodb.OID, error) {
	out := make([][]oodb.OID, len(values))
	for i, v := range values {
		var err error
		if out[i], err = e.Query(v, "Person", false); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestEngineRangeQueryAllocBudget pins what a steady-state range query on
// the Figure 7 configuration allocates. Unlike QueryInto it has no caller
// buffer to append to, so it is not free: the index's LookupRange and the
// engine's QueryRange each return a fresh slice, collected in pooled
// scratch and copied out at its size — two allocations. Everything else —
// the encoded bounds, the scan, the chain through the NIX subpath and the
// normalisation between the hops — runs on pooled scratch and allocates
// nothing.
func TestEngineRangeQueryAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector perturbs allocation counts")
	}
	g := figure7DB(t)
	e, err := New(g.Store, g.Path, cfgSplit, 1024, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vals := append([]oodb.Value(nil), g.EndValues...)
	slices.SortFunc(vals, func(a, b oodb.Value) int { return strings.Compare(a.Str, b.Str) })
	lo, hi := vals[len(vals)/4], vals[3*len(vals)/4] // half the ending values
	var got []oodb.OID
	for i := 0; i < 3; i++ { // warm the pooled scratch
		if got, err = e.QueryRange(lo, hi, "Person", false); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) == 0 {
		t.Fatal("range matches nothing; the budget would be vacuous")
	}
	allocs := testing.AllocsPerRun(100, func() {
		got, err = e.QueryRange(lo, hi, "Person", false)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("range query returning %d OIDs: %.1f allocs/op", len(got), allocs)
	const budget = 2
	if allocs > budget {
		t.Fatalf("engine range query allocates %.1f objects/op, budget %d", allocs, budget)
	}
}

// TestEnginePointQueryZeroAllocs asserts the whole engine serving path —
// snapshot, record, index probes, result append — allocates nothing per
// steady-state point query.
func TestEnginePointQueryZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector perturbs allocation counts")
	}
	g := figure7DB(t)
	e, err := New(g.Store, g.Path, cfgSplit, 1024, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf []oodb.OID
	for _, v := range g.EndValues {
		if buf, err = e.QueryInto(buf[:0], v, "Person", false); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		v := g.EndValues[i%len(g.EndValues)]
		i++
		buf, err = e.QueryInto(buf[:0], v, "Person", false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("engine point query allocates %.1f objects/op, want 0", allocs)
	}
}
