package engine

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/stats"
)

// figure7DB materializes a small Figure 7 database (about 2000 persons).
func figure7DB(t testing.TB) *gen.Generated {
	t.Helper()
	g, err := gen.Generate(model.Figure7Stats(), 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustConfig(asgs ...core.Assignment) core.Configuration {
	return core.Configuration{Assignments: asgs}
}

var (
	cfgSplit = mustConfig(core.Assignment{A: 1, B: 2, Org: cost.NIX}, core.Assignment{A: 3, B: 4, Org: cost.MX})
	cfgWhole = mustConfig(core.Assignment{A: 1, B: 4, Org: cost.NIX})
	cfgTail  = mustConfig(core.Assignment{A: 1, B: 2, Org: cost.NIX}, core.Assignment{A: 3, B: 3, Org: cost.MX}, core.Assignment{A: 4, B: 4, Org: cost.MX})
)

func TestEngineMatchesNaiveEvaluation(t *testing.T) {
	g := figure7DB(t)
	e, err := New(g.Store, g.Path, cfgSplit, 1024, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []struct {
		class string
		hier  bool
	}{{"Person", false}, {"Vehicle", true}, {"Company", false}} {
		for _, v := range g.EndValues[:5] {
			want, err := exec.NaiveQuery(g.Store, g.Path, v, target.class, target.hier)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Query(v, target.class, target.hier)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%v: Query = %v, want %v", target.class, target.hier, got, want)
			}
		}
	}

	// Maintenance through the engine: insert and delete a Division.
	oid, err := e.Insert("Division", map[string][]oodb.Value{"name": {g.EndValues[0]}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Query(g.EndValues[0], "Division", false)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, o := range got {
		if o == oid {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted division %d not found via index", oid)
	}
	if err := e.Delete(oid); err != nil {
		t.Fatal(err)
	}
	got, err = e.Query(g.EndValues[0], "Division", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range got {
		if o == oid {
			t.Fatalf("deleted division %d still indexed", oid)
		}
	}
}

// TestConcurrentQueriesDuringReconfigure is the online-reconfiguration
// acceptance test: queries race an in-flight swap (run under -race) and
// every result must match the store's truth — a half-built configuration
// would return partial OID sets — while the observable configuration is
// always one of the complete ones.
func TestConcurrentQueriesDuringReconfigure(t *testing.T) {
	// A smaller database than figure7DB: the swaps race tight query
	// loops under -race, where bulk loads run an order of magnitude
	// slower.
	g, err := gen.Generate(model.Figure7Stats(), 0.004, 5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g.Store, g.Path, cfgSplit, 1024, Options{})
	if err != nil {
		t.Fatal(err)
	}

	values := g.EndValues
	if len(values) > 8 {
		values = values[:8]
	}
	want := make(map[string][]oodb.OID)
	for _, v := range values {
		w, err := exec.NaiveQuery(g.Store, g.Path, v, "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		want[v.String()] = w
	}
	known := []core.Configuration{cfgSplit, cfgWhole, cfgTail}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := values[(i+w)%len(values)]
				got, err := e.Query(v, "Person", false)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if !reflect.DeepEqual(got, want[v.String()]) {
					t.Errorf("mid-swap query %v = %v, want %v", v, got, want[v.String()])
					return
				}
				cfg := e.Config()
				ok := false
				for _, k := range known {
					if cfg.Equal(k) {
						ok = true
					}
				}
				if !ok {
					t.Errorf("observed configuration %v is not one of the complete ones", cfg)
					return
				}
			}
		}(w)
	}
	for round := 0; round < 6; round++ {
		rep, err := e.ApplyConfiguration(known[(round+1)%len(known)])
		if err != nil {
			t.Errorf("swap %d: %v", round, err)
			break
		}
		if !rep.Changed {
			t.Errorf("swap %d reported no change", round)
		}
	}
	close(stop)
	wg.Wait()
	if got := e.Swaps(); got != 6 {
		t.Errorf("swaps = %d, want 6", got)
	}
}

// TestConcurrentWritesDuringReconfigure exercises the writer path racing
// swaps (for -race): inserts and deletes serialize against the diff-build,
// and the final index contents match a from-scratch rebuild.
func TestConcurrentWritesDuringReconfigure(t *testing.T) {
	g := figure7DB(t)
	e, err := New(g.Store, g.Path, cfgSplit, 1024, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			oid, err := e.Insert("Division", map[string][]oodb.Value{"name": {g.EndValues[i%len(g.EndValues)]}})
			if err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if i%3 == 0 {
				if err := e.Delete(oid); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := e.Query(g.EndValues[i%len(g.EndValues)], "Vehicle", true); err != nil {
				t.Errorf("query: %v", err)
				return
			}
		}
	}()
	for _, cfg := range []core.Configuration{cfgWhole, cfgTail, cfgSplit} {
		if _, err := e.ApplyConfiguration(cfg); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	// The continuously maintained (and partially reused) indexes must
	// answer exactly like a fresh build over the final store state.
	fresh, err := exec.NewIndexSet(g.Store, g.Path, cfgSplit, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range g.EndValues[:5] {
		want, _, err := fresh.QueryHops(nil, []exec.Hop{{Lo: v}}, nil, "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Query(v, "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: engine = %v, fresh rebuild = %v", v, got, want)
		}
	}
}

// TestStructureReuseAcrossSwap is the diff-build acceptance test:
// assignments unchanged between configurations keep their physical
// structures across a swap, asserted by identity.
func TestStructureReuseAcrossSwap(t *testing.T) {
	g := figure7DB(t)
	e, err := New(g.Store, g.Path, cfgSplit, 1024, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Indexes()
	rep, err := e.ApplyConfiguration(cfgTail) // shares (1-2, NIX)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Changed || rep.Reused != 1 || rep.Built != 2 {
		t.Fatalf("report = %+v, want Changed with 1 reused / 2 built", rep)
	}
	after := e.Indexes()
	if after[0] != before[0] {
		t.Error("unchanged (1-2, NIX) assignment was rebuilt, not reused")
	}
	if after[1] == before[1] {
		t.Error("changed tail assignment kept the old structure")
	}

	// The reused structure still participates in maintenance.
	oid, err := e.Insert("Person", map[string][]oodb.Value{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(oid); err != nil {
		t.Fatal(err)
	}

	// Swapping back reuses the shared head again and rebuilds the tail.
	rep, err = e.ApplyConfiguration(cfgSplit)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reused != 1 || rep.Built != 1 {
		t.Fatalf("report = %+v, want 1 reused / 1 built", rep)
	}

	// Re-applying the active configuration is a no-op.
	rep, err = e.ApplyConfiguration(cfgSplit)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed {
		t.Errorf("re-applying the active configuration swapped: %+v", rep)
	}
}

// TestOnlineSelectionBitIdentical is the re-selection acceptance test:
// the engine's online recommendation on recorded statistics equals
// offline core.Select on the same PathStats bit for bit.
func TestOnlineSelectionBitIdentical(t *testing.T) {
	g := figure7DB(t)
	e, err := New(g.Store, g.Path, cfgSplit, 1024, Options{MinOps: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Record a mixed workload: queries on two classes, churn on Division.
	for i := 0; i < 40; i++ {
		if _, err := e.Query(g.EndValues[i%len(g.EndValues)], "Person", false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		oid, err := e.Insert("Division", map[string][]oodb.Value{"name": {g.EndValues[0]}})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Delete(oid); err != nil {
			t.Fatal(err)
		}
	}
	adv, err := e.Advise()
	if err != nil {
		t.Fatal(err)
	}
	offline, _, err := core.Select(adv.Stats, cost.Organizations)
	if err != nil {
		t.Fatal(err)
	}
	if !adv.Config.Equal(offline.Best) {
		t.Fatalf("online %v != offline %v", adv.Config, offline.Best)
	}
	if adv.Config.Cost != offline.Best.Cost {
		t.Fatalf("online cost %v != offline cost %v (not bit-identical)",
			adv.Config.Cost, offline.Best.Cost)
	}
	if adv.Search != offline.Stats {
		t.Errorf("search stats differ: %+v vs %+v", adv.Search, offline.Stats)
	}
}

// TestAutoTuneOnDrift drives a workload that contradicts the assumption
// and checks the engine reconfigures itself in the background.
func TestAutoTuneOnDrift(t *testing.T) {
	g := figure7DB(t)

	// The assumed workload is pure queries against Person; select the
	// initial configuration for it.
	assumed, err := stats.Collect(g.Store, g.Path, model.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := assumed.SetLoad(1, "Person", model.Load{Alpha: 1}); err != nil {
		t.Fatal(err)
	}
	initial, _, err := core.Select(assumed, cost.Organizations)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g.Store, g.Path, initial.Best, 1024, Options{
		Params:     model.PaperParams(),
		Assumed:    assumed,
		MinOps:     32,
		CheckEvery: 16,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Serve the opposite: pure update churn on Division.
	for i := 0; i < 128; i++ {
		oid, err := e.Insert("Division", map[string][]oodb.Value{"name": {g.EndValues[i%len(g.EndValues)]}})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Delete(oid); err != nil {
			t.Fatal(err)
		}
	}
	e.Quiesce()
	if e.Swaps() == 0 {
		t.Fatalf("no automatic reconfiguration despite drifted workload (drift %g)", e.Drift())
	}
	at, ok := e.LastAutoTune()
	if !ok || at.Err != nil || !at.Report.Changed {
		t.Fatalf("auto-tune = %+v, %v", at, ok)
	}
	if at.Report.Drift < driftThreshold {
		t.Errorf("reported drift %g below threshold", at.Report.Drift)
	}

	// After adopting the confirmed statistics the engine is stable: a
	// fresh advice (over the baseline, since the window restarted)
	// recommends the active configuration.
	adv, err := e.Advise()
	if err != nil {
		t.Fatal(err)
	}
	if adv.Changed {
		t.Errorf("engine not stable after auto-tune: %v -> %v", adv.Current, adv.Config)
	}
}

func TestWorkloadSnapshotAndDrift(t *testing.T) {
	g := figure7DB(t)
	e, err := New(g.Store, g.Path, cfgWhole, 1024, Options{MinOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d := e.Drift(); d != 0 {
		t.Errorf("drift before MinOps = %g", d)
	}
	for i := 0; i < 10; i++ {
		if _, err := e.Query(g.EndValues[0], "Person", false); err != nil {
			t.Fatal(err)
		}
	}
	w := e.WorkloadSnapshot()
	if w.Total != 10 {
		t.Fatalf("snapshot total = %d, want 10", w.Total)
	}
	// With no assumption, observed traffic is maximal drift.
	if d := e.Drift(); d != 1 {
		t.Errorf("drift with no baseline = %g, want 1", d)
	}
}

func TestReconfigureRequiresEvidence(t *testing.T) {
	// With neither an assumed baseline nor enough recorded traffic,
	// selection would run on all-zero loads and swap on a tie-break;
	// the engine must refuse instead.
	g, err := gen.Generate(model.Figure7Stats(), 0.004, 5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g.Store, g.Path, cfgSplit, 1024, Options{MinOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Advise(); err == nil {
		t.Error("Advise succeeded with no workload evidence")
	}
	if _, err := e.Reconfigure(); err == nil {
		t.Error("Reconfigure swapped with no workload evidence")
	}
	if !e.Config().Equal(cfgSplit) {
		t.Errorf("configuration changed to %v without evidence", e.Config())
	}
	// Enough traffic turns the same calls into a legitimate re-selection.
	for i := 0; i < 8; i++ {
		if _, err := e.Query(g.EndValues[0], "Person", false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Reconfigure(); err != nil {
		t.Errorf("Reconfigure with recorded traffic: %v", err)
	}
}

// TestExtensionColumnsPriceButDoNotBuild pins how Section 6's extra
// organizations are incorporated: NX and NONE are priced columns of the cost
// matrix, which selection runs over, and nothing more — no working structure
// is built for them.
func TestExtensionColumnsPriceButDoNotBuild(t *testing.T) {
	g := figure7DB(t)
	ps := model.Figure7Stats()
	m, err := core.NewMatrixFromStats(ps, cost.OrganizationsExtended)
	if err != nil {
		t.Fatal(err)
	}
	for _, org := range cost.OrganizationsExtended {
		for _, sub := range m.Rows() {
			if v, ok := m.Cell(sub[0], sub[1], org); !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%v cell [%d,%d] = %v, %v: not priced", org, sub[0], sub[1], v, ok)
			}
		}
	}
	if res := m.DP(); res.Best.Validate(ps.Len()) != nil {
		t.Errorf("selection over the six columns returned %v", res.Best)
	}
	for _, org := range []cost.Organization{cost.NX, cost.NONE} {
		_, err := index.New(g.Store, g.Path, 1, g.Path.Len(), org, 1024)
		if want := fmt.Sprintf("index: organization %v has no working implementation", org); err == nil || err.Error() != want {
			t.Errorf("index.New(%v) error = %v, want %q", org, err, want)
		}
	}
}

func ExampleEngine() {
	g, err := gen.Generate(model.Figure7Stats(), 0.01, 5)
	if err != nil {
		panic(err)
	}
	e, err := New(g.Store, g.Path, cfgSplit, 1024, Options{MinOps: 4})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := e.Query(g.EndValues[0], "Person", false); err != nil {
			panic(err)
		}
	}
	adv, err := e.Advise()
	if err != nil {
		panic(err)
	}
	fmt.Println("recommendation differs:", adv.Changed)
	// Output: recommendation differs: true
}
