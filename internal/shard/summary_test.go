package shard_test

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/oodb"
	"repro/internal/raceflag"
	"repro/internal/shard"
	"repro/internal/stats"
)

// unpruned is the reference fan-out the summaries are checked against:
// every shard's engine answers and the disjoint runs merge, as if no
// summary existed. descents counts the shard probes it executed.
type unpruned struct {
	db       *shard.DB
	descents int
}

func (u *unpruned) fanOut(f func(e *engine.Engine) ([]oodb.OID, error)) ([]oodb.OID, error) {
	runs := make([][]oodb.OID, u.db.NumShards())
	for i := range runs {
		var err error
		if runs[i], err = f(u.db.Shard(i)); err != nil {
			return nil, err
		}
		u.descents++
	}
	return exec.MergeKSortedOIDs(nil, runs...), nil
}

func (u *unpruned) Query(v oodb.Value, class string, hier bool) ([]oodb.OID, error) {
	return u.fanOut(func(e *engine.Engine) ([]oodb.OID, error) { return e.Query(v, class, hier) })
}

func (u *unpruned) QueryRange(lo, hi oodb.Value, class string, hier bool) ([]oodb.OID, error) {
	return u.fanOut(func(e *engine.Engine) ([]oodb.OID, error) { return e.QueryRange(lo, hi, class, hier) })
}

// probe is one point query: A_n = v for class, its subclasses included
// when hier is set.
type probe struct {
	v     oodb.Value
	class string
	hier  bool
}

// queryEach answers probes through q's Query one by one, in order,
// stopping at the first error.
func queryEach(q interface {
	Query(oodb.Value, string, bool) ([]oodb.OID, error)
}, probes []probe) ([][]oodb.OID, error) {
	out := make([][]oodb.OID, len(probes))
	for i, pb := range probes {
		var err error
		if out[i], err = q.Query(pb.v, pb.class, pb.hier); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestPruningEquivalence runs the same query mix through the pruned
// facade and the unpruned reference over the same shards: answers must be
// bit-identical, and the facade must actually skip shard descents.
func TestPruningEquivalence(t *testing.T) {
	pruned := newTestDB(t, 4)
	control := &unpruned{db: pruned}
	values := populate(t, pruned)
	probe := append([]oodb.Value{}, values...)
	probe = append(probe, oodb.StrV("maker-none"), oodb.StrV("a-below"), oodb.StrV("z-above"))
	for _, v := range probe {
		got, err := pruned.Query(v, "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		want, err := control.Query(v, "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Query(%s): pruned %v, control %v", &v, got, want)
		}
	}
	lo, hi := oodb.StrV("maker-1"), oodb.StrV("maker-3")
	got, err := pruned.QueryRange(lo, hi, "Person", false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := control.QueryRange(lo, hi, "Person", false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("QueryRange: pruned %v, control %v", got, want)
	}
	probed, prunedN := pruned.PruneCounters()
	if prunedN == 0 {
		t.Fatalf("no shard descents pruned (probed %d)", probed)
	}
	cProbed := uint64(control.descents)
	if want := uint64((len(probe) + 1) * pruned.NumShards()); cProbed != want {
		t.Fatalf("control probed %d descents, want every shard for every query (%d)", cProbed, want)
	}
	if cProbed <= probed {
		t.Fatalf("control probed %d, pruned deployment %d — pruning saved nothing", cProbed, probed)
	}
}

// TestPruningBatchEquivalence checks a run of point probes under pruning
// against the unpruned control.
func TestPruningBatchEquivalence(t *testing.T) {
	pruned := newTestDB(t, 4)
	control := &unpruned{db: pruned}
	values := populate(t, pruned)
	probes := make([]probe, 0, len(values)+2)
	for _, v := range values {
		probes = append(probes, probe{v, "Person", false})
	}
	probes = append(probes,
		probe{oodb.StrV("maker-none"), "Person", false},
		probe{values[0], "Vehicle", true},
	)
	got, err := queryEach(pruned, probes)
	if err != nil {
		t.Fatal(err)
	}
	want, err := queryEach(control, probes)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("result count %d vs %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) == 0 && len(want[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("probe %d: pruned %v, control %v", i, got[i], want[i])
		}
	}
	if _, prunedN := pruned.PruneCounters(); prunedN == 0 {
		t.Fatal("probe run pruned nothing")
	}
}

// TestPruningSoundAfterWrites checks the over-approximation contract
// under mutation: updates must be visible immediately, deletions must
// never cause a missed match, and Reconfigure re-tightens.
func TestPruningSoundAfterWrites(t *testing.T) {
	db := newTestDB(t, 2)
	populate(t, db)

	// An in-place ending-value update must enter the summary before the
	// next query: a fresh value on shard 0's company must be findable.
	var comp oodb.OID
	db.Store(0).ScanClass("Company", func(o *oodb.Object) bool { comp = o.OID; return false })
	if err := db.Update(comp, map[string][]oodb.Value{"name": {oodb.StrV("maker-updated")}}); err != nil {
		t.Fatal(err)
	}
	oids, err := db.Query(oodb.StrV("maker-updated"), "Person", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(oids) == 0 {
		t.Fatal("updated ending value not found — summary missed an update")
	}
	// Same through the batched update path.
	errs := db.Apply([]exec.Write{{OID: comp, Attrs: map[string][]oodb.Value{"name": {oodb.StrV("maker-batched")}}}})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if oids, err = db.Query(oodb.StrV("maker-batched"), "Person", false); err != nil || len(oids) == 0 {
		t.Fatalf("batched update value not found (err %v)", err)
	}

	// Deleting never shrinks the summary mid-flight: the stale value
	// yields an empty answer, not a missed or phantom match.
	var person oodb.OID
	db.Store(1).ScanClass("Person", func(o *oodb.Object) bool { person = o.OID; return false })
	if err := db.Apply([]exec.Write{{Kind: exec.WriteDelete, OID: person}})[0]; err != nil {
		t.Fatal(err)
	}
	if oids, err = db.Query(oodb.StrV("maker-1"), "Person", false); err != nil {
		t.Fatal(err)
	} else if len(oids) != 0 {
		t.Fatalf("deleted person still matches: %v", oids)
	}

	// Writing around the facade goes stale until RebuildSummaries.
	direct, err := db.Shard(0).Insert("Company", map[string][]oodb.Value{"name": {oodb.StrV("maker-direct")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Shard(0).Insert("Vehicle", map[string][]oodb.Value{"man": {oodb.RefV(direct)}}); err != nil {
		t.Fatal(err)
	}
	db.RebuildSummaries()
	if oids, err = db.Query(oodb.StrV("maker-direct"), "Vehicle", true); err != nil || len(oids) == 0 {
		t.Fatalf("direct-write value not found after RebuildSummaries (err %v)", err)
	}
}

// TestShardPredicateRecording checks the facade-level predicate mix
// (plan.PredicateSink) rides on the fleet-wide workload snapshot: each
// leaf is recorded on every shard, so the roll-up counts it once per
// shard.
func TestShardPredicateRecording(t *testing.T) {
	db := newTestDB(t, 2)
	populate(t, db)
	key := db.Path().String()
	db.RecordPredicate(key, stats.PredEq)
	db.RecordPredicate(key, stats.PredEq)
	db.RecordPredicate(key, stats.PredRange)
	w := db.WorkloadSnapshot()
	if len(w.Predicates) != 1 {
		t.Fatalf("predicates %+v", w.Predicates)
	}
	n := uint64(db.NumShards())
	if p := w.Predicates[0]; p.Path != key || p.Eq != 2*n || p.Range != n {
		t.Fatalf("predicate load %+v", p)
	}
}

// TestPruneCountersSkewed checks the headline claim on a skewed
// workload: with per-shard disjoint value pools, probing one shard's
// pool prunes all other shards' descents.
func TestPruneCountersSkewed(t *testing.T) {
	const n = 4
	db := newTestDB(t, n)
	values := populate(t, db)
	const ops = 50
	for i := 0; i < ops; i++ {
		if _, err := db.Query(values[0], "Person", false); err != nil {
			t.Fatal(err)
		}
	}
	probed, pruned := db.PruneCounters()
	rate := float64(pruned) / float64(ops*(n-1))
	if rate < 0.9 {
		t.Fatalf("prune rate %.2f below 0.9 (probed %d, pruned %d)", rate, probed, pruned)
	}
	// And those prunes cost no correctness: shard 0's answer is intact.
	oids, err := db.Query(values[0], "Person", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(oids) != 1 {
		t.Fatalf("expected a single match, got %v", oids)
	}
}

// TestPartlyPrunedGroupAllocs pins the filter a part runs over a probe
// group its summary admits only in part: every shard drops the other
// shard's value and descends with the rest, and the kept hops cost no
// allocation.
func TestPartlyPrunedGroupAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector perturbs allocation counts")
	}
	db := newTestDB(t, 2)
	values := populate(t, db)
	hops := []exec.Hop{{Lo: values[0]}, {Lo: values[1]}, {Lo: values[0]}}
	var buf []oodb.OID
	var err error
	for i := 0; i < 3; i++ { // warm the pooled scratch
		if buf, _, err = db.QueryHops(buf[:0], hops, nil, "Person", false); err != nil {
			t.Fatal(err)
		}
	}
	if len(buf) != 2 {
		t.Fatalf("group answered %v, want one person per shard", buf)
	}
	probed0, pruned0 := db.PruneCounters()
	allocs := testing.AllocsPerRun(100, func() {
		buf, _, err = db.QueryHops(buf[:0], hops, nil, "Person", false)
	})
	if err != nil {
		t.Fatal(err)
	}
	probed, pruned := db.PruneCounters()
	if probed == probed0 || pruned == pruned0 {
		t.Fatalf("the group was not pruned in part: probed +%d, pruned +%d", probed-probed0, pruned-pruned0)
	}
	if allocs != 0 {
		t.Fatalf("partly pruned group allocates %.1f objects/op, want 0", allocs)
	}
}
