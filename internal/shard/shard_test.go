package shard_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/stats"
)

func wholeNIX(n int) core.Configuration {
	return core.Configuration{Assignments: []core.Assignment{{A: 1, B: n, Org: cost.NIX}}}
}

func newTestDB(t *testing.T, nShards int) *shard.DB {
	t.Helper()
	s := schema.PaperSchema()
	p := schema.PaperPathOwnsManName()
	db, err := shard.New(s, p, wholeNIX(p.Len()), 1024, nShards, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// populate builds one small Company→Vehicle→Person tree on each shard,
// companies named by shard, and returns the company values used.
func populate(t *testing.T, db *shard.DB) []oodb.Value {
	t.Helper()
	values := make([]oodb.Value, db.NumShards())
	for i := 0; i < db.NumShards(); i++ {
		v := oodb.StrV(fmt.Sprintf("maker-%d", i))
		values[i] = v
		co, err := db.InsertAt(i, "Company", map[string][]oodb.Value{"name": {v}})
		if err != nil {
			t.Fatal(err)
		}
		car, err := db.Insert("Vehicle", map[string][]oodb.Value{"man": {oodb.RefV(co)}})
		if err != nil {
			t.Fatal(err)
		}
		if got := db.ShardOf(car); got != i {
			t.Fatalf("vehicle referencing shard %d landed on shard %d", i, got)
		}
		if _, err := db.Insert("Person", map[string][]oodb.Value{"owns": {oodb.RefV(car)}}); err != nil {
			t.Fatal(err)
		}
	}
	return values
}

func TestShardRoutingAndStrides(t *testing.T) {
	db := newTestDB(t, 4)
	// Reference-free inserts round-robin across all shards; every minted
	// OID's residue matches the shard that minted it.
	seen := make(map[int]bool)
	for i := 0; i < 8; i++ {
		oid, err := db.Insert("Company", map[string][]oodb.Value{"name": {oodb.StrV("x")}})
		if err != nil {
			t.Fatal(err)
		}
		sh := db.ShardOf(oid)
		seen[sh] = true
		if _, ok := db.Store(sh).Peek(oid); !ok {
			t.Fatalf("object %d routed to shard %d but not stored there", oid, sh)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("round-robin inserts covered %d of 4 shards", len(seen))
	}
	// Get and Delete route by residue.
	oid, err := db.InsertAt(2, "Company", map[string][]oodb.Value{"name": {oodb.StrV("y")}})
	if err != nil {
		t.Fatal(err)
	}
	if db.ShardOf(oid) != 2 {
		t.Fatalf("InsertAt(2) minted OID %d with residue %d", oid, db.ShardOf(oid))
	}
	if _, err := db.Shard(db.ShardOf(oid)).Store().Get(oid); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(oid); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Shard(db.ShardOf(oid)).Store().Get(oid); !errors.Is(err, oodb.ErrNotFound) {
		t.Fatalf("deleted object still resolves: %v", err)
	}
}

func TestShardCrossShardReferencesRejected(t *testing.T) {
	db := newTestDB(t, 2)
	co0, err := db.InsertAt(0, "Company", map[string][]oodb.Value{"name": {oodb.StrV("a")}})
	if err != nil {
		t.Fatal(err)
	}
	co1, err := db.InsertAt(1, "Company", map[string][]oodb.Value{"name": {oodb.StrV("b")}})
	if err != nil {
		t.Fatal(err)
	}
	v0, err := db.Insert("Vehicle", map[string][]oodb.Value{"man": {oodb.RefV(co0)}})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := db.Insert("Vehicle", map[string][]oodb.Value{"man": {oodb.RefV(co1)}})
	if err != nil {
		t.Fatal(err)
	}
	// A person owning vehicles on both shards cannot be placed.
	if _, err := db.Insert("Person", map[string][]oodb.Value{"owns": {oodb.RefV(v0), oodb.RefV(v1)}}); !errors.Is(err, shard.ErrCrossShard) {
		t.Fatalf("cross-shard insert: got %v, want ErrCrossShard", err)
	}
	// Placement on a shard the references do not live on is rejected.
	if _, err := db.InsertAt(1, "Vehicle", map[string][]oodb.Value{"man": {oodb.RefV(co0)}}); !errors.Is(err, shard.ErrCrossShard) {
		t.Fatalf("misplaced InsertAt: got %v, want ErrCrossShard", err)
	}
	// A re-link may not leave the object's shard.
	if err := db.Update(v0, map[string][]oodb.Value{"man": {oodb.RefV(co1)}}); !errors.Is(err, shard.ErrCrossShard) {
		t.Fatalf("cross-shard re-link: got %v, want ErrCrossShard", err)
	}
	// In-shard re-link works.
	co0b, err := db.InsertAt(0, "Company", map[string][]oodb.Value{"name": {oodb.StrV("c")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update(v0, map[string][]oodb.Value{"man": {oodb.RefV(co0b)}}); err != nil {
		t.Fatal(err)
	}
}

// TestShardUpdateBatchRejectsCrossShardReLink holds UpdateBatch to
// Update's rule: a re-link that leaves its object's shard fails alone
// with ErrCrossShard, and the rest of the batch applies.
func TestShardUpdateBatchRejectsCrossShardReLink(t *testing.T) {
	db := newTestDB(t, 2)
	var cos, vs [2]oodb.OID
	for s := range cos {
		co, err := db.InsertAt(s, "Company", map[string][]oodb.Value{"name": {oodb.StrV(fmt.Sprintf("co-%d", s))}})
		if err != nil {
			t.Fatal(err)
		}
		cos[s] = co
		if vs[s], err = db.Insert("Vehicle", map[string][]oodb.Value{"man": {oodb.RefV(co)}}); err != nil {
			t.Fatal(err)
		}
	}
	errs := db.UpdateBatch([]exec.Update{
		{OID: vs[0], Attrs: map[string][]oodb.Value{"man": {oodb.RefV(cos[1])}}}, // leaves shard 0
		{OID: vs[1], Attrs: map[string][]oodb.Value{"color": {oodb.StrV("red")}}},
	})
	if !errors.Is(errs[0], shard.ErrCrossShard) {
		t.Fatalf("cross-shard re-link in a batch: got %v, want ErrCrossShard", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("in-shard update beside it: %v", errs[1])
	}
	v0, err := db.Shard(db.ShardOf(vs[0])).Store().Get(vs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := v0.Values("man"); len(got) != 1 || got[0].Ref != cos[0] {
		t.Fatalf("rejected re-link changed the object: man = %v", got)
	}
	v1, err := db.Shard(db.ShardOf(vs[1])).Store().Get(vs[1])
	if err != nil {
		t.Fatal(err)
	}
	if got := v1.Values("color"); len(got) != 1 || got[0].Str != "red" {
		t.Fatalf("in-shard update not applied: color = %v", got)
	}
}

func TestShardOpenValidatesStrides(t *testing.T) {
	s := schema.PaperSchema()
	p := schema.PaperPathOwnsManName()
	// Plain stores (stride 1) must be rejected for a 2-shard deployment.
	st0, _ := oodb.NewStore(s, 1024)
	st1, _ := oodb.NewStore(s, 1024)
	if _, err := shard.Open([]*oodb.Store{st0, st1}, p, wholeNIX(p.Len()), 1024, shard.Options{}); err == nil {
		t.Fatal("Open accepted stores with stride 1 for 2 shards")
	}
	// Stores in the wrong slot order must be rejected.
	stores, err := shard.NewStores(s, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Open([]*oodb.Store{stores[1], stores[0]}, p, wholeNIX(p.Len()), 1024, shard.Options{}); err == nil {
		t.Fatal("Open accepted stores in swapped slots")
	}
	if _, err := shard.Open(stores, p, wholeNIX(p.Len()), 1024, shard.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestShardWorkloadRollupAndDrift(t *testing.T) {
	db := newTestDB(t, 2)
	values := populate(t, db)
	// Queries fan out to the shards whose summaries admit the value —
	// each maker value lives on one shard, so querying both touches both
	// shards. Writes route.
	if _, err := db.Query(values[0], "Person", false); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(values[1], "Person", false); err != nil {
		t.Fatal(err)
	}
	snaps := db.WorkloadSnapshots()
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots", len(snaps))
	}
	for i, w := range snaps {
		if w.Total == 0 {
			t.Fatalf("shard %d recorded nothing", i)
		}
	}
	roll := db.WorkloadSnapshot()
	if want := snaps[0].Total + snaps[1].Total; roll.Total != want {
		t.Fatalf("roll-up total %d, want %d", roll.Total, want)
	}
	// The roll-up matches a manual merge cell for cell.
	manual := stats.MergeWorkloads(snaps...)
	if len(manual.Classes) != len(roll.Classes) {
		t.Fatalf("roll-up classes %d, manual %d", len(roll.Classes), len(manual.Classes))
	}
	for i := range manual.Classes {
		if manual.Classes[i] != roll.Classes[i] {
			t.Fatalf("roll-up cell %d: %+v vs %+v", i, roll.Classes[i], manual.Classes[i])
		}
	}
	dv := db.Drift()
	if len(dv.PerShard) != 2 {
		t.Fatalf("drift view has %d shards", len(dv.PerShard))
	}
	if dv.Max < dv.Weighted {
		t.Fatalf("max drift %g below weighted %g", dv.Max, dv.Weighted)
	}
}

// TestShardedQueryBatchDuringReconfigure drives runs of point queries
// against the facade while individual shards swap configurations
// underneath it: results must stay identical throughout, and no query may
// block on a swap. Run under -race this is the facade's concurrency gate.
func TestShardedQueryBatchDuringReconfigure(t *testing.T) {
	db := newTestDB(t, 2)
	values := populate(t, db)
	probes := []probe{
		{values[0], "Person", false},
		{values[1], "Person", false},
		{values[0], "Vehicle", true},
		{values[1], "Company", false},
	}
	want, err := queryEach(db, probes)
	if err != nil {
		t.Fatal(err)
	}
	alt := core.Configuration{Assignments: []core.Assignment{
		{A: 1, B: 1, Org: cost.MX}, {A: 2, B: 3, Org: cost.NIX},
	}}
	const readers = 4
	stop := make(chan struct{})
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := queryEach(db, probes)
				if err != nil {
					errs[r] = err
					return
				}
				for i := range want {
					if len(got[i]) != len(want[i]) {
						errs[r] = fmt.Errorf("probe %d: %d results during swap, want %d", i, len(got[i]), len(want[i]))
						return
					}
					for j := range want[i] {
						if got[i][j] != want[i][j] {
							errs[r] = fmt.Errorf("probe %d result %d: %d, want %d", i, j, got[i][j], want[i][j])
							return
						}
					}
				}
			}
		}(r)
	}
	// Swap one shard at a time, repeatedly, while the batches fly: each
	// shard alternates between the two configurations. The odd round
	// count leaves the shards on different configurations at the end.
	cfgs := []core.Configuration{alt, wholeNIX(3)}
	for round := 0; round < 19; round++ {
		sh := round % db.NumShards()
		rep, err := db.Shard(sh).ApplyConfiguration(cfgs[(round/2)%2])
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Changed {
			t.Fatalf("round %d: swap on shard %d did not change the configuration", round, sh)
		}
	}
	close(stop)
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", r, err)
		}
	}
	if db.Swaps() == 0 {
		t.Fatal("no swaps recorded")
	}
	// Shards genuinely diverged at some point; after the final round the
	// two shards hold different configurations (odd round count).
	cfgs2 := db.Configs()
	if cfgs2[0].Equal(cfgs2[1]) {
		t.Fatalf("expected diverged per-shard configurations, both are %v", cfgs2[0])
	}
}
