package shard_test

import (
	"testing"

	"repro/internal/oodb"
	"repro/internal/storage"
)

// TestTwoShardIsolation pins the audit that N engines compose cleanly in
// one process: the storage pager, the index structures and the workload
// recorder are all per-instance state — there are no process-wide
// counters or shared pools that would bleed one shard's accounting or
// contents into another. Traffic driven entirely at shard 0 (by-OID
// reads, routed writes, and direct shard-0 queries) must leave shard 1's
// page counters, index counters and recorder at exactly zero; the pooled
// query scratches the executors share across engines hold only transient
// buffers, so even heavy traffic on one shard leaks neither counts nor
// results into its neighbor.
func TestTwoShardIsolation(t *testing.T) {
	db := newTestDB(t, 2)

	// Build a tree on shard 0 only, then reset all counters so only the
	// traffic below is measured.
	v := oodb.StrV("iso-maker")
	co, err := db.InsertAt(0, "Company", map[string][]oodb.Value{"name": {v}})
	if err != nil {
		t.Fatal(err)
	}
	car, err := db.Insert("Vehicle", map[string][]oodb.Value{"man": {oodb.RefV(co)}})
	if err != nil {
		t.Fatal(err)
	}
	person, err := db.Insert("Person", map[string][]oodb.Value{"owns": {oodb.RefV(car)}})
	if err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	db.Store(0).Pager().ResetStats()
	db.Store(1).Pager().ResetStats()

	// Drive shard-0-only traffic: reads from the owning shard's store,
	// writes routed through the facade, plus value queries addressed to
	// shard 0's engine directly (a facade value query would fan out by
	// design).
	for i := 0; i < 50; i++ {
		if _, err := db.Shard(db.ShardOf(person)).Store().Get(person); err != nil {
			t.Fatal(err)
		}
		if err := db.Update(co, map[string][]oodb.Value{"name": {v}}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Shard(0).Query(v, "Person", false); err != nil {
			t.Fatal(err)
		}
	}
	tmp, err := db.InsertAt(0, "Company", map[string][]oodb.Value{"name": {oodb.StrV("scrap")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(tmp); err != nil {
		t.Fatal(err)
	}

	// Shard 0 did real work.
	if db.Shard(0).IndexStats().Accesses() == 0 {
		t.Fatal("shard 0 index counters flat after traffic")
	}
	if db.Store(0).Pager().Stats().Accesses() == 0 {
		t.Fatal("shard 0 store counters flat after traffic")
	}
	if db.Shard(0).WorkloadSnapshot().Total == 0 {
		t.Fatal("shard 0 recorded nothing")
	}

	// Shard 1 saw none of it: index structures, store pager and recorder
	// all untouched.
	if ix1 := db.Shard(1).IndexStats(); ix1 != (storage.Stats{}) {
		t.Fatalf("shard 1 index counters moved: %+v", ix1)
	}
	if got := db.Store(1).Pager().Stats(); got != (storage.Stats{}) {
		t.Fatalf("shard 1 store counters moved: %+v", got)
	}
	if w1 := db.Shard(1).WorkloadSnapshot(); w1.Total != 0 {
		t.Fatalf("shard 1 recorded %d operations", w1.Total)
	}
}
