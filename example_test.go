package ooindex_test

import (
	"fmt"

	ooindex "repro"
)

// ExampleOpen builds a tiny Figure 1 database, indexes the path
// Person.owns.man.name with a whole-path nested inherited index, and
// answers a nested-predicate query through the lifecycle-managed engine.
func ExampleOpen() {
	s := ooindex.PaperSchema() // persons own vehicles made by companies
	st, err := ooindex.NewStore(s, 4096)
	if err != nil {
		panic(err)
	}
	fiat, _ := st.Insert("Company", map[string][]ooindex.Value{"name": {ooindex.StrV("Fiat")}})
	daf, _ := st.Insert("Company", map[string][]ooindex.Value{"name": {ooindex.StrV("Daf")}})
	car, _ := st.Insert("Vehicle", map[string][]ooindex.Value{"man": {ooindex.RefV(fiat)}})
	bus, _ := st.Insert("Bus", map[string][]ooindex.Value{"man": {ooindex.RefV(daf)}})
	st.Insert("Person", map[string][]ooindex.Value{"owns": {ooindex.RefV(car)}})
	st.Insert("Person", map[string][]ooindex.Value{"owns": {ooindex.RefV(car), ooindex.RefV(bus)}})

	p, err := ooindex.NewPath(s, "Person", "owns", "man", "name")
	if err != nil {
		panic(err)
	}
	cfg := ooindex.Configuration{Assignments: []ooindex.Assignment{
		{A: 1, B: 3, Org: ooindex.NIX},
	}}
	db, err := ooindex.Open(st, p, cfg, 4096)
	if err != nil {
		panic(err)
	}

	owners, err := db.Query(ooindex.StrV("Fiat"), "Person", false)
	if err != nil {
		panic(err)
	}
	fmt.Println("people owning a Fiat-made vehicle:", len(owners))
	// Output:
	// people owning a Fiat-made vehicle: 2
}

// ExampleDatabase_Update re-links a vehicle to another manufacturer in
// place: the single Update both mutates the store and incrementally
// repairs every affected index entry, so the old and new nested values
// answer correctly immediately.
func ExampleDatabase_Update() {
	s := ooindex.PaperSchema()
	st, _ := ooindex.NewStore(s, 4096)
	fiat, _ := st.Insert("Company", map[string][]ooindex.Value{"name": {ooindex.StrV("Fiat")}})
	daf, _ := st.Insert("Company", map[string][]ooindex.Value{"name": {ooindex.StrV("Daf")}})
	car, _ := st.Insert("Vehicle", map[string][]ooindex.Value{"man": {ooindex.RefV(fiat)}})
	st.Insert("Person", map[string][]ooindex.Value{"owns": {ooindex.RefV(car)}})

	p, _ := ooindex.NewPath(s, "Person", "owns", "man", "name")
	cfg := ooindex.Configuration{Assignments: []ooindex.Assignment{
		{A: 1, B: 3, Org: ooindex.NIX},
	}}
	db, err := ooindex.Open(st, p, cfg, 4096)
	if err != nil {
		panic(err)
	}

	// The car switches manufacturer: one in-place reference re-link.
	if err := db.Update(car, map[string][]ooindex.Value{"man": {ooindex.RefV(daf)}}); err != nil {
		panic(err)
	}

	fiatOwners, _ := db.Query(ooindex.StrV("Fiat"), "Person", false)
	dafOwners, _ := db.Query(ooindex.StrV("Daf"), "Person", false)
	fmt.Println("Fiat owners:", len(fiatOwners))
	fmt.Println("Daf owners:", len(dafOwners))
	// Output:
	// Fiat owners: 0
	// Daf owners: 1
}

// ExampleOpenSharded partitions a database across two shards by OID
// hash: each path-instance tree is co-located on one shard (InsertAt
// places its root, references route the rest), OID-keyed operations
// resolve their shard with one modulo, and value queries fan out across
// shards and merge — returning exactly what a single engine holding all
// the objects would.
func ExampleOpenSharded() {
	p := ooindex.PaperPath() // Person.owns.man.name over the Figure 1 schema
	cfg := ooindex.Configuration{Assignments: []ooindex.Assignment{
		{A: 1, B: 3, Org: ooindex.NIX},
	}}
	db, err := ooindex.OpenSharded(p, cfg, 4096, 2, ooindex.EngineOptions{})
	if err != nil {
		panic(err)
	}

	// One company-vehicle-person tree per shard.
	fiat, _ := db.InsertAt(0, "Company", map[string][]ooindex.Value{"name": {ooindex.StrV("Fiat")}})
	daf, _ := db.InsertAt(1, "Company", map[string][]ooindex.Value{"name": {ooindex.StrV("Daf")}})
	car, _ := db.Insert("Vehicle", map[string][]ooindex.Value{"man": {ooindex.RefV(fiat)}}) // follows Fiat to shard 0
	bus, _ := db.Insert("Bus", map[string][]ooindex.Value{"man": {ooindex.RefV(daf)}})      // follows Daf to shard 1
	db.Insert("Person", map[string][]ooindex.Value{"owns": {ooindex.RefV(car)}})
	db.Insert("Person", map[string][]ooindex.Value{"owns": {ooindex.RefV(bus)}})

	fiatOwners, err := db.Query(ooindex.StrV("Fiat"), "Person", false)
	if err != nil {
		panic(err)
	}
	dafOwners, _ := db.Query(ooindex.StrV("Daf"), "Person", false)
	fmt.Println("shards:", db.NumShards())
	fmt.Println("Fiat owners:", len(fiatOwners))
	fmt.Println("Daf owners:", len(dafOwners))
	fmt.Println("Fiat tree on shard", db.ShardOf(car), "- Daf tree on shard", db.ShardOf(bus))
	// Output:
	// shards: 2
	// Fiat owners: 1
	// Daf owners: 1
	// Fiat tree on shard 0 - Daf tree on shard 1
}
