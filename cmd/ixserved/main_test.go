package main

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/netclient"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/wire"
)

// TestExtraPathSeesWrites serves with an extra -paths registration and
// requires a predicate on it to see an object inserted over the wire: the
// extra path must answer from state the write path keeps current.
func TestExtraPathSeesWrites(t *testing.T) {
	for _, mode := range []struct{ name, dir string }{
		{"in-memory", ""},
		{"durable", t.TempDir()},
	} {
		t.Run(mode.name, func(t *testing.T) {
			srv, be, addr, err := serve("127.0.0.1:0", mode.dir, 0, 42, 0.002, 0, 0, "2=Person.age")
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := srv.Shutdown(); err != nil {
					t.Errorf("shutdown: %v", err)
				}
				if err := be.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
			c, err := netclient.Dial(addr.String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			age := oodb.IntV(123456)
			oid, err := c.Insert("Person", map[string][]oodb.Value{"age": {age}})
			if err != nil {
				t.Fatal(err)
			}
			pred := wire.EqPred(2, age)
			got, err := c.Predicate(&pred, "Person", false)
			if err != nil {
				t.Fatal(err)
			}
			if want := []oodb.OID{oid}; !reflect.DeepEqual(got, want) {
				t.Fatalf("Person.age = %v on path 2: got %v, want %v", age, got, want)
			}
		})
	}
}

// TestShardClassOfCountsNoPageRead: the sharded recording hook labels an
// update or delete with its class without touching a store's page
// counters — a read there would be charged to the served workload, and on
// a durable store it could miss, load a page and evict another.
func TestShardClassOfCountsNoPageRead(t *testing.T) {
	s := schema.PaperSchema()
	p := schema.PaperPathOwnsManName()
	db, err := shard.New(s, p, core.Configuration{Assignments: []core.Assignment{{A: 1, B: p.Len(), Org: cost.NIX}}}, 1024, 3, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var oids []oodb.OID
	for i := 0; i < 6; i++ {
		oid, err := db.Insert("Company", map[string][]oodb.Value{"name": {oodb.StrV(fmt.Sprintf("co-%d", i))}})
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	before := make([]storage.Stats, db.NumShards())
	for i := range before {
		before[i] = db.Store(i).Pager().Stats()
	}
	classOf := shardClassOf(db)
	for _, oid := range oids {
		if class, ok := classOf(oid); !ok || class != "Company" {
			t.Fatalf("classOf(%d) = %q, %v", oid, class, ok)
		}
	}
	if _, ok := classOf(oids[len(oids)-1] + 3); ok {
		t.Fatal("classOf resolved an OID nothing holds")
	}
	for i := range before {
		if got := db.Store(i).Pager().Stats(); got != before[i] {
			t.Fatalf("shard %d store pager moved from %+v to %+v", i, before[i], got)
		}
	}
}

// TestShardedInMemoryMatchesNaive serves the in-memory -shards 2 mode —
// one generated cohort per shard store — and requires point queries and a
// predicate tree over the wire to answer exactly what naive navigation over
// the shard stores does.
func TestShardedInMemoryMatchesNaive(t *testing.T) {
	srv, be, addr, err := serve("127.0.0.1:0", "", 2, 42, 0.01, 0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := be.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	db := be.(*shard.DB)
	naive := func(class string, hier bool, values ...oodb.Value) []oodb.OID {
		var out []oodb.OID
		for i := 0; i < db.NumShards(); i++ {
			for _, v := range values {
				got, err := exec.NaiveQuery(db.Store(i), db.Path(), v, class, hier)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, got...)
			}
		}
		return oodb.SortUnique(out)
	}
	c, err := netclient.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var answered int
	for i := 0; i < 10; i += 2 {
		v, w := oodb.StrV(fmt.Sprintf("val-%05d", i)), oodb.StrV(fmt.Sprintf("val-%05d", i+1))
		for _, tc := range []struct {
			class string
			hier  bool
		}{{"Person", false}, {"Vehicle", true}, {"Division", false}} {
			got, err := c.Query(v, tc.class, tc.hier)
			if err != nil {
				t.Fatal(err)
			}
			if want := naive(tc.class, tc.hier, v); !slices.Equal(got, want) {
				t.Fatalf("Query(%v, %s, %v) = %v, want %v", v, tc.class, tc.hier, got, want)
			}
			pred := wire.OrPred(wire.EqPred(1, v), wire.EqPred(1, w))
			got, err = c.Predicate(&pred, tc.class, tc.hier)
			if err != nil {
				t.Fatal(err)
			}
			if want := naive(tc.class, tc.hier, v, w); !slices.Equal(got, want) {
				t.Fatalf("Predicate(%v or %v, %s, %v) = %v, want %v", v, w, tc.class, tc.hier, got, want)
			}
			answered += len(got)
		}
	}
	if answered == 0 {
		t.Fatal("every probe came back empty: the shards were not populated")
	}
}
