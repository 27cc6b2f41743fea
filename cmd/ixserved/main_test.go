package main

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/netclient"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/shard"
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

// TestParsePathSpecsRejectsRepeatedID: each -paths id names one path. A
// repeated id is refused with an error naming it, instead of the second
// registration silently replacing the first.
func TestParsePathSpecsRejectsRepeatedID(t *testing.T) {
	s := schema.PaperSchema()
	specs, err := parsePathSpecs(s, "2=Person.age,3=Person.owns.color")
	if err != nil || len(specs) != 2 {
		t.Fatalf("distinct ids: %v, %v", specs, err)
	}
	_, err = parsePathSpecs(s, "2=Person.age,2=Person.owns.color")
	if err == nil || !strings.Contains(err.Error(), "id 2 ") {
		t.Fatalf("repeated id 2: got %v, want an error naming id 2", err)
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
