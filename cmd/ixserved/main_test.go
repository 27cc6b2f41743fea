package main

import (
	"reflect"
	"testing"

	"repro/internal/netclient"
	"repro/internal/oodb"
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
