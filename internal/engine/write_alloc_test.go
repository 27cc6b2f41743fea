package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/oodb"
	"repro/internal/raceflag"
)

// TestEngineWriteAllocs pins what one Insert, Update and Delete allocate on
// an in-memory engine: the store's copy of the object, the index
// maintenance, and nothing for the batch of one each verb is. The budgets
// are the counts the per-verb write paths measured before the verbs became
// calls of Apply, so a batch entry point that costs a single write an
// allocation fails here.
func TestEngineWriteAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector perturbs allocation counts")
	}
	const runs = 100
	for _, tc := range []struct {
		name                   string
		cfg                    core.Configuration
		insert, update, delete float64
	}{
		{"split", cfgSplit, 5, 5, 0},
		{"whole-NIX", cfgWhole, 5, 5, 0},
		{"whole-PX", mustConfig(core.Assignment{A: 1, B: 4, Org: cost.PX}), 6728, 8509, 6717},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := figure7DB(t)
			e, err := New(g.Store, g.Path, tc.cfg, 1024, Options{})
			if err != nil {
				t.Fatal(err)
			}
			veh := g.ByClass["Vehicle"]
			oids := make([]oodb.OID, 0, runs+1)
			var i int
			insert := testing.AllocsPerRun(runs, func() {
				oid, ierr := e.Insert("Person", map[string][]oodb.Value{"owns": {oodb.RefV(veh[i%len(veh)])}})
				if ierr != nil {
					err = ierr
				}
				oids = append(oids, oid)
				i++
			})
			i = 0
			update := testing.AllocsPerRun(runs, func() {
				if uerr := e.Update(oids[i], map[string][]oodb.Value{"owns": {oodb.RefV(veh[(i+7)%len(veh)])}}); uerr != nil {
					err = uerr
				}
				i++
			})
			i = 0
			del := testing.AllocsPerRun(runs, func() {
				if derr := e.Delete(oids[i]); derr != nil {
					err = derr
				}
				i++
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("allocs/op: insert %.0f, update %.0f, delete %.0f", insert, update, del)
			if insert > tc.insert || update > tc.update || del > tc.delete {
				t.Fatalf("allocs/op insert %.0f, update %.0f, delete %.0f; budget %.0f, %.0f, %.0f",
					insert, update, del, tc.insert, tc.update, tc.delete)
			}
		})
	}
}
