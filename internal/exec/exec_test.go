package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/schema"
)

// smallStats is a shrunken Figure-7 shape suitable for materialization.
func smallStats(t testing.TB) *model.PathStats {
	t.Helper()
	p := schema.PaperPathOwnsManDivsName()
	ps := model.NewPathStats(p, model.PaperParams())
	ps.MustSet(1, model.ClassStats{Class: "Person", N: 400, D: 80, NIN: 1}, model.Load{Alpha: 0.3, Beta: 0.1, Gamma: 0.1})
	ps.MustSet(2, model.ClassStats{Class: "Vehicle", N: 60, D: 30, NIN: 2}, model.Load{Alpha: 0.3, Gamma: 0.05})
	ps.MustSet(2, model.ClassStats{Class: "Bus", N: 30, D: 15, NIN: 2}, model.Load{Alpha: 0.05, Beta: 0.05, Gamma: 0.1})
	ps.MustSet(2, model.ClassStats{Class: "Truck", N: 30, D: 15, NIN: 2}, model.Load{Beta: 0.1})
	ps.MustSet(3, model.ClassStats{Class: "Company", N: 12, D: 12, NIN: 2}, model.Load{Alpha: 0.1, Beta: 0.1, Gamma: 0.1})
	ps.MustSet(4, model.ClassStats{Class: "Division", N: 12, D: 12, NIN: 1}, model.Load{Alpha: 0.2, Beta: 0.2, Gamma: 0.1})
	return ps
}

// pointQuery and rangeQuery answer A_n = v and A_n IN [lo, hi) through
// QueryHops, as one-hop chains. The caller holds RLock.
func pointQuery(s *IndexSet, v oodb.Value, class string, hier bool) ([]oodb.OID, error) {
	out, _, err := s.QueryHops([]Hop{{Lo: v}}, nil, class, hier)
	return out, err
}

func rangeQuery(s *IndexSet, lo, hi oodb.Value, class string, hier bool) ([]oodb.OID, error) {
	out, _, err := s.QueryHops([]Hop{{Lo: lo, Hi: hi, Ranged: true}}, nil, class, hier)
	return out, err
}

func configurations(n int) []core.Configuration {
	return []core.Configuration{
		{Assignments: []core.Assignment{{A: 1, B: n, Org: cost.NIX}}},
		{Assignments: []core.Assignment{{A: 1, B: n, Org: cost.MX}}},
		{Assignments: []core.Assignment{{A: 1, B: n, Org: cost.MIX}}},
		{Assignments: []core.Assignment{{A: 1, B: 2, Org: cost.NIX}, {A: 3, B: n, Org: cost.MX}}},
		{Assignments: []core.Assignment{{A: 1, B: 1, Org: cost.MX}, {A: 2, B: 3, Org: cost.MIX}, {A: 4, B: n, Org: cost.NIX}}},
		{Assignments: []core.Assignment{{A: 1, B: n, Org: cost.PX}}},
		{Assignments: []core.Assignment{{A: 1, B: 2, Org: cost.PX}, {A: 3, B: n, Org: cost.NIX}}},
	}
}

func TestIndexSetQueryMatchesNaive(t *testing.T) {
	ps := smallStats(t)
	g, err := gen.Generate(ps, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	n := ps.Len()
	for _, cfg := range configurations(n) {
		c, err := NewIndexSet(g.Store, g.Path, cfg, 1024, nil)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		for _, v := range g.EndValues[:6] {
			for _, tc := range []struct {
				class string
				hier  bool
			}{{"Person", false}, {"Vehicle", true}, {"Bus", false}, {"Company", false}, {"Division", false}} {
				want, err := NaiveQuery(g.Store, g.Path, v, tc.class, tc.hier)
				if err != nil {
					t.Fatal(err)
				}
				got, err := pointQuery(c, v, tc.class, tc.hier)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v Query(%v,%s,h=%v) = %v, want %v", cfg, v, tc.class, tc.hier, got, want)
				}
			}
		}
	}
}

func TestIndexSetMaintenance(t *testing.T) {
	ps := smallStats(t)
	for _, cfg := range configurations(ps.Len()) {
		g, err := gen.Generate(ps, 1, 13)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewIndexSet(g.Store, g.Path, cfg, 1024, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Delete a company (starts subpath 2 in the split configurations:
		// exercises the Definition 4.2 boundary maintenance).
		victim := g.ByClass["Company"][0]
		if err := c.DeleteFrom(g.Store, victim); err != nil {
			t.Fatalf("%v Delete(company): %v", cfg, err)
		}
		// Delete a person and a vehicle.
		if err := c.DeleteFrom(g.Store, g.ByClass["Person"][0]); err != nil {
			t.Fatalf("%v Delete(person): %v", cfg, err)
		}
		if err := c.DeleteFrom(g.Store, g.ByClass["Vehicle"][0]); err != nil {
			t.Fatalf("%v Delete(vehicle): %v", cfg, err)
		}
		// Insert a fresh chain end-to-end.
		div, err := c.InsertInto(g.Store, "Division", map[string][]oodb.Value{"name": {oodb.StrV("fresh-div")}})
		if err != nil {
			t.Fatal(err)
		}
		comp, err := c.InsertInto(g.Store, "Company", map[string][]oodb.Value{"divs": {oodb.RefV(div)}})
		if err != nil {
			t.Fatal(err)
		}
		bus, err := c.InsertInto(g.Store, "Bus", map[string][]oodb.Value{"man": {oodb.RefV(comp)}})
		if err != nil {
			t.Fatal(err)
		}
		per, err := c.InsertInto(g.Store, "Person", map[string][]oodb.Value{"owns": {oodb.RefV(bus)}})
		if err != nil {
			t.Fatal(err)
		}
		// All queries still agree with naive evaluation.
		for _, v := range append(g.EndValues[:4], oodb.StrV("fresh-div")) {
			for _, cls := range []string{"Person", "Vehicle", "Company"} {
				want, err := NaiveQuery(g.Store, g.Path, v, cls, cls == "Vehicle")
				if err != nil {
					t.Fatal(err)
				}
				got, err := pointQuery(c, v, cls, cls == "Vehicle")
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v after maintenance: Query(%v,%s) = %v, want %v", cfg, v, cls, got, want)
				}
			}
		}
		got, err := pointQuery(c, oodb.StrV("fresh-div"), "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, []oodb.OID{per}) {
			t.Errorf("%v fresh chain query = %v, want [%d]", cfg, got, per)
		}
	}
}

func TestNaiveQueryErrors(t *testing.T) {
	ps := smallStats(t)
	g, err := gen.Generate(ps, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NaiveQuery(g.Store, g.Path, oodb.StrV("x"), "Ghost", false); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestNaiveQuerySkipsDanglingReferences(t *testing.T) {
	// Deleting a referenced object leaves dangling forward references
	// (the paper's model permits them). Naive navigation must skip
	// exactly those — distinguished by oodb.ErrNotFound — rather than
	// swallowing every store error.
	ps := smallStats(t)
	g, err := gen.Generate(ps, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	value := g.EndValues[0]
	before, err := NaiveQuery(g.Store, g.Path, value, "Person", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Skip("generated database has no matches to begin with")
	}
	// Delete every vehicle: all Person.owns references now dangle.
	for _, cls := range []string{"Vehicle", "Bus", "Truck"} {
		for _, oid := range g.ByClass[cls] {
			if err := g.Store.Delete(oid); err != nil {
				t.Fatal(err)
			}
		}
	}
	after, err := NaiveQuery(g.Store, g.Path, value, "Person", false)
	if err != nil {
		t.Fatalf("dangling references not skipped: %v", err)
	}
	if len(after) != 0 {
		t.Errorf("matches through deleted objects: %v", after)
	}
}

func TestIndexSetErrors(t *testing.T) {
	ps := smallStats(t)
	g, err := gen.Generate(ps, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Invalid configuration.
	bad := core.Configuration{Assignments: []core.Assignment{{A: 2, B: 4, Org: cost.MX}}}
	if _, err := NewIndexSet(g.Store, g.Path, bad, 1024, nil); err == nil {
		t.Error("invalid configuration accepted")
	}
	// NONE has no working structure.
	none := core.Configuration{Assignments: []core.Assignment{{A: 1, B: 4, Org: cost.NONE}}}
	if _, err := NewIndexSet(g.Store, g.Path, none, 1024, nil); err == nil {
		t.Error("NONE configuration accepted by the executor")
	}
	cfg := core.Configuration{Assignments: []core.Assignment{{A: 1, B: 4, Org: cost.MX}}}
	c, err := NewIndexSet(g.Store, g.Path, cfg, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pointQuery(c, oodb.StrV("x"), "Ghost", false); err == nil {
		t.Error("unknown class accepted by Query")
	}
	if err := c.DeleteFrom(g.Store, 99999); err == nil {
		t.Error("deleting unknown OID accepted")
	}
	if _, err := c.InsertInto(g.Store, "Ghost", nil); err == nil {
		t.Error("inserting unknown class accepted")
	}
}

func TestIndexStatsAccumulate(t *testing.T) {
	ps := smallStats(t)
	g, err := gen.Generate(ps, 1, 17)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Configuration{Assignments: []core.Assignment{
		{A: 1, B: 2, Org: cost.NIX}, {A: 3, B: 4, Org: cost.MX},
	}}
	c, err := NewIndexSet(g.Store, g.Path, cfg, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.ResetStats()
	if s := c.Stats(); s.Reads != 0 || s.Writes != 0 {
		t.Errorf("stats after reset: %+v", s)
	}
	if _, err := pointQuery(c, g.EndValues[0], "Person", false); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Reads == 0 {
		t.Error("query counted no index reads")
	}
	if s.Writes != 0 {
		t.Errorf("query wrote %d pages", s.Writes)
	}
	if c.Config().Degree() != 2 {
		t.Errorf("Config degree = %d", c.Config().Degree())
	}
}

// TestChainReadsEachRootOnce: on Figure 7's served configuration a
// whole-path query enters every tree of the chain once, however many keys
// a hop carries. Pages are sized so that every tree is its root and every
// record sits in it: the query's reads are then the root visits alone —
// the Division and Company indexes of the MX subpath and the NIX primary.
func TestChainReadsEachRootOnce(t *testing.T) {
	ps := smallStats(t)
	g, err := gen.Generate(ps, 1, 17)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Configuration{Assignments: []core.Assignment{
		{A: 1, B: 2, Org: cost.NIX}, {A: 3, B: 4, Org: cost.MX},
	}}
	c, err := NewIndexSet(g.Store, g.Path, cfg, 1<<15, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range c.Indexes() {
		for _, tr := range treesOf(ix, g.Path) {
			if tr.Height() != 1 {
				t.Fatalf("a tree of height %d; the test wants every tree to be its root", tr.Height())
			}
		}
	}
	fanned := false
	for _, v := range g.EndValues {
		companies, err := NaiveQuery(g.Store, g.Path, v, "Company", false)
		if err != nil {
			t.Fatal(err)
		}
		c.ResetStats()
		got, err := pointQuery(c, v, "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			continue
		}
		fanned = fanned || len(companies) > 1
		if reads := c.Stats().Reads; reads != 3 {
			t.Errorf("Query(%v) through %d companies read %d pages, want one per tree of the chain (3)", v, len(companies), reads)
		}
	}
	if !fanned {
		t.Error("no query carried more than one key into the NIX hop")
	}
}

func TestIndexSetQueryBeatNaiveOnPageAccesses(t *testing.T) {
	// The reason indexes exist: a configured query must touch far fewer
	// pages than naive navigation on a Person query.
	ps := smallStats(t)
	g, err := gen.Generate(ps, 2, 23)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Configuration{Assignments: []core.Assignment{{A: 1, B: 4, Org: cost.NIX}}}
	c, err := NewIndexSet(g.Store, g.Path, cfg, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := g.EndValues[0]
	g.Store.Pager().ResetStats()
	if _, err := NaiveQuery(g.Store, g.Path, v, "Person", false); err != nil {
		t.Fatal(err)
	}
	naive := g.Store.Pager().Stats().Accesses()
	c.ResetStats()
	if _, err := pointQuery(c, v, "Person", false); err != nil {
		t.Fatal(err)
	}
	indexed := c.Stats().Accesses()
	if indexed >= naive {
		t.Errorf("indexed query (%d accesses) not cheaper than naive (%d)", indexed, naive)
	}
}

// TestIndexSetQueryRangeMatchesNaive checks indexed = naive for range
// queries over every class of the path, both hierarchy flags and every
// configuration shape — plus a whole-path NX, which index.New does not
// build (it answers its starting class only) and is therefore swapped
// into a set by hand.
func TestIndexSetQueryRangeMatchesNaive(t *testing.T) {
	ps := smallStats(t)
	g, err := gen.Generate(ps, 1, 29)
	if err != nil {
		t.Fatal(err)
	}
	n := ps.Len()
	ranges := [][2]string{
		{"val-00000", "val-00004"},
		{"val-00002", "val-00009"},
		{"val-00000", "val-99999"},
		{"val-00005", "val-00005"}, // empty
		{"val-00009", "val-00002"}, // inverted: empty
	}
	var classes []string
	for l := 1; l <= n; l++ {
		classes = append(classes, g.Path.HierarchyAt(l)...)
	}
	check := func(label string, c *IndexSet, classes []string) {
		t.Helper()
		for _, r := range ranges {
			lo, hi := oodb.StrV(r[0]), oodb.StrV(r[1])
			for _, cls := range classes {
				for _, hier := range []bool{false, true} {
					want, err := NaiveQueryRange(g.Store, g.Path, lo, hi, cls, hier)
					if err != nil {
						t.Fatal(err)
					}
					got, err := rangeQuery(c, lo, hi, cls, hier)
					if err != nil {
						t.Fatalf("%s QueryRange(%v, %s, h=%v): %v", label, r, cls, hier, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s QueryRange(%v, %s, h=%v) = %v, want %v", label, r, cls, hier, got, want)
					}
				}
			}
		}
		if _, err := rangeQuery(c, oodb.StrV("a"), oodb.IntV(1), "Person", false); err == nil {
			t.Errorf("%s: mixed-kind range accepted", label)
		}
		if _, err := rangeQuery(c, oodb.StrV("a"), oodb.StrV("b"), "Ghost", false); err == nil {
			t.Errorf("%s: unknown class accepted", label)
		}
	}
	for _, cfg := range configurations(n) {
		c, err := NewIndexSet(g.Store, g.Path, cfg, 1024, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(cfg.String(), c, classes)
	}
}

func TestNaiveQueryRangeErrors(t *testing.T) {
	ps := smallStats(t)
	g, err := gen.Generate(ps, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NaiveQueryRange(g.Store, g.Path, oodb.StrV("a"), oodb.IntV(1), "Person", false); err == nil {
		t.Error("mixed-kind range accepted")
	}
	if _, err := NaiveQueryRange(g.Store, g.Path, oodb.StrV("a"), oodb.StrV("b"), "Ghost", false); err == nil {
		t.Error("unknown class accepted")
	}
}

// TestChaosMaintenanceProperty drives every configuration through long
// random operation sequences — inserts of complete chains, deletions of
// arbitrary live objects — cross-checking indexed results against naive
// navigation after every batch. This is the strongest end-to-end invariant
// the working system offers: under any history, a configured database
// answers exactly like an unindexed one.
func TestChaosMaintenanceProperty(t *testing.T) {
	ps := smallStats(t)
	for _, cfg := range configurations(ps.Len()) {
		for _, seed := range []int64{101, 202} {
			g, err := gen.Generate(ps, 0.5, seed)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewIndexSet(g.Store, g.Path, cfg, 1024, nil)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			live := map[string][]oodb.OID{}
			for cls, oids := range g.ByClass {
				live[cls] = append([]oodb.OID(nil), oids...)
			}
			classes := []string{"Division", "Company", "Bus", "Truck", "Vehicle", "Person"}
			for step := 0; step < 60; step++ {
				switch rng.Intn(3) {
				case 0: // insert a full fresh chain
					div, err := c.InsertInto(g.Store, "Division", map[string][]oodb.Value{
						"name": {oodb.StrV(fmt.Sprintf("chaos-%d-%d", seed, step))},
					})
					if err != nil {
						t.Fatal(err)
					}
					comp, err := c.InsertInto(g.Store, "Company", map[string][]oodb.Value{"divs": {oodb.RefV(div)}})
					if err != nil {
						t.Fatal(err)
					}
					veh, err := c.InsertInto(g.Store, "Bus", map[string][]oodb.Value{"man": {oodb.RefV(comp)}})
					if err != nil {
						t.Fatal(err)
					}
					per, err := c.InsertInto(g.Store, "Person", map[string][]oodb.Value{"owns": {oodb.RefV(veh)}})
					if err != nil {
						t.Fatal(err)
					}
					live["Division"] = append(live["Division"], div)
					live["Company"] = append(live["Company"], comp)
					live["Bus"] = append(live["Bus"], veh)
					live["Person"] = append(live["Person"], per)
				case 1, 2: // delete a random live object
					cls := classes[rng.Intn(len(classes))]
					if len(live[cls]) == 0 {
						continue
					}
					i := rng.Intn(len(live[cls]))
					victim := live[cls][i]
					if _, ok := g.Store.Peek(victim); !ok {
						live[cls] = append(live[cls][:i], live[cls][i+1:]...)
						continue
					}
					if err := c.DeleteFrom(g.Store, victim); err != nil {
						t.Fatalf("cfg %v seed %d step %d: Delete(%s %d): %v", cfg, seed, step, cls, victim, err)
					}
					live[cls] = append(live[cls][:i], live[cls][i+1:]...)
				}
				if step%15 != 14 {
					continue
				}
				// Cross-check a sample of values and classes.
				for _, v := range g.EndValues[:3] {
					for _, cls := range []string{"Person", "Vehicle", "Company"} {
						want, err := NaiveQuery(g.Store, g.Path, v, cls, cls == "Vehicle")
						if err != nil {
							t.Fatal(err)
						}
						got, err := pointQuery(c, v, cls, cls == "Vehicle")
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("cfg %v seed %d step %d: Query(%v,%s) = %v, want %v",
								cfg, seed, step, v, cls, got, want)
						}
					}
				}
			}
		}
	}
}

// TestParallelQueries documents and guards the read-path concurrency
// contract: queries through a configured database are safe to run from
// multiple goroutines (page-access counters are mutex-protected; index and
// store structures are not mutated by lookups).
func TestParallelQueries(t *testing.T) {
	ps := smallStats(t)
	g, err := gen.Generate(ps, 1, 41)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Configuration{Assignments: []core.Assignment{
		{A: 1, B: 2, Org: cost.NIX}, {A: 3, B: 4, Org: cost.MX},
	}}
	c, err := NewIndexSet(g.Store, g.Path, cfg, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reference results, computed serially.
	want := make(map[string][]oodb.OID)
	for _, v := range g.EndValues {
		r, err := pointQuery(c, v, "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		want[v.String()] = r
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v := g.EndValues[(worker+i)%len(g.EndValues)]
				got, err := pointQuery(c, v, "Person", false)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[v.String()]) {
					errs <- fmt.Errorf("worker %d: divergent result for %v", worker, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWindowGrowsWithInserts: every index records the OIDs its OnInsert
// saw as the window its lookups' bitmaps cover. Objects inserted after the
// build get OIDs past it, so the window must grow with them; every answer
// — appended to a caller's buffer, returned fresh, or kept within
// candidates — is compared with NaiveQuery after 300 such inserts, on
// every configuration.
func TestWindowGrowsWithInserts(t *testing.T) {
	ps := smallStats(t)
	for _, cfg := range configurations(ps.Len()) {
		g, err := gen.Generate(ps, 1, 17)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewIndexSet(g.Store, g.Path, cfg, 1024, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		pick := func(class string) oodb.Value {
			oids := g.ByClass[class]
			return oodb.RefV(oids[rng.Intn(len(oids))])
		}
		for i := 0; i < 100; i++ {
			comp, err := c.InsertInto(g.Store, "Company", map[string][]oodb.Value{"divs": {pick("Division")}})
			if err != nil {
				t.Fatal(err)
			}
			bus, err := c.InsertInto(g.Store, "Bus", map[string][]oodb.Value{"man": {oodb.RefV(comp)}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.InsertInto(g.Store, "Person", map[string][]oodb.Value{"owns": {oodb.RefV(bus), pick("Vehicle")}}); err != nil {
				t.Fatal(err)
			}
		}
		var within []oodb.OID
		for _, cls := range []string{"Person", "Vehicle", "Bus", "Company"} {
			within = append(within, g.Store.OIDsOfClass(cls)...)
		}
		within = oodb.SortUnique(within)
		within = within[len(within)/3:] // old and new OIDs alike
		for _, v := range g.EndValues {
			for _, tc := range []struct {
				class string
				hier  bool
			}{{"Person", false}, {"Vehicle", true}, {"Bus", false}, {"Company", false}} {
				want, err := NaiveQuery(g.Store, g.Path, v, tc.class, tc.hier)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := pointQuery(c, v, tc.class, tc.hier)
				if err != nil {
					t.Fatal(err)
				}
				into, err := c.QueryInto([]oodb.OID{0}, v, tc.class, tc.hier)
				if err != nil {
					t.Fatal(err)
				}
				kept, _, err := c.QueryHops([]Hop{{Lo: v}}, within, tc.class, tc.hier)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(fresh, want) || !slices.Equal(into[1:], want) || !slices.Equal(kept, IntersectSortedOIDs(nil, want, within)) {
					t.Fatalf("%v %v for %s (h=%v): fresh %v, into %v, within %v; naive %v", cfg, v, tc.class, tc.hier, fresh, into[1:], kept, want)
				}
			}
		}
	}
}
