package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/oodb"
)

// opMixer generates the random interleaved insert/update/delete history
// the differential test drives: every level of the Example 5.1 path sees
// value changes, reference re-links, whole-chain insertions and deletions.
type opMixer struct {
	rng  *rand.Rand
	g    *gen.Generated
	live map[string][]oodb.OID
	step int
}

func newOpMixer(g *gen.Generated, seed int64) *opMixer {
	m := &opMixer{rng: rand.New(rand.NewSource(seed)), g: g, live: map[string][]oodb.OID{}}
	for cls, oids := range g.ByClass {
		m.live[cls] = append([]oodb.OID(nil), oids...)
	}
	return m
}

func (m *opMixer) pick(classes ...string) (string, oodb.OID, bool) {
	for tries := 0; tries < 8; tries++ {
		cls := classes[m.rng.Intn(len(classes))]
		pool := m.live[cls]
		if len(pool) == 0 {
			continue
		}
		oid := pool[m.rng.Intn(len(pool))]
		if _, ok := m.g.Store.Peek(oid); ok {
			return cls, oid, true
		}
	}
	return "", 0, false
}

func (m *opMixer) refs(class string, n int) []oodb.Value {
	var out []oodb.Value
	seen := map[oodb.OID]bool{}
	for tries := 0; len(out) < n && tries < 16; tries++ {
		_, oid, ok := m.pick(class)
		if !ok {
			break
		}
		if !seen[oid] {
			seen[oid] = true
			out = append(out, oodb.RefV(oid))
		}
	}
	return out
}

// apply runs one random operation through the store-facing api (insert,
// update or delete on cfg's executor), returning a description for
// failure messages.
func (m *opMixer) apply(t *testing.T, c *IndexSet) string {
	t.Helper()
	m.step++
	switch m.rng.Intn(10) {
	case 0, 1: // insert a full fresh chain
		div, err := c.InsertInto(m.g.Store, "Division", map[string][]oodb.Value{
			"name": {oodb.StrV(fmt.Sprintf("diff-%d", m.step))},
		})
		if err != nil {
			t.Fatal(err)
		}
		comp, err := c.InsertInto(m.g.Store, "Company", map[string][]oodb.Value{"divs": {oodb.RefV(div)}})
		if err != nil {
			t.Fatal(err)
		}
		vcls := []string{"Vehicle", "Bus", "Truck"}[m.rng.Intn(3)]
		veh, err := c.InsertInto(m.g.Store, vcls, map[string][]oodb.Value{"man": {oodb.RefV(comp)}})
		if err != nil {
			t.Fatal(err)
		}
		per, err := c.InsertInto(m.g.Store, "Person", map[string][]oodb.Value{"owns": {oodb.RefV(veh)}})
		if err != nil {
			t.Fatal(err)
		}
		m.live["Division"] = append(m.live["Division"], div)
		m.live["Company"] = append(m.live["Company"], comp)
		m.live[vcls] = append(m.live[vcls], veh)
		m.live["Person"] = append(m.live["Person"], per)
		return "insert chain"
	case 2, 3: // delete a random live object
		cls, victim, ok := m.pick("Division", "Company", "Vehicle", "Bus", "Truck", "Person")
		if !ok {
			return "delete skipped"
		}
		if err := c.DeleteFrom(m.g.Store, victim); err != nil {
			t.Fatalf("step %d: Delete(%s %d): %v", m.step, cls, victim, err)
		}
		return "delete"
	default: // in-place update
		switch m.rng.Intn(5) {
		case 0: // ending-value change
			_, div, ok := m.pick("Division")
			if !ok {
				return "update skipped"
			}
			v := m.g.EndValues[m.rng.Intn(len(m.g.EndValues))]
			if m.rng.Intn(4) == 0 {
				v = oodb.StrV(fmt.Sprintf("diff-val-%d", m.step))
			}
			if err := c.UpdateIn(m.g.Store, div, map[string][]oodb.Value{"name": {v}}); err != nil {
				t.Fatalf("step %d: Update(Division %d): %v", m.step, div, err)
			}
			return "update Division.name"
		case 1: // re-link divisions
			_, comp, ok := m.pick("Company")
			if !ok {
				return "update skipped"
			}
			refs := m.refs("Division", 1+m.rng.Intn(3))
			if len(refs) == 0 {
				return "update skipped"
			}
			if err := c.UpdateIn(m.g.Store, comp, map[string][]oodb.Value{"divs": refs}); err != nil {
				t.Fatalf("step %d: Update(Company %d): %v", m.step, comp, err)
			}
			return "update Company.divs"
		case 2: // re-link manufacturer
			cls, veh, ok := m.pick("Vehicle", "Bus", "Truck")
			if !ok {
				return "update skipped"
			}
			refs := m.refs("Company", 1)
			if len(refs) == 0 {
				return "update skipped"
			}
			if err := c.UpdateIn(m.g.Store, veh, map[string][]oodb.Value{"man": refs}); err != nil {
				t.Fatalf("step %d: Update(%s %d): %v", m.step, cls, veh, err)
			}
			return "update man"
		case 3: // re-link ownership
			_, per, ok := m.pick("Person")
			if !ok {
				return "update skipped"
			}
			vrefs := m.refs("Vehicle", 1)
			vrefs = append(vrefs, m.refs([]string{"Bus", "Truck"}[m.rng.Intn(2)], 1)...)
			if len(vrefs) == 0 {
				return "update skipped"
			}
			if err := c.UpdateIn(m.g.Store, per, map[string][]oodb.Value{"owns": vrefs}); err != nil {
				t.Fatalf("step %d: Update(Person %d): %v", m.step, per, err)
			}
			return "update owns"
		default: // non-path attribute: must be free for every index
			_, per, ok := m.pick("Person")
			if !ok {
				return "update skipped"
			}
			if err := c.UpdateIn(m.g.Store, per, map[string][]oodb.Value{
				"residence": {oodb.StrV(fmt.Sprintf("city-%d", m.step))},
			}); err != nil {
				t.Fatalf("step %d: Update(Person.residence %d): %v", m.step, per, err)
			}
			return "update residence"
		}
	}
}

// diffCheck compares, structure by structure, the maintained set against
// a freshly built set over the same (final) store state: every index must
// answer bit-identically for every reachable key and every target class
// in its scope — and the whole chained query must match naive navigation.
func diffCheck(t *testing.T, label string, c *IndexSet, g *gen.Generated, pageSize int) {
	t.Helper()
	fresh, err := NewIndexSet(g.Store, g.Path, c.Config(), pageSize, nil)
	if err != nil {
		t.Fatalf("%s: fresh rebuild: %v", label, err)
	}
	sc := index.NewScratch()
	lookup := func(ix index.PathIndex, k oodb.Value, class string, hier bool) ([]oodb.OID, error) {
		out, err := ix.LookupInto(k, class, hier, nil, sc)
		return oodb.SortUnique(out), err
	}
	// Per-structure comparison over each subpath's own key domain.
	for ai, asg := range c.Config().Assignments {
		maintained := c.Indexes()[ai]
		rebuilt := fresh.Indexes()[ai]
		var keys []oodb.Value
		if asg.B == g.Path.Len() {
			keys = g.EndValues
			for s := 1; s <= 4; s++ {
				keys = append(keys, oodb.StrV(fmt.Sprintf("diff-val-%d", s)))
			}
		} else {
			for _, cn := range g.Path.HierarchyAt(asg.B + 1) {
				for _, oid := range g.Store.OIDsOfClass(cn) {
					keys = append(keys, oodb.RefV(oid))
				}
			}
		}
		for l := asg.A; l <= asg.B; l++ {
			for _, cn := range g.Path.HierarchyAt(l) {
				for _, hier := range []bool{false, true} {
					for _, k := range keys {
						want, err := lookup(rebuilt, k, cn, hier)
						if err != nil {
							t.Fatalf("%s: rebuilt %v [%d,%d] Lookup(%v,%s,%v): %v", label, asg.Org, asg.A, asg.B, k, cn, hier, err)
						}
						got, err := lookup(maintained, k, cn, hier)
						if err != nil {
							t.Fatalf("%s: maintained %v [%d,%d] Lookup(%v,%s,%v): %v", label, asg.Org, asg.A, asg.B, k, cn, hier, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: %v [%d,%d] Lookup(%v, %s, hier=%v) diverged:\n  maintained: %v\n  rebuilt:    %v",
								label, asg.Org, asg.A, asg.B, k, cn, hier, got, want)
						}
					}
				}
			}
		}
	}
	// Whole-query comparison against ground-truth navigation.
	for _, v := range g.EndValues {
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
				t.Fatalf("%s: Query(%v, %s, %v) = %v, want naive %v", label, v, tc.class, tc.hier, got, want)
			}
		}
	}
}

// TestDifferentialMaintenance is the acceptance gate for the write path:
// thousands of random interleaved insert/update/delete operations are
// driven through every configuration (including split ones and PX), after
// which every index structure must answer bit-identically to a freshly
// built index over the final store state — and the chained query must
// still match naive navigation. It runs under -race as well (the ops here
// are sequential; concurrency is covered by the batch tests), and a second
// time on 256-byte index pages, where every NIX primary record is a chain
// of overflow pages and every patch, shift and chain extension of the
// record handle is exercised by real maintenance.
func TestDifferentialMaintenance(t *testing.T) {
	for _, pageSize := range []int{1024, 256} {
		differentialMaintenance(t, pageSize)
	}
}

func differentialMaintenance(t *testing.T, pageSize int) {
	const opsPerConfig = 800 // 7 configurations ≈ 5,600 interleaved ops
	ps := smallStats(t)
	n := ps.Len()
	for ci, cfg := range configurations(n) {
		seed := int64(1000 + ci)
		g, err := gen.Generate(ps, 0.4, seed)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewIndexSet(g.Store, g.Path, cfg, pageSize, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := newOpMixer(g, seed)
		label := fmt.Sprintf("cfg %v, %d-byte pages", cfg, pageSize)
		for i := 0; i < opsPerConfig; i++ {
			m.apply(t, c)
		}
		diffCheck(t, label, c, g, pageSize)
	}
}

// TestUpdateBatchMatchesSequential pins UpdateBatch's contract: the final
// index state after a batch is identical to applying the same updates one
// by one in input order, including updates that collide on the same object
// (those keep their relative order). The batch re-links objects at every
// level — persons to vehicles of all three classes, the first level a NIX
// maintains as one operation — and a few hot objects many times over; the
// batch side must also answer as a fresh rebuild does.
func TestUpdateBatchMatchesSequential(t *testing.T) {
	ps := smallStats(t)
	for _, cfg := range configurations(ps.Len()) {
		gBatch, err := gen.Generate(ps, 0.4, 99)
		if err != nil {
			t.Fatal(err)
		}
		gSeq, err := gen.Generate(ps, 0.4, 99)
		if err != nil {
			t.Fatal(err)
		}
		cBatch, err := NewIndexSet(gBatch.Store, gBatch.Path, cfg, 1024, nil)
		if err != nil {
			t.Fatal(err)
		}
		cSeq, err := NewIndexSet(gSeq.Store, gSeq.Path, cfg, 1024, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Same generator seeds produce identical OID layouts, so one
		// update list is valid for both stores.
		rng := rand.New(rand.NewSource(321))
		var ups []Update
		vehicles := append(append(append([]oodb.OID(nil), gBatch.ByClass["Vehicle"]...),
			gBatch.ByClass["Bus"]...), gBatch.ByClass["Truck"]...)
		companies := gBatch.ByClass["Company"]
		divisions := gBatch.ByClass["Division"]
		persons := gBatch.ByClass["Person"]
		hot := []oodb.OID{persons[0], persons[1], vehicles[0], companies[0]}
		owns := func() []oodb.Value {
			subclass := gBatch.ByClass[[]string{"Bus", "Truck"}[rng.Intn(2)]]
			return []oodb.Value{
				oodb.RefV(gBatch.ByClass["Vehicle"][rng.Intn(len(gBatch.ByClass["Vehicle"]))]),
				oodb.RefV(subclass[rng.Intn(len(subclass))]),
			}
		}
		for i := 0; i < 300; i++ {
			switch rng.Intn(6) {
			case 3, 4: // a person re-linked to a vehicle and a bus or truck
				ups = append(ups, Update{
					OID:   persons[rng.Intn(len(persons))],
					Attrs: map[string][]oodb.Value{"owns": owns()},
				})
			case 5: // a hot object, updated again and again within the batch
				switch oid := hot[rng.Intn(len(hot))]; oid {
				case vehicles[0]:
					ups = append(ups, Update{OID: oid, Attrs: map[string][]oodb.Value{"man": {oodb.RefV(companies[rng.Intn(len(companies))])}}})
				case companies[0]:
					ups = append(ups, Update{OID: oid, Attrs: map[string][]oodb.Value{"divs": {oodb.RefV(divisions[rng.Intn(len(divisions))])}}})
				default:
					ups = append(ups, Update{OID: oid, Attrs: map[string][]oodb.Value{"owns": owns()}})
				}
			case 0:
				ups = append(ups, Update{
					OID:   divisions[rng.Intn(len(divisions))],
					Attrs: map[string][]oodb.Value{"name": {gBatch.EndValues[rng.Intn(len(gBatch.EndValues))]}},
				})
			case 1:
				ups = append(ups, Update{
					OID:   vehicles[rng.Intn(len(vehicles))],
					Attrs: map[string][]oodb.Value{"man": {oodb.RefV(companies[rng.Intn(len(companies))])}},
				})
			default:
				ups = append(ups, Update{
					OID:   companies[rng.Intn(len(companies))],
					Attrs: map[string][]oodb.Value{"divs": {oodb.RefV(divisions[rng.Intn(len(divisions))])}},
				})
			}
		}
		if errs := cBatch.UpdateBatch(gBatch.Store, ups); errs != nil {
			for i, err := range errs {
				if err != nil {
					t.Fatalf("cfg %v: batch update %d: %v", cfg, i, err)
				}
			}
		}
		for _, u := range ups {
			if err := cSeq.UpdateIn(gSeq.Store, u.OID, u.Attrs); err != nil {
				t.Fatalf("cfg %v: sequential update: %v", cfg, err)
			}
		}
		for _, v := range gBatch.EndValues {
			for _, tc := range []struct {
				class string
				hier  bool
			}{{"Person", false}, {"Vehicle", true}, {"Division", false}} {
				want, err := pointQuery(cSeq, v, tc.class, tc.hier)
				if err != nil {
					t.Fatal(err)
				}
				got, err := pointQuery(cBatch, v, tc.class, tc.hier)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cfg %v: batch/sequential divergence on Query(%v, %s): %v vs %v",
						cfg, v, tc.class, got, want)
				}
			}
		}
		diffCheck(t, fmt.Sprintf("cfg %v, batch", cfg), cBatch, gBatch, 1024)
	}
}

// TestUpdateBatchReportsPerOpErrors asserts the batch error contract: a
// failing update (missing OID, bad attribute) reports in its slot without
// stopping the rest of the batch.
func TestUpdateBatchReportsPerOpErrors(t *testing.T) {
	ps := smallStats(t)
	g, err := gen.Generate(ps, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewIndexSet(g.Store, g.Path, configurations(ps.Len())[0], 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	div := g.ByClass["Division"][0]
	ups := []Update{
		{OID: div, Attrs: map[string][]oodb.Value{"name": {oodb.StrV("ok-1")}}},
		{OID: 1 << 40, Attrs: map[string][]oodb.Value{"name": {oodb.StrV("missing")}}},
		{OID: div, Attrs: map[string][]oodb.Value{"bogus": {oodb.StrV("nope")}}},
		{OID: div, Attrs: map[string][]oodb.Value{"name": {oodb.StrV("ok-2")}}},
	}
	errs := c.UpdateBatch(g.Store, ups)
	if errs[0] != nil || errs[3] != nil {
		t.Fatalf("valid updates failed: %v / %v", errs[0], errs[3])
	}
	if errs[1] == nil || errs[2] == nil {
		t.Fatalf("invalid updates succeeded: %v", errs)
	}
	obj, _ := g.Store.Peek(div)
	if got := obj.Values("name")[0].Str; got != "ok-2" {
		t.Fatalf("same-OID updates applied out of order: name = %q, want ok-2", got)
	}
}
