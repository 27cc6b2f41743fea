package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/oodb"
)

// writeStream draws seeded batches of mixed writes over
// Person.owns.man.divs.name: inserts at every level, each referencing a
// live object of the next level, re-links and renames, deletes, missing
// OIDs, and an object updated then deleted, or updated twice, within one
// batch.
type writeStream struct {
	rng   *rand.Rand
	live  map[string][]oodb.OID // by class
	names []oodb.Value          // the ending values renames draw from
}

// links names each referencing class's path attribute and the classes
// it may point at.
var links = map[string]struct {
	attr string
	to   []string
}{
	"Person":  {"owns", []string{"Vehicle", "Bus", "Truck"}},
	"Vehicle": {"man", []string{"Company"}},
	"Bus":     {"man", []string{"Company"}},
	"Truck":   {"man", []string{"Company"}},
	"Company": {"divs", []string{"Division"}},
}

var writeClasses = []string{"Person", "Vehicle", "Bus", "Truck", "Company", "Division"}

func (s *writeStream) pick(classes ...string) (oodb.OID, bool) {
	pool := s.live[classes[s.rng.Intn(len(classes))]]
	if len(pool) == 0 {
		return 0, false
	}
	return pool[s.rng.Intn(len(pool))], true
}

// attrs draws class's path attribute: a reference to a live object of
// the next level (none when there is none), or a Division's name.
func (s *writeStream) attrs(class string) map[string][]oodb.Value {
	if l, ok := links[class]; ok {
		if oid, ok := s.pick(l.to...); ok {
			return map[string][]oodb.Value{l.attr: {oodb.RefV(oid)}}
		}
		return nil
	}
	return map[string][]oodb.Value{"name": {s.names[s.rng.Intn(len(s.names))]}}
}

func (s *writeStream) batch(n int) []Write {
	var ws []Write
	for len(ws) < n {
		cls := writeClasses[s.rng.Intn(len(writeClasses))]
		oid, ok := s.pick(cls)
		switch r := s.rng.Intn(10); {
		case r < 3 || !ok:
			ws = append(ws, Write{Kind: WriteInsert, Class: cls, Attrs: s.attrs(cls)})
		case r == 3:
			ws = append(ws, Write{Kind: WriteDelete, OID: oid})
		case r == 4:
			ws = append(ws, Write{OID: 1 << 40, Attrs: s.attrs(cls)}, Write{Kind: WriteDelete, OID: 1<<40 + 1})
		case r == 5:
			ws = append(ws, Write{OID: oid, Attrs: s.attrs(cls)}, Write{Kind: WriteDelete, OID: oid})
		case r == 6:
			ws = append(ws, Write{OID: oid, Attrs: s.attrs(cls)}, Write{OID: oid, Attrs: s.attrs(cls)})
		default:
			ws = append(ws, Write{OID: oid, Attrs: s.attrs(cls)})
		}
	}
	return ws
}

// settle takes an applied batch's inserts and deletes into the live set.
func (s *writeStream) settle(ws []Write, errs []error) {
	for i, w := range ws {
		switch {
		case errs[i] != nil:
		case w.Kind == WriteInsert:
			s.live[w.Class] = append(s.live[w.Class], w.OID)
		case w.Kind == WriteDelete:
			for cls, pool := range s.live {
				s.live[cls] = slices.DeleteFunc(pool, func(o oodb.OID) bool { return o == w.OID })
			}
		}
	}
}

// TestApplyMatchesOneByOne sends a seeded stream of mixed write batches
// through Apply and the same stream, one entry at a time, through a twin
// set over an identical store: every entry must fail or succeed alike,
// every insert get the same OID, every stored image be the entry's own
// write, and the stores end equal, with every structure of the batch
// side answering as a fresh rebuild.
func TestApplyMatchesOneByOne(t *testing.T) {
	ps := smallStats(t)
	for ci, cfg := range configurations(ps.Len()) {
		seed := int64(500 + ci)
		gB, err := gen.Generate(ps, 0.3, seed)
		if err != nil {
			t.Fatal(err)
		}
		gT, err := gen.Generate(ps, 0.3, seed)
		if err != nil {
			t.Fatal(err)
		}
		cB, err := NewIndexSet(gB.Store, gB.Path, cfg, 1024, nil)
		if err != nil {
			t.Fatal(err)
		}
		cT, err := NewIndexSet(gT.Store, gT.Path, cfg, 1024, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := &writeStream{rng: rand.New(rand.NewSource(seed)), live: map[string][]oodb.OID{}, names: gB.EndValues}
		for cls, oids := range gB.ByClass {
			s.live[cls] = slices.Clone(oids)
		}
		label := fmt.Sprintf("cfg %v", cfg)
		for b := 0; b < 60; b++ {
			ws := s.batch(1 + s.rng.Intn(12))
			twin := slices.Clone(ws)
			stored := make([]*oodb.Object, len(ws))
			errs := cB.Apply(gB.Store, ws, nil, stored)
			for i := range twin {
				err := cT.Apply(gT.Store, twin[i:i+1], nil, nil)[0]
				if fmt.Sprint(err) != fmt.Sprint(errs[i]) || twin[i].OID != ws[i].OID {
					t.Fatalf("%s, batch %d entry %d %+v: batch (%d, %v), one by one (%d, %v)",
						label, b, i, ws[i], ws[i].OID, errs[i], twin[i].OID, err)
				}
				if errs[i] != nil || ws[i].Kind == WriteDelete {
					continue
				}
				if o := stored[i]; o == nil || o.OID != ws[i].OID {
					t.Fatalf("%s, batch %d entry %d: stored %v", label, b, i, o)
				}
				for attr, vals := range ws[i].Attrs {
					if got := stored[i].Values(attr); !reflect.DeepEqual(got, vals) {
						t.Fatalf("%s, batch %d entry %d: stored %s = %v, the entry wrote %v", label, b, i, attr, got, vals)
					}
				}
			}
			s.settle(ws, errs)
		}
		if gB.Store.Fingerprint() != gT.Store.Fingerprint() {
			t.Fatalf("%s: batch and one-by-one stores diverged", label)
		}
		diffCheck(t, label, cB, gB, 1024)
	}
}
