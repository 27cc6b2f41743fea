package index

import (
	"reflect"
	"testing"

	"repro/internal/oodb"
)

// windowOf returns the recorded OID window of an index.
func windowOf(t *testing.T, ix PathIndex) *oidWindow {
	switch x := ix.(type) {
	case *NestedInheritedIndex:
		return &x.win
	case *MultiIndex:
		return &x.win
	case *MultiInheritedIndex:
		return &x.win
	case *PathIndexPX:
		return &x.win
	}
	t.Fatalf("no window on %T", ix)
	return nil
}

// TestWindowIsOnlyAHint: an index's recorded OID window only tells its
// lookups' OID sets where to put a bitmap. Lowered below OIDs the index
// holds, raised above them, or shrunk to one word — so that sets promote
// on the OIDs inside and demote at the first outside — it leaves every
// answer of LookupInto, CollectKeys and LookupRange as it was.
func TestWindowIsOnlyAHint(t *testing.T) {
	f := buildFixture(t, 31, 8, 300, 600)
	targets := []struct {
		class string
		hier  bool
	}{{"Person", false}, {"Vehicle", true}, {"Bus", false}, {"Company", false}}
	answers := func(t *testing.T, whole, head PathIndex) [][]oodb.OID {
		sc := NewScratch()
		var out [][]oodb.OID
		for _, tc := range targets {
			for _, brand := range f.brands {
				got, err := whole.LookupInto(oodb.StrV(brand), tc.class, tc.hier, []oodb.OID{}, sc)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, got)
			}
			for _, r := range [][2]string{{"brand-00", "brand-04"}, {"brand-00", "brand-99"}} {
				got, err := whole.LookupRange(oodb.StrV(r[0]), oodb.StrV(r[1]), tc.class, tc.hier)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, got)
			}
			if tc.class == "Company" {
				continue // not in the head subpath's scope
			}
			for _, keys := range [][]oodb.OID{f.companies, f.companies[2:5]} {
				if err := head.CollectKeys(keys, tc.class, tc.hier, sc); err != nil {
					t.Fatal(err)
				}
				out = append(out, sc.Set().Take())
			}
		}
		return out
	}
	for _, org := range allOrgs {
		whole := f.buildIndex(t, org)
		head, err := New(f.store, f.path, 1, 2, whole.Org(), 1024)
		if err != nil {
			t.Fatal(err)
		}
		for _, oid := range append(f.allVehicles(), f.persons...) {
			obj, _ := f.store.Peek(oid)
			if err := head.OnInsert(obj); err != nil {
				t.Fatal(err)
			}
		}
		want := answers(t, whole, head)
		for i, tc := range targets[:2] {
			if naive := f.naiveMatch(t, f.brands[1], tc.class, tc.hier); !reflect.DeepEqual(want[i*12+1], naive) {
				t.Fatalf("%s %s with its own window: %v, naive %v", org, tc.class, want[i*12+1], naive)
			}
		}
		wins := []*oidWindow{windowOf(t, whole), windowOf(t, head)}
		saved := []oidWindow{*wins[0], *wins[1]}
		for _, name := range []string{"lowered", "raised", "one word"} {
			for k, w := range wins {
				lo, hi := saved[k].lo, saved[k].hi
				switch name {
				case "lowered":
					hi = lo + (hi-lo)/4
				case "raised":
					lo = hi - (hi-lo)/4
				default:
					hi = lo + 63
				}
				w.lo, w.hi = lo, hi
			}
			if got := answers(t, whole, head); !reflect.DeepEqual(got, want) {
				t.Errorf("%s with its window %s: answers differ", org, name)
			}
		}
	}
}
