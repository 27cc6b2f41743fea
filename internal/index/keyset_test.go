package index

import (
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/oodb"
)

// levelObjects lists the fixture's objects at path level l.
func (f *fixture) levelObjects(l int) []oodb.OID {
	switch l {
	case 1:
		return f.persons
	case 2:
		return f.allVehicles()
	default:
		return f.companies
	}
}

// TestKeySetLookupMatchesPerKey: on every subpath keyed by OIDs, for every
// organization and target class, one key-set hop collects the OID set of a
// LookupInto per key — the loop the executor used to run, kept here as the
// reference — decodes as many OIDs as a Collect per key, duplicates
// included, and reads no more pages.
func TestKeySetLookupMatchesPerKey(t *testing.T) {
	f := buildFixture(t, 21, 9, 80, 160)
	targets := map[int][]string{1: {"Person"}, 2: {"Vehicle", "Bus", "Truck"}}
	for _, sub := range [][2]int{{1, 1}, {1, 2}, {2, 2}} {
		a, b := sub[0], sub[1]
		for _, org := range []cost.Organization{cost.MX, cost.MIX, cost.NIX, cost.PX} {
			ix, err := New(f.store, f.path, a, b, org, 256)
			if err != nil {
				t.Fatal(err)
			}
			for l := b; l >= a; l-- {
				for _, oid := range f.levelObjects(l) {
					obj, _ := f.store.Peek(oid)
					if err := ix.OnInsert(obj); err != nil {
						t.Fatal(err)
					}
				}
			}
			all := oodb.SortUnique(slices.Clone(f.levelObjects(b + 1)))
			var thirds []oodb.OID
			for i := 0; i < len(all); i += 3 {
				thirds = append(thirds, all[i])
			}
			missing := append(slices.Clone(thirds), all[len(all)-1]+1000) // a key past the last leaf
			sc := NewScratch()
			var saved bool
			for _, keys := range [][]oodb.OID{all, thirds, missing, all[:1], nil} {
				for l := a; l <= b; l++ {
					for _, class := range targets[l] {
						for _, hier := range []bool{false, true} {
							ix.ResetStats()
							var want []oodb.OID
							for _, k := range keys {
								if want, err = ix.LookupInto(oodb.RefV(k), class, hier, want, sc); err != nil {
									t.Fatal(err)
								}
							}
							perKey := ix.Stats().Reads
							perKeyAdded := 0
							for _, k := range keys {
								if err := ix.Collect(Hop{Lo: oodb.RefV(k)}, class, hier, sc); err != nil {
									t.Fatal(err)
								}
								perKeyAdded += sc.Set().Added()
								sc.Set().Reset()
							}
							ix.ResetStats()
							if err := ix.CollectKeys(keys, class, hier, sc); err != nil {
								t.Fatal(err)
							}
							keySetAdded := sc.Set().Added()
							got := sc.Set().Take()
							keySet := ix.Stats().Reads
							want = oodb.SortUnique(want)
							if !slices.Equal(got, want) {
								t.Fatalf("%s [%d,%d] %s hier=%v, %d keys: key-set hop returned %d OIDs, per-key loop %d", org, a, b, class, hier, len(keys), len(got), len(want))
							}
							if keySetAdded != perKeyAdded {
								t.Fatalf("%s [%d,%d] %s hier=%v, %d keys: key-set hop decoded %d OIDs, per-key loop %d", org, a, b, class, hier, len(keys), keySetAdded, perKeyAdded)
							}
							if keySet > perKey {
								t.Errorf("%s [%d,%d] %s hier=%v, %d keys: key-set hop read %d pages, per-key loop %d", org, a, b, class, hier, len(keys), keySet, perKey)
							}
							saved = saved || keySet < perKey
						}
					}
				}
			}
			if !saved {
				t.Errorf("%s [%d,%d]: no key set read fewer pages than its per-key loop", org, a, b)
			}
		}
	}
}

// TestNIXReadsARecordThroughOneHandle: a NIX lookup descends once per
// record, so an inline record costs the tree's height (twice that when the
// directory and the sections were fetched by separate gets).
func TestNIXReadsARecordThroughOneHandle(t *testing.T) {
	small := buildFixture(t, 3, 40, 60, 20)
	small.indexPage = 256
	nx := small.buildIndex(t, "NIX").(*NestedInheritedIndex)
	h := uint64(nx.PrimaryTree().Height())
	if h < 2 {
		t.Fatalf("primary tree of height %d; the test wants a descent of 2 or more", h)
	}
	for _, brand := range small.brands[:5] {
		nx.ResetStats()
		if _, err := lookup(nx, oodb.StrV(brand), "Company", false); err != nil {
			t.Fatal(err)
		}
		if got := nx.Stats().Reads; got != h {
			t.Errorf("point lookup of an inline record read %d pages, height %d", got, h)
		}
	}
}

// TestNIXRangeReadsOnlyAskedSections: a range over multi-page primary
// records pays, per record, the directory and the asked-for sections — no
// more record pages than point lookups of the same keys and class, not
// every page of every record in the range.
func TestNIXRangeReadsOnlyAskedSections(t *testing.T) {
	f := buildFixture(t, 9, 6, 60, 400)
	f.indexPage = 256
	nx := f.buildIndex(t, "NIX").(*NestedInheritedIndex)
	tree := nx.PrimaryTree()
	h := uint64(tree.Height())
	for _, tc := range []struct {
		class string
		hier  bool
	}{{"Company", false}, {"Bus", false}, {"Vehicle", true}, {"Person", false}} {
		var pointRecordPages uint64
		for _, brand := range f.brands[1:5] {
			nx.ResetStats()
			if _, err := lookup(nx, oodb.StrV(brand), tc.class, tc.hier); err != nil {
				t.Fatal(err)
			}
			pointRecordPages += nx.Stats().Reads - h
		}
		nx.ResetStats()
		got, err := nx.LookupRange(oodb.StrV(f.brands[1]), oodb.StrV(f.brands[5]), tc.class, tc.hier)
		if err != nil {
			t.Fatal(err)
		}
		if want := f.rangeNaive(t, f.brands[1], f.brands[5], tc.class, tc.hier); !slices.Equal(got, want) {
			t.Fatalf("range for %s: %d OIDs, naive %d", tc.class, len(got), len(want))
		}
		// The scan itself reads the descent and at most every leaf.
		if reads, scan := nx.Stats().Reads, h+uint64(tree.LeafPages()); reads > scan+pointRecordPages {
			t.Errorf("range over 4 records for %s (hier=%v) read %d pages: scan ≤ %d, and 4 point lookups read %d record pages", tc.class, tc.hier, reads, scan, pointRecordPages)
		}
	}
}
