package index

import (
	"reflect"
	"testing"

	"repro/internal/oodb"
	"repro/internal/schema"
)

// rangeNaive computes ground truth for a string range [lo, hi) on the
// fixture's path.
func (f *fixture) rangeNaive(t testing.TB, lo, hi, targetClass string, hierarchy bool) []oodb.OID {
	t.Helper()
	var out []oodb.OID
	for _, brand := range f.brands {
		if brand >= lo && brand < hi {
			out = append(out, f.naiveMatch(t, brand, targetClass, hierarchy)...)
		}
	}
	return oodb.SortUnique(out)
}

func TestLookupRangeMatchesNaive(t *testing.T) {
	f := buildFixture(t, 21, 8, 50, 80)
	ranges := [][2]string{
		{"brand-00", "brand-03"},
		{"brand-02", "brand-08"},
		{"brand-00", "brand-99"},
		{"brand-09", "brand-09"}, // empty
	}
	for _, org := range allOrgs {
		ix := f.buildIndex(t, org)
		for _, r := range ranges {
			for _, tc := range []struct {
				class string
				hier  bool
			}{{"Person", false}, {"Vehicle", true}, {"Bus", false}, {"Company", false}} {
				want := f.rangeNaive(t, r[0], r[1], tc.class, tc.hier)
				got, err := ix.LookupRange(oodb.StrV(r[0]), oodb.StrV(r[1]), tc.class, tc.hier)
				if err != nil {
					t.Fatalf("%s LookupRange(%v): %v", org, r, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s LookupRange(%v, %s, h=%v) = %v, want %v", org, r, tc.class, tc.hier, got, want)
				}
			}
		}
	}
}

func TestLookupRangeErrors(t *testing.T) {
	f := buildFixture(t, 22, 3, 10, 10)
	for _, org := range allOrgs {
		ix := f.buildIndex(t, org)
		if _, err := ix.LookupRange(oodb.StrV("a"), oodb.IntV(1), "Person", false); err == nil {
			t.Errorf("%s: mixed-kind range accepted", org)
		}
		if _, err := ix.LookupRange(oodb.StrV("a"), oodb.StrV("b"), "Division", false); err == nil {
			t.Errorf("%s: out-of-scope class accepted", org)
		}
	}
}

func TestIntKeyOrderPreserved(t *testing.T) {
	// The sign-flip encoding must order negative < zero < positive.
	vals := []int64{-5, -1, 0, 1, 5}
	for i := 1; i < len(vals); i++ {
		a := string(EncodeValue(oodb.IntV(vals[i-1])))
		b := string(EncodeValue(oodb.IntV(vals[i])))
		if a >= b {
			t.Errorf("encoding order broken: %d !< %d", vals[i-1], vals[i])
		}
	}
}

func TestLookupRangeOnIntegers(t *testing.T) {
	// An integer-valued ending attribute: index Vehicle.weight directly
	// through a single-level MX subpath of the paper schema.
	s := schema.PaperSchema()
	st, _ := oodb.NewStore(s, 1024)
	pathW := schema.MustNewPath(s, "Vehicle", "weight")
	mx, err := NewMultiIndex(pathW, 1, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var oids []oodb.OID
	for i := int64(-3); i <= 3; i++ {
		oid, err := st.Insert("Vehicle", map[string][]oodb.Value{"weight": {oodb.IntV(i * 10)}})
		if err != nil {
			t.Fatal(err)
		}
		obj, _ := st.Peek(oid)
		if err := mx.OnInsert(obj); err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	got, err := mx.LookupRange(oodb.IntV(-15), oodb.IntV(15), "Vehicle", false)
	if err != nil {
		t.Fatal(err)
	}
	// Weights in [-15, 15): -10, 0, 10 → the 3rd, 4th, 5th inserted.
	want := oodb.SortUnique([]oodb.OID{oids[2], oids[3], oids[4]})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("integer range = %v, want %v", got, want)
	}
}

// TestCorruptOIDSetFailsPointAndRangeAlike writes a truncated OID set under
// a key of the ending-level tree and requires both entry points of the
// MX/MIX kernel to report it: a range scan must not skip a record the
// point lookup rejects.
func TestCorruptOIDSetFailsPointAndRangeAlike(t *testing.T) {
	f := buildFixture(t, 23, 3, 10, 10)
	for _, org := range []string{"MX", "MIX"} {
		ix := f.buildIndex(t, org)
		var ai *AttrIndex
		switch x := ix.(type) {
		case *MultiIndex:
			ai = x.ClassIndex(f.path.Len(), "Company")
		case *MultiInheritedIndex:
			ai = x.LevelIndex(f.path.Len())
		}
		ai.Tree().Insert(EncodeValue(oodb.StrV("brand-zz")), []byte{0, 0, 0, 9, 1})
		for _, class := range []string{"Company", "Person"} {
			if _, err := lookup(ix, oodb.StrV("brand-zz"), class, false); err == nil {
				t.Errorf("%s LookupInto(%s): truncated OID set accepted", org, class)
			}
			if _, err := ix.LookupRange(oodb.StrV("brand-zy"), oodb.StrV("brand-zzz"), class, false); err == nil {
				t.Errorf("%s LookupRange(%s): truncated OID set skipped", org, class)
			}
		}
	}
}
