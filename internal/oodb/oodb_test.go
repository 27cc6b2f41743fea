package oodb

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/schema"
)

func newStore(t testing.TB) *Store {
	t.Helper()
	st, err := NewStore(schema.PaperSchema(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestInsertGet(t *testing.T) {
	st := newStore(t)
	oid, err := st.Insert("Company", map[string][]Value{
		"name":     {StrV("Fiat")},
		"location": {StrV("Torino")},
	})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := st.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Class != "Company" || obj.Values("name")[0].Str != "Fiat" {
		t.Errorf("object = %+v", obj)
	}
	if st.Len() != 1 || st.ClassCount("Company") != 1 {
		t.Errorf("counts: len=%d class=%d", st.Len(), st.ClassCount("Company"))
	}
}

func TestErrNotFoundSentinel(t *testing.T) {
	st := newStore(t)
	if _, err := st.Get(42); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(missing) = %v, want ErrNotFound", err)
	}
	if err := st.Delete(42); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete(missing) = %v, want ErrNotFound", err)
	}
	oid, err := st.Insert("Company", map[string][]Value{"name": {StrV("Fiat")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(oid); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(oid); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(deleted) = %v, want ErrNotFound", err)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	// Readers (Get, scans, catalog listings) race one writer goroutine;
	// run under -race this exercises the store's RWMutex protocol,
	// including scan callbacks that re-enter the store.
	st := newStore(t)
	var oids []OID
	for i := 0; i < 50; i++ {
		oid, err := st.Insert("Division", map[string][]Value{"name": {IntV(int64(i))}})
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			oid, err := st.Insert("Company", map[string][]Value{"divs": {RefV(oids[i%len(oids)])}})
			if err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if i%2 == 0 {
				if err := st.Delete(oid); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				st.ScanClass("Company", func(o *Object) bool {
					for _, ref := range o.Refs("divs") {
						// Re-entering the store from the callback must
						// not deadlock; the target may have been
						// deleted meanwhile.
						if _, err := st.Get(ref); err != nil && !errors.Is(err, ErrNotFound) {
							t.Errorf("get: %v", err)
						}
					}
					return true
				})
				st.Len()
				st.OIDsOfClass("Division")
				st.ClassCount("Company")
			}
		}()
	}
	wg.Wait()
}

func TestInsertValidation(t *testing.T) {
	st := newStore(t)
	if _, err := st.Insert("Nope", nil); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := st.Insert("Company", map[string][]Value{"ghost": {StrV("x")}}); err == nil {
		t.Error("unknown attribute accepted")
	}
	// man is single-valued.
	comp, _ := st.Insert("Company", map[string][]Value{"name": {StrV("Fiat")}})
	if _, err := st.Insert("Vehicle", map[string][]Value{"man": {RefV(comp), RefV(comp)}}); err == nil {
		t.Error("multi-value on single-valued attribute accepted")
	}
	// man needs a reference.
	if _, err := st.Insert("Vehicle", map[string][]Value{"man": {StrV("Fiat")}}); err == nil {
		t.Error("atomic value on ref attribute accepted")
	}
	// Reference to a missing object (no backward/unresolved refs).
	if _, err := st.Insert("Vehicle", map[string][]Value{"man": {RefV(999)}}); err == nil {
		t.Error("dangling forward reference accepted")
	}
	// Reference to a wrong class.
	person, _ := st.Insert("Person", map[string][]Value{"name": {StrV("Rossi")}})
	if _, err := st.Insert("Vehicle", map[string][]Value{"man": {RefV(person)}}); err == nil {
		t.Error("wrong-domain reference accepted")
	}
	// Atomic attribute given a reference.
	if _, err := st.Insert("Company", map[string][]Value{"name": {RefV(comp)}}); err == nil {
		t.Error("reference on atomic attribute accepted")
	}
}

func TestInheritedAttributesAndSubclassRefs(t *testing.T) {
	st := newStore(t)
	comp, _ := st.Insert("Company", map[string][]Value{"name": {StrV("Fiat")}})
	// Bus inherits man from Vehicle.
	bus, err := st.Insert("Bus", map[string][]Value{
		"man":   {RefV(comp)},
		"seats": {IntV(52)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Person.owns declares domain Vehicle; a Bus is acceptable.
	if _, err := st.Insert("Person", map[string][]Value{"owns": {RefV(bus)}}); err != nil {
		t.Fatalf("subclass reference rejected: %v", err)
	}
}

func TestOneClassPerPage(t *testing.T) {
	st := newStore(t)
	comp, _ := st.Insert("Company", map[string][]Value{"name": {StrV("Fiat")}})
	for i := 0; i < 50; i++ {
		if _, err := st.Insert("Vehicle", map[string][]Value{"man": {RefV(comp)}, "id": {IntV(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	if st.PagesOfClass("Vehicle") < 2 {
		t.Errorf("Vehicle pages = %d, expected multiple", st.PagesOfClass("Vehicle"))
	}
	// Company page separate from Vehicle pages.
	if st.PagesOfClass("Company") != 1 {
		t.Errorf("Company pages = %d", st.PagesOfClass("Company"))
	}
}

func TestDeleteFreesPages(t *testing.T) {
	st := newStore(t)
	var oids []OID
	for i := 0; i < 40; i++ {
		oid, _ := st.Insert("Division", map[string][]Value{"name": {StrV("D")}})
		oids = append(oids, oid)
	}
	pagesBefore := st.PagesOfClass("Division")
	for _, oid := range oids {
		if err := st.Delete(oid); err != nil {
			t.Fatal(err)
		}
	}
	if st.PagesOfClass("Division") != 0 {
		t.Errorf("pages after deleting all = %d (before: %d)", st.PagesOfClass("Division"), pagesBefore)
	}
	if st.Len() != 0 {
		t.Errorf("Len = %d", st.Len())
	}
	if err := st.Delete(oids[0]); err == nil {
		t.Error("double delete succeeded")
	}
	if _, err := st.Get(oids[0]); err == nil {
		t.Error("Get after delete succeeded")
	}
}

// TestObjectsStreamsInOIDOrder: the checkpoint writer's iteration is
// ordered, so two checkpoints of one state are the same bytes and a store
// restored from one lays its pages out the same way every time.
func TestObjectsStreamsInOIDOrder(t *testing.T) {
	st := newStore(t)
	for i := 0; i < 200; i++ {
		class := []string{"Division", "Company"}[i%2]
		if _, err := st.Insert(class, map[string][]Value{"name": {StrV("n")}}); err != nil {
			t.Fatal(err)
		}
	}
	var prev OID
	n := 0
	err := st.Objects(func(o *Object) error {
		if o.OID <= prev {
			t.Fatalf("object %d streamed after %d", o.OID, prev)
		}
		prev = o.OID
		n++
		return nil
	})
	if err != nil || n != 200 {
		t.Fatalf("streamed %d objects, err %v", n, err)
	}
}

func TestScanClassCountsPageReads(t *testing.T) {
	st := newStore(t)
	for i := 0; i < 60; i++ {
		if _, err := st.Insert("Division", map[string][]Value{"name": {StrV("D")}, "movings": {IntV(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	pages := st.PagesOfClass("Division")
	st.Pager().ResetStats()
	count := 0
	st.ScanClass("Division", func(o *Object) bool { count++; return true })
	if count != 60 {
		t.Errorf("scanned %d objects", count)
	}
	if got := st.Pager().Stats().Reads; int(got) != pages {
		t.Errorf("scan reads = %d, want %d pages", got, pages)
	}
}

func TestScanHierarchy(t *testing.T) {
	st := newStore(t)
	comp, _ := st.Insert("Company", map[string][]Value{"name": {StrV("Fiat")}})
	for i := 0; i < 3; i++ {
		st.Insert("Vehicle", map[string][]Value{"man": {RefV(comp)}})
		st.Insert("Bus", map[string][]Value{"man": {RefV(comp)}})
		st.Insert("Truck", map[string][]Value{"man": {RefV(comp)}})
	}
	count := 0
	st.ScanHierarchy("Vehicle", func(o *Object) bool { count++; return true })
	if count != 9 {
		t.Errorf("hierarchy scan visited %d, want 9", count)
	}
	// Early stop.
	count = 0
	st.ScanHierarchy("Vehicle", func(o *Object) bool { count++; return count < 4 })
	if count != 4 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestRefsHelper(t *testing.T) {
	st := newStore(t)
	comp, _ := st.Insert("Company", map[string][]Value{"name": {StrV("Fiat")}})
	v1, _ := st.Insert("Vehicle", map[string][]Value{"man": {RefV(comp)}})
	v2, _ := st.Insert("Vehicle", map[string][]Value{"man": {RefV(comp)}})
	p, _ := st.Insert("Person", map[string][]Value{"owns": {RefV(v1), RefV(v2)}})
	obj, _ := st.Get(p)
	refs := obj.Refs("owns")
	if len(refs) != 2 || refs[0] != v1 || refs[1] != v2 {
		t.Errorf("Refs = %v", refs)
	}
	if got := obj.Refs("name"); got != nil {
		t.Errorf("Refs on unset attr = %v", got)
	}
}

func TestOIDsOfClassAndPeek(t *testing.T) {
	st := newStore(t)
	a, _ := st.Insert("Division", map[string][]Value{"name": {StrV("X")}})
	b, _ := st.Insert("Division", map[string][]Value{"name": {StrV("Y")}})
	oids := st.OIDsOfClass("Division")
	if len(oids) != 2 {
		t.Fatalf("OIDs = %v", oids)
	}
	seen := map[OID]bool{a: false, b: false}
	for _, o := range oids {
		seen[o] = true
	}
	if !seen[a] || !seen[b] {
		t.Errorf("OIDs missing: %v", oids)
	}
	// Ascending, whatever order the pages' maps iterate in: enough objects
	// to span several pages and make an accidental order implausible.
	for i := 0; i < 200; i++ {
		if _, err := st.Insert("Division", map[string][]Value{"name": {StrV(fmt.Sprint(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	oids = st.OIDsOfClass("Division")
	if len(oids) != 202 || !slices.IsSorted(oids) {
		t.Fatalf("OIDsOfClass returned %d OIDs, sorted=%v; want 202 ascending", len(oids), slices.IsSorted(oids))
	}
	st.Pager().ResetStats()
	if _, ok := st.Peek(a); !ok {
		t.Error("Peek failed")
	}
	if st.Pager().Stats().Reads != 0 {
		t.Error("Peek counted a page access")
	}
}

func TestValueHelpers(t *testing.T) {
	if !IntV(5).Equal(IntV(5)) || IntV(5).Equal(IntV(6)) {
		t.Error("Int equality broken")
	}
	if !StrV("a").Equal(StrV("a")) || StrV("a").Equal(StrV("b")) {
		t.Error("Str equality broken")
	}
	if !RefV(1).Equal(RefV(1)) || RefV(1).Equal(RefV(2)) {
		t.Error("Ref equality broken")
	}
	if IntV(1).Equal(StrV("1")) {
		t.Error("cross-kind equality")
	}
	if IntV(7).String() != "7" || StrV("x").String() != "x" || RefV(3).String() != "oid:3" {
		t.Error("String renderings wrong")
	}
	if StrV("abc").Size() != 7 || IntV(1).Size() != 8 {
		t.Error("Size wrong")
	}
}

func TestNewStoreErrors(t *testing.T) {
	if _, err := NewStore(nil, 1024); err == nil {
		t.Error("nil schema accepted")
	}
	if _, err := NewStore(schema.PaperSchema(), 4); err == nil {
		t.Error("tiny page accepted")
	}
}

// TestScanHierarchySeesLateAddedSubclass guards the pre-resolved
// hierarchy table's staleness check: a subclass added to the schema after
// the store was built must still be visited by ScanHierarchy of its root.
func TestScanHierarchySeesLateAddedSubclass(t *testing.T) {
	s := schema.PaperSchema()
	st, err := NewStore(s, 1024)
	if err != nil {
		t.Fatal(err)
	}
	s.MustAddClass(&schema.Class{Name: "Minivan", Super: "Vehicle", Attrs: []schema.Attribute{
		{Name: "extra", Kind: schema.Atomic, Domain: "string"},
	}})
	oid, err := st.Insert("Minivan", map[string][]Value{"extra": {StrV("x")}})
	if err != nil {
		t.Fatal(err)
	}
	var seen []OID
	st.ScanHierarchy("Vehicle", func(o *Object) bool {
		seen = append(seen, o.OID)
		return true
	})
	if len(seen) != 1 || seen[0] != oid {
		t.Fatalf("ScanHierarchy missed the late-added subclass: saw %v, want [%d]", seen, oid)
	}
}

func TestUpdateInPlace(t *testing.T) {
	st := newStore(t)
	fiat, err := st.Insert("Company", map[string][]Value{
		"name": {StrV("Fiat")}, "location": {StrV("Torino")},
	})
	if err != nil {
		t.Fatal(err)
	}
	old, upd, err := st.Update(fiat, map[string][]Value{"location": {StrV("Milano")}})
	if err != nil {
		t.Fatal(err)
	}
	if old.Values("location")[0].Str != "Torino" {
		t.Errorf("old location = %v", old.Values("location"))
	}
	if upd.Values("location")[0].Str != "Milano" || upd.Values("name")[0].Str != "Fiat" {
		t.Errorf("updated object = %+v", upd)
	}
	if upd.OID != fiat || upd.Class != "Company" {
		t.Errorf("identity changed: %+v", upd)
	}
	got, err := st.Get(fiat)
	if err != nil {
		t.Fatal(err)
	}
	if got != upd || got.Values("location")[0].Str != "Milano" {
		t.Errorf("Get after Update = %+v", got)
	}
	// The pre-update snapshot is untouched (objects are immutable).
	if old.Values("location")[0].Str != "Torino" {
		t.Errorf("old snapshot mutated: %+v", old)
	}
	if st.Len() != 1 || st.ClassCount("Company") != 1 {
		t.Errorf("counts after update: len=%d class=%d", st.Len(), st.ClassCount("Company"))
	}
}

func TestUpdateRelink(t *testing.T) {
	st := newStore(t)
	a, _ := st.Insert("Company", map[string][]Value{"name": {StrV("Fiat")}})
	v, err := st.Insert("Vehicle", map[string][]Value{"man": {RefV(a)}})
	if err != nil {
		t.Fatal(err)
	}
	// Re-link to an object inserted *after* the vehicle: Update relaxes
	// the forward-reference restriction to "any live object of the domain".
	b, _ := st.Insert("Company", map[string][]Value{"name": {StrV("Daf")}})
	if _, _, err := st.Update(v, map[string][]Value{"man": {RefV(b)}}); err != nil {
		t.Fatal(err)
	}
	obj, _ := st.Peek(v)
	if refs := obj.Refs("man"); len(refs) != 1 || refs[0] != b {
		t.Errorf("man = %v, want [%d]", refs, b)
	}
}

func TestUpdateRemovesAttr(t *testing.T) {
	st := newStore(t)
	c, _ := st.Insert("Company", map[string][]Value{
		"name": {StrV("Fiat")}, "location": {StrV("Torino")},
	})
	if _, _, err := st.Update(c, map[string][]Value{"location": nil}); err != nil {
		t.Fatal(err)
	}
	obj, _ := st.Peek(c)
	if obj.Values("location") != nil {
		t.Errorf("location survived removal: %v", obj.Values("location"))
	}
	if obj.Values("name")[0].Str != "Fiat" {
		t.Errorf("name lost: %+v", obj)
	}
}

func TestUpdateValidation(t *testing.T) {
	st := newStore(t)
	c, _ := st.Insert("Company", map[string][]Value{"name": {StrV("Fiat")}})
	v, _ := st.Insert("Vehicle", map[string][]Value{"man": {RefV(c)}})
	p, _ := st.Insert("Person", map[string][]Value{"name": {StrV("Rossi")}})
	cases := []struct {
		name  string
		oid   OID
		attrs map[string][]Value
	}{
		{"missing object", 999, map[string][]Value{"name": {StrV("x")}}},
		{"unknown attribute", c, map[string][]Value{"bogus": {StrV("x")}}},
		{"arity", v, map[string][]Value{"man": {RefV(c), RefV(c)}}},
		{"self reference", v, map[string][]Value{"man": {RefV(v)}}},
		{"dangling reference", v, map[string][]Value{"man": {RefV(500)}}},
		{"wrong domain", v, map[string][]Value{"man": {RefV(p)}}},
		{"atomic gets ref", c, map[string][]Value{"name": {RefV(c)}}},
	}
	for _, tc := range cases {
		if _, _, err := st.Update(tc.oid, tc.attrs); err == nil {
			t.Errorf("%s: Update succeeded, want error", tc.name)
		}
	}
	if _, _, err := st.Update(999, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing OID error = %v, want ErrNotFound", err)
	}
}

func TestUpdateRelocatesWhenPageOverflows(t *testing.T) {
	st := newStore(t)
	// Fill one page with several small divisions, then grow one past the
	// page boundary: it must relocate without disturbing the others.
	var oids []OID
	for i := 0; i < 8; i++ {
		oid, err := st.Insert("Division", map[string][]Value{"name": {StrV("d")}})
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	before := st.PagesOfClass("Division")
	big := make([]byte, 2000)
	for i := range big {
		big[i] = 'x'
	}
	if _, _, err := st.Update(oids[0], map[string][]Value{"name": {StrV(string(big))}}); err != nil {
		t.Fatal(err)
	}
	if got := st.PagesOfClass("Division"); got <= before {
		t.Errorf("pages after overflow update = %d, want > %d", got, before)
	}
	for _, oid := range oids {
		if _, ok := st.Peek(oid); !ok {
			t.Errorf("object %d lost after relocation", oid)
		}
	}
	obj, _ := st.Peek(oids[0])
	if len(obj.Values("name")[0].Str) != 2000 {
		t.Errorf("grown value truncated: %d bytes", len(obj.Values("name")[0].Str))
	}
}

func TestUpdateCountsPageAccesses(t *testing.T) {
	st := newStore(t)
	c, _ := st.Insert("Company", map[string][]Value{"name": {StrV("Fiat")}})
	st.Pager().ResetStats()
	if _, _, err := st.Update(c, map[string][]Value{"name": {StrV("Daf")}}); err != nil {
		t.Fatal(err)
	}
	s := st.Pager().Stats()
	if s.Reads < 1 || s.Writes < 1 {
		t.Errorf("update counted reads=%d writes=%d, want >=1 each", s.Reads, s.Writes)
	}
}

func TestValuesEqual(t *testing.T) {
	a := []Value{IntV(1), StrV("x"), RefV(3)}
	if !ValuesEqual(a, []Value{IntV(1), StrV("x"), RefV(3)}) {
		t.Error("equal slices reported unequal")
	}
	if ValuesEqual(a, a[:2]) || ValuesEqual(a, []Value{IntV(1), StrV("y"), RefV(3)}) {
		t.Error("unequal slices reported equal")
	}
	if !ValuesEqual(nil, nil) || ValuesEqual(a, nil) {
		t.Error("nil handling wrong")
	}
}
