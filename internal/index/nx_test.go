package index

import (
	"reflect"
	"testing"

	"repro/internal/oodb"
)

func buildNX(t testing.TB, f *fixture) *NestedIndexNX {
	t.Helper()
	nx, err := NewNestedIndexNX(f.store, f.path, 1, f.path.Len(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	f.loadAll(t, nx)
	return nx
}

func TestNXLookupStartingClass(t *testing.T) {
	f := buildFixture(t, 31, 5, 30, 50)
	nx := buildNX(t, f)
	for _, brand := range f.brands {
		want := f.naiveMatch(t, brand, "Person", false)
		got, err := lookup(nx, oodb.StrV(brand), "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("NX Lookup(%s) = %v, want %v", brand, got, want)
		}
	}
	if nx.Org().String() != "NX" {
		t.Error("org identity wrong")
	}
	a, b := nx.Bounds()
	if a != 1 || b != 3 {
		t.Errorf("bounds = %d,%d", a, b)
	}
}

func TestNXRejectsInnerClassQueries(t *testing.T) {
	f := buildFixture(t, 32, 3, 10, 10)
	nx := buildNX(t, f)
	for _, cls := range []string{"Vehicle", "Bus", "Company"} {
		if _, err := lookup(nx, oodb.StrV("brand-00"), cls, false); err == nil {
			t.Errorf("inner-class query on %s accepted", cls)
		}
	}
	if _, err := lookup(nx, oodb.StrV("x"), "Division", false); err == nil {
		t.Error("out-of-scope class accepted")
	}
}

func TestNXMaintenance(t *testing.T) {
	f := buildFixture(t, 33, 5, 25, 40)
	nx := buildNX(t, f)

	// Delete a person (starting class): direct removal.
	victim := f.persons[0]
	obj, _ := f.store.Peek(victim)
	if err := nx.OnDelete(obj); err != nil {
		t.Fatal(err)
	}
	if err := f.store.Delete(victim); err != nil {
		t.Fatal(err)
	}
	f.persons = f.persons[1:]

	// Delete a vehicle (inner class): triggers the starting-hierarchy
	// rescan. Must be invoked before the store delete, like the executor.
	delVeh := f.allVehicles()[0]
	vobj, _ := f.store.Peek(delVeh)
	if err := nx.OnDelete(vobj); err != nil {
		t.Fatal(err)
	}
	if err := f.store.Delete(delVeh); err != nil {
		t.Fatal(err)
	}
	f.removeVehicle(delVeh)

	// Insert a fresh chain: company + bus + person.
	comp, _ := f.store.Insert("Company", map[string][]oodb.Value{"name": {oodb.StrV("brand-new")}})
	cobj, _ := f.store.Peek(comp)
	if err := nx.OnInsert(cobj); err != nil {
		t.Fatal(err)
	}
	bus, _ := f.store.Insert("Bus", map[string][]oodb.Value{"man": {oodb.RefV(comp)}})
	bobj, _ := f.store.Peek(bus)
	if err := nx.OnInsert(bobj); err != nil { // inner insert: no-op
		t.Fatal(err)
	}
	per, _ := f.store.Insert("Person", map[string][]oodb.Value{"owns": {oodb.RefV(bus)}})
	pobj, _ := f.store.Peek(per)
	if err := nx.OnInsert(pobj); err != nil {
		t.Fatal(err)
	}
	f.persons = append(f.persons, per)

	// All starting-class queries agree with ground truth.
	for _, brand := range append(f.brands, "brand-new") {
		want := f.naiveMatch(t, brand, "Person", false)
		got, err := lookup(nx, oodb.StrV(brand), "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("after maintenance: NX Lookup(%s) = %v, want %v", brand, got, want)
		}
	}
}

func TestNXRange(t *testing.T) {
	f := buildFixture(t, 34, 8, 40, 60)
	nx := buildNX(t, f)
	want := f.rangeNaive(t, "brand-01", "brand-05", "Person", false)
	got, err := nx.LookupRange(oodb.StrV("brand-01"), oodb.StrV("brand-05"), "Person", false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NX range = %v, want %v", got, want)
	}
	if _, err := nx.LookupRange(oodb.StrV("a"), oodb.StrV("b"), "Vehicle", false); err == nil {
		t.Error("inner-class range accepted")
	}
	if _, err := nx.LookupRange(oodb.StrV("a"), oodb.IntV(1), "Person", false); err == nil {
		t.Error("mixed-kind range accepted")
	}
}

func TestNXBoundaryDelete(t *testing.T) {
	// NX on the head subpath Person.owns.man: keys are Company OIDs.
	f := buildFixture(t, 35, 4, 20, 30)
	nx, err := NewNestedIndexNX(f.store, f.path, 1, 2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Load only the subpath's scope (companies are outside [1,2]).
	for _, oid := range append(f.allVehicles(), f.persons...) {
		obj, _ := f.store.Peek(oid)
		if err := nx.OnInsert(obj); err != nil {
			t.Fatal(err)
		}
	}
	comp := f.companies[0]
	got, err := lookup(nx, oodb.RefV(comp), "Person", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no persons for company 0; fixture too sparse")
	}
	if err := nx.BoundaryDelete(comp); err != nil {
		t.Fatal(err)
	}
	got, err = lookup(nx, oodb.RefV(comp), "Person", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("after BoundaryDelete: %v", got)
	}
	// Path-ending subpath: no-op.
	full := buildNX(t, f)
	if err := full.BoundaryDelete(comp); err != nil {
		t.Error(err)
	}
}

func TestNXInnerDeleteScansStore(t *testing.T) {
	// The defining trade-off: an inner-class deletion must touch far more
	// store pages than a starting-class deletion (hierarchy rescan).
	f := buildFixture(t, 36, 5, 40, 120)
	nx := buildNX(t, f)
	perObj, _ := f.store.Peek(f.persons[0])
	f.store.Pager().ResetStats()
	if err := nx.OnDelete(perObj); err != nil {
		t.Fatal(err)
	}
	startCost := f.store.Pager().Stats().Reads
	vehObj, _ := f.store.Peek(f.allVehicles()[0])
	f.store.Pager().ResetStats()
	if err := nx.OnDelete(vehObj); err != nil {
		t.Fatal(err)
	}
	innerCost := f.store.Pager().Stats().Reads
	if innerCost <= startCost*2 {
		t.Errorf("inner delete store reads (%d) not clearly above starting delete (%d)", innerCost, startCost)
	}
}

func TestNXConstructorErrors(t *testing.T) {
	f := buildFixture(t, 37, 2, 5, 5)
	if _, err := NewNestedIndexNX(nil, f.path, 1, 3, 1024); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := NewNestedIndexNX(f.store, f.path, 0, 3, 1024); err == nil {
		t.Error("bad bounds accepted")
	}
	if _, err := NewPathIndexPX(nil, f.path, 1, 3, 1024); err == nil {
		t.Error("PX nil store accepted")
	}
	if _, err := NewPathIndexPX(f.store, f.path, 5, 6, 1024); err == nil {
		t.Error("PX bad bounds accepted")
	}
}
