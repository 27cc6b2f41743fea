package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/storage"
)

func newTestPager(t testing.TB) *storage.Pager {
	t.Helper()
	return storage.MustNewPager(1024, 0)
}

// fixture is a small Figure-2-style database over the paper schema with a
// ground-truth nested-value map for the path Person.owns.man.name.
type fixture struct {
	store *oodb.Store
	path  *schema.Path

	companies []oodb.OID // name = brand[i]
	vehicles  []oodb.OID
	buses     []oodb.OID
	trucks    []oodb.OID
	persons   []oodb.OID

	brands []string

	// indexPage is the page size buildIndex gives its structures; zero
	// means 1024. At 256 every NIX primary record of the fixture spans
	// several overflow pages.
	indexPage int
}

func buildFixture(t testing.TB, seed int64, nComp, nVeh, nPer int) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	st, err := oodb.NewStore(schema.PaperSchema(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{store: st, path: schema.PaperPathOwnsManName()}
	for i := 0; i < nComp; i++ {
		brand := fmt.Sprintf("brand-%02d", i)
		f.brands = append(f.brands, brand)
		oid, err := st.Insert("Company", map[string][]oodb.Value{"name": {oodb.StrV(brand)}})
		if err != nil {
			t.Fatal(err)
		}
		f.companies = append(f.companies, oid)
	}
	classes := []string{"Vehicle", "Bus", "Truck"}
	for i := 0; i < nVeh; i++ {
		cls := classes[rng.Intn(3)]
		comp := f.companies[rng.Intn(len(f.companies))]
		oid, err := st.Insert(cls, map[string][]oodb.Value{"man": {oodb.RefV(comp)}})
		if err != nil {
			t.Fatal(err)
		}
		switch cls {
		case "Vehicle":
			f.vehicles = append(f.vehicles, oid)
		case "Bus":
			f.buses = append(f.buses, oid)
		default:
			f.trucks = append(f.trucks, oid)
		}
	}
	all := f.allVehicles()
	for i := 0; i < nPer; i++ {
		n := 1 + rng.Intn(3)
		vals := make([]oodb.Value, 0, n)
		seen := map[oodb.OID]bool{}
		for len(vals) < n {
			v := all[rng.Intn(len(all))]
			if !seen[v] {
				seen[v] = true
				vals = append(vals, oodb.RefV(v))
			}
		}
		oid, err := st.Insert("Person", map[string][]oodb.Value{"owns": vals})
		if err != nil {
			t.Fatal(err)
		}
		f.persons = append(f.persons, oid)
	}
	return f
}

func (f *fixture) allVehicles() []oodb.OID {
	out := append([]oodb.OID(nil), f.vehicles...)
	out = append(out, f.buses...)
	return append(out, f.trucks...)
}

// naiveMatch computes ground truth by forward navigation: OIDs of objects
// of targetClass (optionally with subclasses) whose nested path value
// equals brand.
func (f *fixture) naiveMatch(t testing.TB, brand, targetClass string, hierarchy bool) []oodb.OID {
	t.Helper()
	classes := []string{targetClass}
	if hierarchy {
		classes = f.store.Schema().Hierarchy(targetClass)
	}
	var out []oodb.OID
	for _, cls := range classes {
		for _, oid := range f.store.OIDsOfClass(cls) {
			obj, _ := f.store.Peek(oid)
			if f.reaches(obj, cls, brand) {
				out = append(out, oid)
			}
		}
	}
	return oodb.SortUnique(out)
}

func (f *fixture) reaches(obj *oodb.Object, cls, brand string) bool {
	// Determine the object's level on the path.
	level := 0
	for l := 1; l <= f.path.Len(); l++ {
		for _, cn := range f.path.HierarchyAt(l) {
			if cn == cls {
				level = l
			}
		}
	}
	var walk func(o *oodb.Object, l int) bool
	walk = func(o *oodb.Object, l int) bool {
		if l == f.path.Len() {
			for _, v := range o.Values(f.path.Attr(l)) {
				if v.Kind == oodb.StrVal && v.Str == brand {
					return true
				}
			}
			return false
		}
		for _, r := range o.Refs(f.path.Attr(l)) {
			child, ok := f.store.Peek(r)
			if ok && walk(child, l+1) {
				return true
			}
		}
		return false
	}
	return walk(obj, level)
}

// buildIndex constructs a PathIndex of the given organization over the full
// path and loads every object bottom-up (children before parents, matching
// the forward-reference insertion order).
func (f *fixture) buildIndex(t testing.TB, org string) PathIndex {
	t.Helper()
	var ix PathIndex
	var err error
	ps := f.indexPage
	if ps == 0 {
		ps = 1024
	}
	switch org {
	case "MX":
		ix, err = NewMultiIndex(f.path, 1, f.path.Len(), ps)
	case "MIX":
		ix, err = NewMultiInheritedIndex(f.path, 1, f.path.Len(), ps)
	case "NIX":
		ix, err = NewNestedInheritedIndex(f.path, 1, f.path.Len(), ps)
	case "PX":
		ix, err = NewPathIndexPX(f.store, f.path, 1, f.path.Len(), ps)
	default:
		t.Fatalf("unknown org %s", org)
	}
	if err != nil {
		t.Fatal(err)
	}
	f.loadAll(t, ix)
	return ix
}

func (f *fixture) loadAll(t testing.TB, ix PathIndex) {
	t.Helper()
	for _, oid := range f.companies {
		obj, _ := f.store.Peek(oid)
		if err := ix.OnInsert(obj); err != nil {
			t.Fatal(err)
		}
	}
	for _, oid := range f.allVehicles() {
		obj, _ := f.store.Peek(oid)
		if err := ix.OnInsert(obj); err != nil {
			t.Fatal(err)
		}
	}
	for _, oid := range f.persons {
		obj, _ := f.store.Peek(oid)
		if err := ix.OnInsert(obj); err != nil {
			t.Fatal(err)
		}
	}
}

var allOrgs = []string{"MX", "MIX", "NIX", "PX"}

// lookup is a point LookupInto through a fresh scratch, sorted and
// deduplicated.
func lookup(ix PathIndex, key oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	out, err := ix.LookupInto(key, targetClass, hierarchy, nil, NewScratch())
	if err != nil {
		return nil, err
	}
	return oodb.SortUnique(out), nil
}

func TestLookupMatchesNaive(t *testing.T) {
	f := buildFixture(t, 1, 6, 40, 60)
	for _, org := range allOrgs {
		ix := f.buildIndex(t, org)
		for _, brand := range f.brands {
			for _, tc := range []struct {
				class     string
				hierarchy bool
			}{
				{"Person", false},
				{"Vehicle", false},
				{"Vehicle", true},
				{"Bus", false},
				{"Truck", false},
				{"Company", false},
			} {
				want := f.naiveMatch(t, brand, tc.class, tc.hierarchy)
				got, err := lookup(ix, oodb.StrV(brand), tc.class, tc.hierarchy)
				if err != nil {
					t.Fatalf("%s Lookup(%s,%s,h=%v): %v", org, brand, tc.class, tc.hierarchy, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s Lookup(%s, %s, h=%v) = %v, want %v", org, brand, tc.class, tc.hierarchy, got, want)
				}
			}
		}
	}
}

func TestLookupUnknownValue(t *testing.T) {
	f := buildFixture(t, 2, 3, 10, 10)
	for _, org := range allOrgs {
		ix := f.buildIndex(t, org)
		got, err := lookup(ix, oodb.StrV("no-such-brand"), "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("%s: unknown value returned %v", org, got)
		}
		if _, err := lookup(ix, oodb.StrV("x"), "Division", false); err == nil {
			t.Errorf("%s: out-of-scope class accepted", org)
		}
	}
}

func TestDeleteMaintainsLookups(t *testing.T) {
	for _, org := range allOrgs {
		f := buildFixture(t, 3, 5, 30, 40)
		ix := f.buildIndex(t, org)
		// Delete a person, a vehicle and a company (leaf-to-root order not
		// required; each maintains independently).
		rng := rand.New(rand.NewSource(7))
		delPerson := f.persons[rng.Intn(len(f.persons))]
		obj, _ := f.store.Peek(delPerson)
		if err := ix.OnDelete(obj); err != nil {
			t.Fatalf("%s OnDelete(person): %v", org, err)
		}
		if err := f.store.Delete(delPerson); err != nil {
			t.Fatal(err)
		}
		all := f.allVehicles()
		delVeh := all[rng.Intn(len(all))]
		vobj, _ := f.store.Peek(delVeh)
		if err := ix.OnDelete(vobj); err != nil {
			t.Fatalf("%s OnDelete(vehicle): %v", org, err)
		}
		if err := f.store.Delete(delVeh); err != nil {
			t.Fatal(err)
		}
		f.removeVehicle(delVeh)
		// Persons still referencing delVeh hold dangling refs; ground truth
		// navigation ignores them because Peek fails.
		for _, brand := range f.brands {
			for _, cls := range []string{"Person", "Vehicle", "Bus", "Company"} {
				want := f.naiveMatch(t, brand, cls, cls == "Vehicle")
				got, err := lookup(ix, oodb.StrV(brand), cls, cls == "Vehicle")
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s after deletes: Lookup(%s,%s) = %v, want %v", org, brand, cls, got, want)
				}
			}
		}
	}
}

func (f *fixture) removeVehicle(oid oodb.OID) {
	for _, s := range []*[]oodb.OID{&f.vehicles, &f.buses, &f.trucks} {
		for i, o := range *s {
			if o == oid {
				*s = append((*s)[:i], (*s)[i+1:]...)
				return
			}
		}
	}
}

func TestInsertAfterBuildMaintains(t *testing.T) {
	for _, org := range allOrgs {
		f := buildFixture(t, 4, 4, 20, 20)
		ix := f.buildIndex(t, org)
		// New company, new bus made by it, new person owning the bus.
		comp, _ := f.store.Insert("Company", map[string][]oodb.Value{"name": {oodb.StrV("brand-new")}})
		cobj, _ := f.store.Peek(comp)
		if err := ix.OnInsert(cobj); err != nil {
			t.Fatal(err)
		}
		bus, _ := f.store.Insert("Bus", map[string][]oodb.Value{"man": {oodb.RefV(comp)}})
		bobj, _ := f.store.Peek(bus)
		if err := ix.OnInsert(bobj); err != nil {
			t.Fatal(err)
		}
		per, _ := f.store.Insert("Person", map[string][]oodb.Value{"owns": {oodb.RefV(bus)}})
		pobj, _ := f.store.Peek(per)
		if err := ix.OnInsert(pobj); err != nil {
			t.Fatal(err)
		}
		got, err := lookup(ix, oodb.StrV("brand-new"), "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, []oodb.OID{per}) {
			t.Errorf("%s: Lookup(brand-new, Person) = %v, want [%d]", org, got, per)
		}
		got, err = lookup(ix, oodb.StrV("brand-new"), "Bus", false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, []oodb.OID{bus}) {
			t.Errorf("%s: Lookup(brand-new, Bus) = %v, want [%d]", org, got, bus)
		}
	}
}

func TestSubpathIndexWithOIDKeys(t *testing.T) {
	// Index only the head subpath Person.owns.man (levels 1..2); its key
	// domain is Company OIDs.
	f := buildFixture(t, 5, 4, 25, 30)
	for _, org := range allOrgs {
		var ix PathIndex
		var err error
		switch org {
		case "MX":
			ix, err = NewMultiIndex(f.path, 1, 2, 1024)
		case "MIX":
			ix, err = NewMultiInheritedIndex(f.path, 1, 2, 1024)
		case "NIX":
			ix, err = NewNestedInheritedIndex(f.path, 1, 2, 1024)
		case "PX":
			ix, err = NewPathIndexPX(f.store, f.path, 1, 2, 1024)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, oid := range f.allVehicles() {
			obj, _ := f.store.Peek(oid)
			if err := ix.OnInsert(obj); err != nil {
				t.Fatal(err)
			}
		}
		for _, oid := range f.persons {
			obj, _ := f.store.Peek(oid)
			if err := ix.OnInsert(obj); err != nil {
				t.Fatal(err)
			}
		}
		a, b := ix.Bounds()
		if a != 1 || b != 2 {
			t.Fatalf("%s bounds = %d,%d", org, a, b)
		}
		// Ground truth: persons owning a vehicle manufactured by company c.
		comp := f.companies[0]
		var want []oodb.OID
		for _, p := range f.persons {
			obj, _ := f.store.Peek(p)
		ownsLoop:
			for _, v := range obj.Refs("owns") {
				veh, _ := f.store.Peek(v)
				for _, m := range veh.Refs("man") {
					if m == comp {
						want = append(want, p)
						break ownsLoop
					}
				}
			}
		}
		want = oodb.SortUnique(want)
		got, err := lookup(ix, oodb.RefV(comp), "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s subpath lookup = %v, want %v", org, got, want)
		}
		// Boundary delete: company 0 dies; its key must disappear.
		if err := ix.BoundaryDelete(comp); err != nil {
			t.Fatal(err)
		}
		got, err = lookup(ix, oodb.RefV(comp), "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("%s after BoundaryDelete: %v", org, got)
		}
	}
}

func TestBoundaryDeleteOnEndingSubpathIsNoop(t *testing.T) {
	f := buildFixture(t, 6, 3, 10, 10)
	for _, org := range allOrgs {
		ix := f.buildIndex(t, org)
		if err := ix.BoundaryDelete(f.companies[0]); err != nil {
			t.Errorf("%s BoundaryDelete on path-ending subpath: %v", org, err)
		}
	}
}

func TestStatsCountAccesses(t *testing.T) {
	f := buildFixture(t, 7, 4, 30, 40)
	for _, org := range allOrgs {
		ix := f.buildIndex(t, org)
		ix.ResetStats()
		if _, err := lookup(ix, oodb.StrV(f.brands[0]), "Person", false); err != nil {
			t.Fatal(err)
		}
		s := ix.Stats()
		if s.Reads == 0 {
			t.Errorf("%s lookup counted no reads", org)
		}
		if s.Writes != 0 {
			t.Errorf("%s lookup wrote %d pages", org, s.Writes)
		}
	}
}

func TestOrgIdentities(t *testing.T) {
	f := buildFixture(t, 8, 2, 5, 5)
	mx := f.buildIndex(t, "MX")
	mix := f.buildIndex(t, "MIX")
	nix := f.buildIndex(t, "NIX")
	if mx.Org().String() != "MX" || mix.Org().String() != "MIX" || nix.Org().String() != "NIX" {
		t.Error("org identities wrong")
	}
}

func TestAttrIndexAsSIXAndIIX(t *testing.T) {
	// Section 2.2: a SIX on Vehicle.color indexes one class; an IIX covers
	// the hierarchy. Reproduces the color example of the paper.
	st, _ := oodb.NewStore(schema.PaperSchema(), 1024)
	comp, _ := st.Insert("Company", map[string][]oodb.Value{"name": {oodb.StrV("Fiat")}})
	veh1, _ := st.Insert("Vehicle", map[string][]oodb.Value{"color": {oodb.StrV("White")}, "man": {oodb.RefV(comp)}})
	veh2, _ := st.Insert("Vehicle", map[string][]oodb.Value{"color": {oodb.StrV("Red")}, "man": {oodb.RefV(comp)}})
	bus, _ := st.Insert("Bus", map[string][]oodb.Value{"color": {oodb.StrV("White")}, "man": {oodb.RefV(comp)}})

	pager := newTestPager(t)
	six, err := NewAttrIndex(pager, "six", "color", []string{"Vehicle"})
	if err != nil {
		t.Fatal(err)
	}
	iix, err := NewAttrIndex(pager, "iix", "color", []string{"Vehicle", "Bus", "Truck"})
	if err != nil {
		t.Fatal(err)
	}
	for _, oid := range []oodb.OID{veh1, veh2} {
		obj, _ := st.Peek(oid)
		if err := six.Add(obj); err != nil {
			t.Fatal(err)
		}
	}
	for _, oid := range []oodb.OID{veh1, veh2, bus} {
		obj, _ := st.Peek(oid)
		if err := iix.Add(obj); err != nil {
			t.Fatal(err)
		}
	}
	// SIX(White) = {veh1}; IIX(White) = {veh1, bus}.
	got, _ := six.Lookup(oodb.StrV("White"))
	if !reflect.DeepEqual(got, []oodb.OID{veh1}) {
		t.Errorf("SIX(White) = %v", got)
	}
	got, _ = iix.Lookup(oodb.StrV("White"))
	if !reflect.DeepEqual(got, []oodb.OID{veh1, bus}) {
		t.Errorf("IIX(White) = %v", got)
	}
	// SIX does not cover Bus.
	bobj, _ := st.Peek(bus)
	if err := six.Add(bobj); err == nil {
		t.Error("SIX accepted a Bus")
	}
	if six.Covers("Bus") || !six.Covers("Vehicle") {
		t.Error("Covers wrong")
	}
	if six.Attr() != "color" {
		t.Error("Attr wrong")
	}
	// Remove and empty-record cleanup.
	v1, _ := st.Peek(veh1)
	if err := six.Remove(v1); err != nil {
		t.Fatal(err)
	}
	got, _ = six.Lookup(oodb.StrV("White"))
	if len(got) != 0 {
		t.Errorf("after Remove: %v", got)
	}
	if six.Len() != 1 { // only Red remains
		t.Errorf("Len = %d, want 1", six.Len())
	}
	if err := six.Remove(bobj); err == nil {
		t.Error("Remove of uncovered class accepted")
	}
}

func TestOIDSetCodec(t *testing.T) {
	in := []oodb.OID{5, 1, 9, 3}
	enc := encodeOIDSet(in)
	out, err := decodeOIDSet(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []oodb.OID{1, 3, 5, 9}) {
		t.Errorf("round trip = %v", out)
	}
	if _, err := decodeOIDSet([]byte{1, 2}); err == nil {
		t.Error("truncated set accepted")
	}
	if _, err := decodeOIDSet([]byte{0, 0, 0, 9, 1}); err == nil {
		t.Error("short body accepted")
	}
	// add/remove
	b := addOID(nil, 7)
	b = addOID(b, 3)
	b = addOID(b, 7) // duplicate
	got, _ := decodeOIDSet(b)
	if !reflect.DeepEqual(got, []oodb.OID{3, 7}) {
		t.Errorf("addOID result = %v", got)
	}
	b = removeOID(b, 3)
	got, _ = decodeOIDSet(b)
	if !reflect.DeepEqual(got, []oodb.OID{7}) {
		t.Errorf("removeOID result = %v", got)
	}
	if removeOID(b, 7) != nil {
		t.Error("emptied set should be nil")
	}
	if removeOID(nil, 1) != nil {
		t.Error("removeOID(nil) should be nil")
	}
}

func TestEncodeValueDisjoint(t *testing.T) {
	cases := []oodb.Value{oodb.IntV(1), oodb.StrV("1"), oodb.RefV(1), oodb.IntV(-1), oodb.StrV("")}
	seen := map[string]bool{}
	for _, v := range cases {
		k := string(EncodeValue(v))
		if seen[k] {
			t.Errorf("key collision for %v", v)
		}
		seen[k] = true
	}
}

func TestNIXAuxTupleCodec(t *testing.T) {
	in := &auxTuple{
		parents:  []oodb.OID{2, 4},
		pointers: [][]byte{EncodeValue(oodb.StrV("Renault")), EncodeOID(9)},
	}
	out := &auxTuple{}
	if err := decodeAux(encodeAux(nil, in), out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.parents, in.parents) || !reflect.DeepEqual(out.pointers, in.pointers) {
		t.Fatalf("round trip = %+v", out)
	}
	if err := decodeAux([]byte{1}, &auxTuple{}); err == nil {
		t.Error("truncated tuple accepted")
	}
	// addParent dedupes and keeps the list ascending.
	out.addParent(4)
	out.addParent(1)
	if !reflect.DeepEqual(out.parents, []oodb.OID{1, 2, 4}) {
		t.Errorf("parents = %v", out.parents)
	}
	out.removeParent(2)
	if !reflect.DeepEqual(out.parents, []oodb.OID{1, 4}) {
		t.Errorf("parents = %v", out.parents)
	}
	// addPointer dedupes.
	n := len(out.pointers)
	out.addPointer(EncodeOID(9))
	if len(out.pointers) != n {
		t.Error("duplicate pointer added")
	}
	out.removePointer(EncodeOID(9))
	if len(out.pointers) != n-1 {
		t.Error("pointer not removed")
	}
}

func TestNIXFigure5(t *testing.T) {
	// Figure 5 of the paper: the NIX record for key 'Renault' on
	// Per.owns.man.name associates the value with the Company, the
	// vehicles it manufactures, and the persons owning them.
	st, _ := oodb.NewStore(schema.PaperSchema(), 1024)
	path := schema.MustNewPath(st.Schema(), "Person", "owns", "man", "name")
	nx, err := NewNestedInheritedIndex(path, 1, 3, 1024)
	if err != nil {
		t.Fatal(err)
	}
	renault, _ := st.Insert("Company", map[string][]oodb.Value{"name": {oodb.StrV("Renault")}})
	fiat, _ := st.Insert("Company", map[string][]oodb.Value{"name": {oodb.StrV("Fiat")}})
	vehI, _ := st.Insert("Vehicle", map[string][]oodb.Value{"man": {oodb.RefV(renault)}})
	vehJ, _ := st.Insert("Vehicle", map[string][]oodb.Value{"man": {oodb.RefV(renault)}})
	busI, _ := st.Insert("Bus", map[string][]oodb.Value{"man": {oodb.RefV(fiat)}})
	perO, _ := st.Insert("Person", map[string][]oodb.Value{"owns": {oodb.RefV(vehI), oodb.RefV(vehJ)}})
	perP, _ := st.Insert("Person", map[string][]oodb.Value{"owns": {oodb.RefV(vehJ), oodb.RefV(busI)}})
	for _, oid := range []oodb.OID{renault, fiat, vehI, vehJ, busI, perO, perP} {
		obj, _ := st.Peek(oid)
		if err := nx.OnInsert(obj); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := lookup(nx, oodb.StrV("Renault"), "Company", false)
	if !reflect.DeepEqual(got, []oodb.OID{renault}) {
		t.Errorf("Renault companies = %v", got)
	}
	got, _ = lookup(nx, oodb.StrV("Renault"), "Vehicle", true)
	if !reflect.DeepEqual(got, oodb.SortUnique([]oodb.OID{vehI, vehJ})) {
		t.Errorf("Renault vehicles = %v", got)
	}
	got, _ = lookup(nx, oodb.StrV("Renault"), "Person", false)
	if !reflect.DeepEqual(got, oodb.SortUnique([]oodb.OID{perO, perP})) {
		t.Errorf("Renault persons = %v", got)
	}
	got, _ = lookup(nx, oodb.StrV("Fiat"), "Person", false)
	if !reflect.DeepEqual(got, []oodb.OID{perP}) {
		t.Errorf("Fiat persons = %v", got)
	}
	// numchild semantics: perP owns vehJ (Renault) and busI (Fiat).
	// Deleting vehJ must keep perP under Renault only via... vehJ was its
	// only Renault vehicle, so perP leaves the Renault record; perO keeps
	// vehI.
	vobj, _ := st.Peek(vehJ)
	if err := nx.OnDelete(vobj); err != nil {
		t.Fatal(err)
	}
	got, _ = lookup(nx, oodb.StrV("Renault"), "Person", false)
	if !reflect.DeepEqual(got, []oodb.OID{perO}) {
		t.Errorf("Renault persons after deleting vehJ = %v", got)
	}
	got, _ = lookup(nx, oodb.StrV("Fiat"), "Person", false)
	if !reflect.DeepEqual(got, []oodb.OID{perP}) {
		t.Errorf("Fiat persons after deleting vehJ = %v", got)
	}
}

func TestNIXPartialReadCheaperThanFull(t *testing.T) {
	// With many persons per brand the primary record spans pages; reading
	// only the Company section must touch fewer pages than a Person query.
	f := buildFixture(t, 9, 2, 60, 400)
	nx := f.buildIndex(t, "NIX").(*NestedInheritedIndex)
	brand := f.brands[0]
	nx.ResetStats()
	if _, err := lookup(nx, oodb.StrV(brand), "Company", false); err != nil {
		t.Fatal(err)
	}
	companyReads := nx.Stats().Reads
	nx.ResetStats()
	if _, err := lookup(nx, oodb.StrV(brand), "Person", false); err != nil {
		t.Fatal(err)
	}
	personReads := nx.Stats().Reads
	if companyReads > personReads {
		t.Errorf("company section read (%d pages) costlier than person section (%d)", companyReads, personReads)
	}
}

func TestSubpathErrors(t *testing.T) {
	p := schema.PaperPathOwnsManName()
	if _, err := NewSubpath(nil, 1, 1); err == nil {
		t.Error("nil path accepted")
	}
	if _, err := NewSubpath(p, 0, 1); err == nil {
		t.Error("a=0 accepted")
	}
	if _, err := NewSubpath(p, 2, 1); err == nil {
		t.Error("a>b accepted")
	}
	if _, err := NewSubpath(p, 1, 4); err == nil {
		t.Error("b>n accepted")
	}
	sp, err := NewSubpath(p, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if l, ok := sp.LevelOf("Bus"); !ok || l != 2 {
		t.Errorf("LevelOf(Bus) = %d,%v", l, ok)
	}
	if _, ok := sp.LevelOf("Person"); ok {
		t.Error("Person should be outside subpath [2,3]")
	}
	if !sp.EndsPath() {
		t.Error("subpath [2,3] of length-3 path should end it")
	}
}
