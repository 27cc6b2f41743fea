package schema

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPaperSchema(t *testing.T) {
	s := PaperSchema()
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for _, name := range []string{"Person", "Vehicle", "Bus", "Truck", "Company", "Division"} {
		if s.Class(name) == nil {
			t.Errorf("missing class %q", name)
		}
	}
	if got := s.Subclasses("Vehicle"); len(got) != 2 || got[0] != "Bus" || got[1] != "Truck" {
		t.Errorf("Subclasses(Vehicle) = %v, want [Bus Truck]", got)
	}
	if got := s.Hierarchy("Vehicle"); len(got) != 3 || got[0] != "Vehicle" {
		t.Errorf("Hierarchy(Vehicle) = %v", got)
	}
	if got := s.Hierarchy("Person"); len(got) != 1 {
		t.Errorf("Hierarchy(Person) = %v, want just [Person]", got)
	}
}

func TestPaperSchemaAttributes(t *testing.T) {
	s := PaperSchema()
	a, ok := s.ResolveAttr("Person", "owns")
	if !ok || a.Kind != Ref || a.Domain != "Vehicle" || !a.MultiValued {
		t.Errorf("Person.owns = %+v ok=%v", a, ok)
	}
	// Bus inherits man from Vehicle.
	a, ok = s.ResolveAttr("Bus", "man")
	if !ok || a.Domain != "Company" {
		t.Errorf("Bus.man (inherited) = %+v ok=%v", a, ok)
	}
	// Truck has its own capacity.
	if _, ok := s.ResolveAttr("Truck", "capacity"); !ok {
		t.Error("Truck.capacity missing")
	}
	// Vehicle does not have capacity.
	if _, ok := s.ResolveAttr("Vehicle", "capacity"); ok {
		t.Error("Vehicle.capacity should not resolve")
	}
}

func TestIsSubclassOf(t *testing.T) {
	s := PaperSchema()
	cases := []struct {
		sub, root string
		want      bool
	}{
		{"Bus", "Vehicle", true},
		{"Truck", "Vehicle", true},
		{"Vehicle", "Vehicle", true},
		{"Vehicle", "Bus", false},
		{"Person", "Vehicle", false},
		{"nosuch", "Vehicle", false},
	}
	for _, c := range cases {
		if got := s.IsSubclassOf(c.sub, c.root); got != c.want {
			t.Errorf("IsSubclassOf(%q,%q) = %v, want %v", c.sub, c.root, got, c.want)
		}
	}
}

func TestPathExample21(t *testing.T) {
	// Example 2.1 of the paper: P_e = Per.owns.man.name.
	p := PaperPathOwnsManName()
	if got := p.Len(); got != 3 {
		t.Errorf("len(P_e) = %d, want 3", got)
	}
	if got := p.ClassSet(); got[0] != "Person" || got[1] != "Vehicle" || got[2] != "Company" {
		t.Errorf("class(P_e) = %v", got)
	}
	scope := p.Scope()
	want := []string{"Person", "Vehicle", "Bus", "Truck", "Company"}
	if len(scope) != len(want) {
		t.Fatalf("scope(P_e) = %v, want %v", scope, want)
	}
	for i := range want {
		if scope[i] != want[i] {
			t.Errorf("scope[%d] = %q, want %q", i, scope[i], want[i])
		}
	}
	if got := p.String(); got != "Person.owns.man.name" {
		t.Errorf("String = %q", got)
	}
	if got := p.EndingAttr(); got != "name" {
		t.Errorf("EndingAttr = %q", got)
	}
}

func TestPathRejectsRepeatedClass(t *testing.T) {
	s := New()
	s.MustAddClass(&Class{Name: "A", Attrs: []Attribute{{Name: "b", Kind: Ref, Domain: "B"}}})
	s.MustAddClass(&Class{Name: "B", Attrs: []Attribute{{Name: "a", Kind: Ref, Domain: "A"}}})
	if _, err := NewPath(s, "A", "b", "a", "b"); err == nil {
		t.Error("expected error for class appearing twice in path")
	}
}

// TestPathRejectsOverlappingHierarchies: a class and its subclass at two
// levels would put the subclass in both levels' hierarchies, and the
// level resolvers would have to pick one (Definition 2.1 forbids it).
// Sibling subclasses do not overlap.
func TestPathRejectsOverlappingHierarchies(t *testing.T) {
	s := New()
	s.MustAddClass(&Class{Name: "Employee", Attrs: []Attribute{
		{Name: "name", Kind: Atomic},
		{Name: "boss", Kind: Ref, Domain: "Manager"},
	}})
	s.MustAddClass(&Class{Name: "Manager", Super: "Employee", Attrs: []Attribute{
		{Name: "deputy", Kind: Ref, Domain: "Employee"},
		{Name: "assistant", Kind: Ref, Domain: "Clerk"},
	}})
	s.MustAddClass(&Class{Name: "Clerk", Super: "Employee"})
	for _, attrs := range [][]string{
		{"Employee", "boss", "name"},      // subclass below its superclass
		{"Manager", "deputy", "name"},     // superclass below its subclass
		{"Clerk", "boss", "boss", "name"}, // the same subclass twice
	} {
		_, err := NewPath(s, attrs[0], attrs[1:]...)
		if err == nil || !strings.Contains(err.Error(), "Definition 2.1") {
			t.Errorf("%v: got %v, want a Definition 2.1 rejection", attrs, err)
		}
	}
	if _, err := NewPath(s, "Manager", "assistant", "name"); err != nil {
		t.Errorf("sibling subclasses rejected: %v", err)
	}
}

func TestPathRejectsAtomicMidway(t *testing.T) {
	s := PaperSchema()
	if _, err := NewPath(s, "Person", "age", "man"); err == nil {
		t.Error("expected error for atomic attribute midway")
	}
	if _, err := NewPath(s, "Person", "nosuch"); err == nil {
		t.Error("expected error for unknown attribute")
	}
	if _, err := NewPath(s, "Nobody", "owns"); err == nil {
		t.Error("expected error for unknown starting class")
	}
	if _, err := NewPath(s, "Person"); err == nil {
		t.Error("expected error for empty attribute list")
	}
}

func TestSubPath(t *testing.T) {
	p := PaperPathOwnsManDivsName()
	if p.Len() != 4 {
		t.Fatalf("len = %d, want 4", p.Len())
	}
	sp, err := p.SubPath(2, 3)
	if err != nil {
		t.Fatalf("SubPath(2,3): %v", err)
	}
	if got := sp.String(); got != "Vehicle.man.divs" {
		t.Errorf("SubPath(2,3) = %q", got)
	}
	if sp.Len() != 2 {
		t.Errorf("subpath len = %d, want 2", sp.Len())
	}
	if _, err := p.SubPath(3, 2); err == nil {
		t.Error("expected error for inverted bounds")
	}
	if _, err := p.SubPath(0, 2); err == nil {
		t.Error("expected error for a=0")
	}
	if _, err := p.SubPath(1, 5); err == nil {
		t.Error("expected error for b>n")
	}
}

func TestSubPathsCount(t *testing.T) {
	// A path of length n has n(n+1)/2 subpaths (Section 5).
	p := PaperPathOwnsManDivsName()
	subs := p.SubPaths()
	n := p.Len()
	if want := n * (n + 1) / 2; len(subs) != want {
		t.Errorf("got %d subpaths, want %d", len(subs), want)
	}
	seen := map[[2]int]bool{}
	for _, ab := range subs {
		if ab[0] < 1 || ab[1] > n || ab[0] > ab[1] {
			t.Errorf("invalid subpath bounds %v", ab)
		}
		if seen[ab] {
			t.Errorf("duplicate subpath %v", ab)
		}
		seen[ab] = true
	}
}

func TestSubPathsCountProperty(t *testing.T) {
	// Property: for any path length n (built on a synthetic chain schema),
	// the subpath count is exactly n(n+1)/2.
	f := func(raw uint8) bool {
		n := int(raw%7) + 1
		s := New()
		names := make([]string, n+1)
		for i := 0; i <= n; i++ {
			names[i] = "C" + string(rune('0'+i))
		}
		for i := 0; i <= n; i++ {
			attrs := []Attribute{{Name: "v", Kind: Atomic, Domain: "integer"}}
			if i < n {
				attrs = append(attrs, Attribute{Name: "next", Kind: Ref, Domain: names[i+1]})
			}
			s.MustAddClass(&Class{Name: names[i], Attrs: attrs})
		}
		attrs := make([]string, 0, n)
		for i := 0; i < n-1; i++ {
			attrs = append(attrs, "next")
		}
		attrs = append(attrs, "v")
		p, err := NewPath(s, names[0], attrs...)
		if err != nil {
			return false
		}
		return len(p.SubPaths()) == n*(n+1)/2 && p.Len() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesBadRefs(t *testing.T) {
	s := New()
	s.MustAddClass(&Class{Name: "A", Attrs: []Attribute{{Name: "x", Kind: Ref, Domain: "Ghost"}}})
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "Ghost") {
		t.Errorf("Validate = %v, want unknown-class error", err)
	}

	s2 := New()
	s2.MustAddClass(&Class{Name: "A", Super: "Missing"})
	if err := s2.Validate(); err == nil {
		t.Error("Validate should reject unknown superclass")
	}
}

func TestValidateCatchesInheritanceCycle(t *testing.T) {
	s := New()
	s.MustAddClass(&Class{Name: "A", Super: "B"})
	s.MustAddClass(&Class{Name: "B", Super: "A"})
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("Validate = %v, want cycle error", err)
	}
}

func TestAddClassErrors(t *testing.T) {
	s := New()
	if err := s.AddClass(nil); err == nil {
		t.Error("AddClass(nil) should fail")
	}
	if err := s.AddClass(&Class{}); err == nil {
		t.Error("AddClass unnamed should fail")
	}
	s.MustAddClass(&Class{Name: "A"})
	if err := s.AddClass(&Class{Name: "A"}); err == nil {
		t.Error("duplicate AddClass should fail")
	}
	if err := s.AddClass(&Class{Name: "B", Attrs: []Attribute{{Name: "x"}, {Name: "x"}}}); err == nil {
		t.Error("duplicate attribute should fail")
	}
	if err := s.AddClass(&Class{Name: "C", Attrs: []Attribute{{Name: ""}}}); err == nil {
		t.Error("unnamed attribute should fail")
	}
}

func TestMultiValuedAt(t *testing.T) {
	p := PaperPathOwnsManDivsName()
	want := []bool{true, false, true, false} // owns+, man, divs+, name
	for l := 1; l <= 4; l++ {
		if got := p.MultiValuedAt(l); got != want[l-1] {
			t.Errorf("MultiValuedAt(%d) = %v, want %v", l, got, want[l-1])
		}
	}
}

func TestHierarchyAt(t *testing.T) {
	p := PaperPathOwnsManDivsName()
	h := p.HierarchyAt(2)
	if len(h) != 3 || h[0] != "Vehicle" {
		t.Errorf("HierarchyAt(2) = %v", h)
	}
	if h := p.HierarchyAt(1); len(h) != 1 || h[0] != "Person" {
		t.Errorf("HierarchyAt(1) = %v", h)
	}
}

func TestAttrKindString(t *testing.T) {
	if Atomic.String() != "atomic" || Ref.String() != "ref" {
		t.Error("kind names wrong")
	}
	if got := AttrKind(9).String(); got != "AttrKind(9)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestClassesInsertionOrder(t *testing.T) {
	s := New()
	for _, n := range []string{"C", "A", "B"} {
		s.MustAddClass(&Class{Name: n})
	}
	got := s.Classes()
	if len(got) != 3 || got[0] != "C" || got[1] != "A" || got[2] != "B" {
		t.Errorf("Classes = %v, want insertion order", got)
	}
	// The returned slice is a copy.
	got[0] = "X"
	if s.Classes()[0] != "C" {
		t.Error("Classes returned aliased storage")
	}
}

func TestPathAccessors(t *testing.T) {
	p := PaperPathOwnsManDivsName()
	if p.Schema() == nil {
		t.Error("Schema nil")
	}
	if p.StartingClass() != "Person" {
		t.Errorf("StartingClass = %q", p.StartingClass())
	}
	if p.Class(3) != "Company" || p.Attr(3) != "divs" {
		t.Errorf("Class(3)/Attr(3) = %q/%q", p.Class(3), p.Attr(3))
	}
	cs := p.ClassSet()
	cs[0] = "Mutated"
	if p.Class(1) != "Person" {
		t.Error("ClassSet returned aliased storage")
	}
}

func TestMustPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustAddClass did not panic on duplicate")
			}
		}()
		s := New()
		s.MustAddClass(&Class{Name: "A"})
		s.MustAddClass(&Class{Name: "A"})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustNewPath did not panic on bad path")
			}
		}()
		MustNewPath(PaperSchema(), "Person", "nosuch")
	}()
}

// TestPathStringAllocs pins String as a read of the notation built with
// the path: the planner asks for it once per leaf it compiles and
// records.
func TestPathStringAllocs(t *testing.T) {
	p := PaperPathOwnsManDivsName()
	sub, err := p.SubPath(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "Person.owns.man.divs.name" || sub.String() != "Vehicle.man.divs" {
		t.Fatalf("String() = %q, %q", p.String(), sub.String())
	}
	var got [2]string
	if n := testing.AllocsPerRun(100, func() { got = [2]string{p.String(), sub.String()} }); n != 0 {
		t.Fatalf("String allocates %.0f objects per call (%q)", n, got)
	}
}
