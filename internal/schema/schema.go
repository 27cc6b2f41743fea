// Package schema models object-oriented database schemas as used in the
// paper "On the Selection of Optimal Index Configuration in OO Databases"
// (Choenni, Bertino, Blanken, Chang; ICDE 1994): classes with attributes,
// aggregation hierarchies (part-of relationships between classes), and
// inheritance hierarchies (subclass/superclass), plus paths over the
// aggregation hierarchy per Definition 2.1 of the paper.
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// AttrKind distinguishes atomic attributes (integers, strings, ...) from
// reference attributes whose domain is another class.
type AttrKind int

const (
	// Atomic marks an attribute with a primitive domain (int, string, ...).
	Atomic AttrKind = iota
	// Ref marks an attribute whose domain is a class, establishing a
	// part-of relationship in the aggregation hierarchy.
	Ref
)

// String returns the kind name.
func (k AttrKind) String() string {
	switch k {
	case Atomic:
		return "atomic"
	case Ref:
		return "ref"
	default:
		return fmt.Sprintf("AttrKind(%d)", int(k))
	}
}

// Attribute describes one attribute of a class. Domain names the primitive
// type for Atomic attributes and the referenced class for Ref attributes.
// MultiValued corresponds to the '+' marking in Figure 1 of the paper.
type Attribute struct {
	Name        string
	Kind        AttrKind
	Domain      string
	MultiValued bool
}

// Class is a node in both the aggregation hierarchy (through its Ref
// attributes) and the inheritance hierarchy (through Super).
type Class struct {
	Name  string
	Super string // superclass name, "" for a root class
	Attrs []Attribute
}

// Attr returns the attribute with the given name declared directly on the
// class (inherited attributes are resolved by Schema.ResolveAttr).
func (c *Class) Attr(name string) (Attribute, bool) {
	for _, a := range c.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return Attribute{}, false
}

// Schema is a collection of classes closed under inheritance and
// aggregation references.
type Schema struct {
	classes map[string]*Class
	order   []string // insertion order, for deterministic iteration
}

// New returns an empty schema.
func New() *Schema {
	return &Schema{classes: make(map[string]*Class)}
}

// AddClass registers a class. It returns an error if the name is empty or
// already taken.
func (s *Schema) AddClass(c *Class) error {
	if c == nil || c.Name == "" {
		return fmt.Errorf("schema: class must have a name")
	}
	if _, dup := s.classes[c.Name]; dup {
		return fmt.Errorf("schema: duplicate class %q", c.Name)
	}
	seen := make(map[string]bool, len(c.Attrs))
	for _, a := range c.Attrs {
		if a.Name == "" {
			return fmt.Errorf("schema: class %q has an unnamed attribute", c.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("schema: class %q declares attribute %q twice", c.Name, a.Name)
		}
		seen[a.Name] = true
	}
	s.classes[c.Name] = c
	s.order = append(s.order, c.Name)
	return nil
}

// MustAddClass is AddClass that panics on error; for statically known schemas.
func (s *Schema) MustAddClass(c *Class) {
	if err := s.AddClass(c); err != nil {
		panic(err)
	}
}

// Class returns the named class, or nil.
func (s *Schema) Class(name string) *Class { return s.classes[name] }

// Classes returns all class names in insertion order.
func (s *Schema) Classes() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// NumClasses returns the number of classes. Callers caching derived
// schema tables (e.g. resolved hierarchies) use it as a cheap staleness
// check: adding a class always increases the count.
func (s *Schema) NumClasses() int { return len(s.order) }

// Subclasses returns the direct subclasses of the named class, sorted.
func (s *Schema) Subclasses(name string) []string {
	var out []string
	for _, cn := range s.order {
		if s.classes[cn].Super == name {
			out = append(out, cn)
		}
	}
	sort.Strings(out)
	return out
}

// Hierarchy returns the inheritance hierarchy rooted at the named class:
// the root followed by all (transitive) subclasses, in breadth-first order.
// This is the paper's C*_{l,x} notation. The root itself is always first.
func (s *Schema) Hierarchy(root string) []string {
	if s.classes[root] == nil {
		return nil
	}
	out := []string{root}
	for i := 0; i < len(out); i++ {
		out = append(out, s.Subclasses(out[i])...)
	}
	return out
}

// IsSubclassOf reports whether class sub is root or a transitive subclass
// of root.
func (s *Schema) IsSubclassOf(sub, root string) bool {
	for cur := sub; cur != ""; {
		if cur == root {
			return true
		}
		c := s.classes[cur]
		if c == nil {
			return false
		}
		cur = c.Super
	}
	return false
}

// ResolveAttr looks up an attribute on a class, walking up the inheritance
// hierarchy (a subclass inherits the attributes of its superclass).
func (s *Schema) ResolveAttr(class, attr string) (Attribute, bool) {
	for cur := class; cur != ""; {
		c := s.classes[cur]
		if c == nil {
			return Attribute{}, false
		}
		if a, ok := c.Attr(attr); ok {
			return a, true
		}
		cur = c.Super
	}
	return Attribute{}, false
}

// Validate checks referential integrity of the schema: every superclass and
// every Ref attribute domain must name a known class, and the inheritance
// graph must be acyclic.
func (s *Schema) Validate() error {
	for _, cn := range s.order {
		c := s.classes[cn]
		if c.Super != "" && s.classes[c.Super] == nil {
			return fmt.Errorf("schema: class %q names unknown superclass %q", cn, c.Super)
		}
		for _, a := range c.Attrs {
			if a.Kind == Ref && s.classes[a.Domain] == nil {
				return fmt.Errorf("schema: attribute %s.%s references unknown class %q", cn, a.Name, a.Domain)
			}
		}
	}
	// Detect inheritance cycles.
	for _, cn := range s.order {
		slow, fast := cn, cn
		for {
			fast = s.superOf(s.superOf(fast))
			slow = s.superOf(slow)
			if fast == "" {
				break
			}
			if slow == fast {
				return fmt.Errorf("schema: inheritance cycle through class %q", cn)
			}
		}
	}
	return nil
}

func (s *Schema) superOf(name string) string {
	if name == "" {
		return ""
	}
	c := s.classes[name]
	if c == nil {
		return ""
	}
	return c.Super
}

// Path is a path C1.A1.A2...An over the aggregation hierarchy, per
// Definition 2.1: C1 is a class of the schema; A1 is an attribute of C1;
// each A_l (1 < l <= n) is an attribute of the class C_l that is the domain
// of A_{l-1}; and a class appears at most once along the path. NewPath
// reads "a class" with its subclasses, so the levels' inheritance
// hierarchies are disjoint and every class of scope(P) has one level.
type Path struct {
	schema  *Schema
	classes []string // C1..Cn, root class at each position
	attrs   []string // A1..An
	str     string   // C1.A1...An; a path never changes once built
}

// NewPath builds and validates a path starting at class start and following
// the named attributes. The last attribute may be atomic (the usual case:
// the "ending attribute" carries the predicate); all earlier attributes
// must be references.
func NewPath(s *Schema, start string, attrs ...string) (*Path, error) {
	if s == nil {
		return nil, fmt.Errorf("schema: nil schema")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("schema: path needs at least one attribute")
	}
	if s.Class(start) == nil {
		return nil, fmt.Errorf("schema: unknown starting class %q", start)
	}
	p := &Path{schema: s, classes: []string{start}, attrs: attrs}
	cur := start
	for i, an := range attrs {
		a, ok := s.ResolveAttr(cur, an)
		if !ok {
			return nil, fmt.Errorf("schema: class %q has no attribute %q", cur, an)
		}
		if i < len(attrs)-1 {
			if a.Kind != Ref {
				return nil, fmt.Errorf("schema: attribute %s.%s is atomic but is not the ending attribute", cur, an)
			}
			// A class, subclasses included, appears at most once: each
			// class of scope(P) then lives at exactly one level.
			next := a.Domain
			for l, c := range p.classes {
				if s.IsSubclassOf(next, c) || s.IsSubclassOf(c, next) {
					return nil, fmt.Errorf("schema: class %q at level %d shares an inheritance hierarchy with %q at level %d (Definition 2.1: a class appears at most once along a path)", next, len(p.classes)+1, c, l+1)
				}
			}
			p.classes = append(p.classes, next)
			cur = next
		}
	}
	p.str = render(p.classes[0], p.attrs)
	return p, nil
}

// MustNewPath is NewPath that panics on error.
func MustNewPath(s *Schema, start string, attrs ...string) *Path {
	p, err := NewPath(s, start, attrs...)
	if err != nil {
		panic(err)
	}
	return p
}

// Schema returns the schema the path is defined over.
func (p *Path) Schema() *Schema { return p.schema }

// Len returns len(P): the number of classes along the path.
func (p *Path) Len() int { return len(p.classes) }

// Class returns the root class at 1-based position l (C_l).
func (p *Path) Class(l int) string { return p.classes[l-1] }

// Attr returns the attribute at 1-based position l (A_l).
func (p *Path) Attr(l int) string { return p.attrs[l-1] }

// EndingAttr returns A_n, the attribute predicates are evaluated against.
func (p *Path) EndingAttr() string { return p.attrs[len(p.attrs)-1] }

// StartingClass returns C_1.
func (p *Path) StartingClass() string { return p.classes[0] }

// ClassSet returns class(P): the root classes along the path.
func (p *Path) ClassSet() []string {
	out := make([]string, len(p.classes))
	copy(out, p.classes)
	return out
}

// Scope returns scope(P): every class in class(P) plus all their
// subclasses, in path order then hierarchy order.
func (p *Path) Scope() []string {
	var out []string
	for _, c := range p.classes {
		out = append(out, p.schema.Hierarchy(c)...)
	}
	return out
}

// HierarchyAt returns the inheritance hierarchy of the class at 1-based
// position l: C_l followed by its subclasses.
func (p *Path) HierarchyAt(l int) []string { return p.schema.Hierarchy(p.classes[l-1]) }

// MultiValuedAt reports whether attribute A_l is multi-valued.
func (p *Path) MultiValuedAt(l int) bool {
	a, ok := p.schema.ResolveAttr(p.classes[l-1], p.attrs[l-1])
	return ok && a.MultiValued
}

// SubPath returns the subpath C_a.A_a...A_b for 1 <= a <= b <= n. The
// result shares the schema but is a valid Path in its own right.
func (p *Path) SubPath(a, b int) (*Path, error) {
	if a < 1 || b > p.Len() || a > b {
		return nil, fmt.Errorf("schema: invalid subpath bounds [%d,%d] for path of length %d", a, b, p.Len())
	}
	return &Path{
		schema:  p.schema,
		classes: p.classes[a-1 : b],
		attrs:   p.attrs[a-1 : b],
		str:     render(p.classes[a-1], p.attrs[a-1:b]),
	}, nil
}

// SubPaths enumerates all n(n+1)/2 subpaths as (a,b) 1-based index pairs,
// ordered by increasing starting position then increasing ending position.
func (p *Path) SubPaths() [][2]int {
	n := p.Len()
	out := make([][2]int, 0, n*(n+1)/2)
	for a := 1; a <= n; a++ {
		for b := a; b <= n; b++ {
			out = append(out, [2]int{a, b})
		}
	}
	return out
}

// String renders the path in the paper's C1.A1.A2...An notation, built
// once with the path.
func (p *Path) String() string { return p.str }

// render is the C1.A1.A2...An notation of a path starting at start.
func render(start string, attrs []string) string {
	return start + "." + strings.Join(attrs, ".")
}

// PaperSchema builds the Figure 1 schema of the paper: Person owns a
// Vehicle (with subclasses Bus and Truck), manufactured by a Company with
// Divisions. Atomic attributes match the figure.
func PaperSchema() *Schema {
	s := New()
	s.MustAddClass(&Class{Name: "Person", Attrs: []Attribute{
		{Name: "name", Kind: Atomic, Domain: "string"},
		{Name: "age", Kind: Atomic, Domain: "integer"},
		{Name: "residence", Kind: Atomic, Domain: "string"},
		{Name: "owns", Kind: Ref, Domain: "Vehicle", MultiValued: true},
	}})
	s.MustAddClass(&Class{Name: "Vehicle", Attrs: []Attribute{
		{Name: "id", Kind: Atomic, Domain: "integer"},
		{Name: "color", Kind: Atomic, Domain: "string"},
		{Name: "weight", Kind: Atomic, Domain: "integer"},
		{Name: "max-speed", Kind: Atomic, Domain: "integer"},
		{Name: "man", Kind: Ref, Domain: "Company"},
	}})
	s.MustAddClass(&Class{Name: "Bus", Super: "Vehicle", Attrs: []Attribute{
		{Name: "height", Kind: Atomic, Domain: "integer"},
		{Name: "seats", Kind: Atomic, Domain: "integer"},
	}})
	s.MustAddClass(&Class{Name: "Truck", Super: "Vehicle", Attrs: []Attribute{
		{Name: "capacity", Kind: Atomic, Domain: "integer"},
		{Name: "availability", Kind: Atomic, Domain: "string"},
	}})
	s.MustAddClass(&Class{Name: "Company", Attrs: []Attribute{
		{Name: "name", Kind: Atomic, Domain: "string"},
		{Name: "location", Kind: Atomic, Domain: "string"},
		{Name: "divs", Kind: Ref, Domain: "Division", MultiValued: true},
	}})
	s.MustAddClass(&Class{Name: "Division", Attrs: []Attribute{
		{Name: "name", Kind: Atomic, Domain: "string"},
		{Name: "movings", Kind: Atomic, Domain: "integer"},
	}})
	if err := s.Validate(); err != nil {
		panic("schema: paper schema invalid: " + err.Error())
	}
	return s
}

// PaperPathOwnsManName returns P_e = Person.owns.man.name (length 3).
func PaperPathOwnsManName() *Path {
	return MustNewPath(PaperSchema(), "Person", "owns", "man", "name")
}

// PaperPathOwnsManDivsName returns P_exa = Person.owns.man.divs.name
// (length 4), the path of Example 5.1.
func PaperPathOwnsManDivsName() *Path {
	return MustNewPath(PaperSchema(), "Person", "owns", "man", "divs", "name")
}
