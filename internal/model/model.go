// Package model holds the statistical and workload models of the paper
// (Section 3, Table 2 and Section 3.2): per-class cardinalities, numbers of
// distinct attribute values, attribute fan-outs, the physical parameters of
// the storage system, and the load distribution over the classes of a path.
//
// Symbols (Table 2 of the paper):
//
//	n_{l,x}   number of objects in class C_{l,x}
//	d_{l,x}   number of distinct values of attribute A_l in class C_{l,x}
//	nin_{l,x} average number of values held by A_l per object of C_{l,x}
//	k_{l,x}   average number of objects of C_{l,x} sharing a value of A_l
//	          (= n_{l,x} * nin_{l,x} / d_{l,x})
//	p         page size in bytes
package model

import (
	"fmt"
	"math"

	"repro/internal/schema"
)

// Params are the physical parameters of the storage system used by the
// analytic cost models. All sizes are in bytes.
type Params struct {
	PageSize  int // p, the page size
	OidLen    int // length of an object identifier
	KeyLen    int // length of an attribute value in an index record
	PtrLen    int // length of a physical page pointer
	CountLen  int // length of the numchild counter in NIX records
	OffsetLen int // length of one class-directory entry in a NIX record
	RecHeader int // fixed per-record overhead (key + bookkeeping)
}

// DefaultParams returns parameters representative of the paper's era scaled
// to a modern 4 KiB page: 8-byte OIDs, keys and pointers.
func DefaultParams() Params {
	return Params{
		PageSize:  4096,
		OidLen:    8,
		KeyLen:    8,
		PtrLen:    8,
		CountLen:  4,
		OffsetLen: 12,
		RecHeader: 16,
	}
}

// PaperParams returns parameters calibrated to the paper's 1994 setting:
// 1 KiB pages with 8-byte OIDs, keys and pointers. With these parameters
// the selection on the Figure 7 statistics reproduces the optimal
// configuration of Example 5.1 exactly — {(Per.owns.man, NIX),
// (Comp.divs.name, MX)} found after exploring 4 of the 8 recombinations —
// see DESIGN.md §6 and `ixbench -run fig8`.
func PaperParams() Params {
	return Params{
		PageSize:  1024,
		OidLen:    8,
		KeyLen:    8,
		PtrLen:    8,
		CountLen:  4,
		OffsetLen: 12,
		RecHeader: 16,
	}
}

// Validate checks the parameters for plausibility.
func (p Params) Validate() error {
	if p.PageSize < 64 {
		return fmt.Errorf("model: page size %d too small", p.PageSize)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"OidLen", p.OidLen}, {"KeyLen", p.KeyLen}, {"PtrLen", p.PtrLen},
		{"CountLen", p.CountLen}, {"OffsetLen", p.OffsetLen}, {"RecHeader", p.RecHeader}} {
		if f.v <= 0 {
			return fmt.Errorf("model: %s must be positive, got %d", f.name, f.v)
		}
	}
	if p.KeyLen+p.PtrLen >= p.PageSize {
		return fmt.Errorf("model: page size %d cannot hold a single (key,ptr) pair", p.PageSize)
	}
	return nil
}

// ClassStats are the statistics of one class C_{l,x} with respect to the
// path attribute A_l.
type ClassStats struct {
	Class string  // class name
	N     float64 // n_{l,x}: number of objects
	D     float64 // d_{l,x}: distinct values of A_l in the class
	NIN   float64 // nin_{l,x}: average values of A_l per object (1 if single-valued)
}

// K returns k_{l,x} = n*nin/d, the average number of objects of the class
// sharing one value of the path attribute. Zero if D is zero.
func (c ClassStats) K() float64 {
	if c.D <= 0 {
		return 0
	}
	return c.N * c.NIN / c.D
}

// Validate checks the statistics for plausibility.
func (c ClassStats) Validate() error {
	if c.Class == "" {
		return fmt.Errorf("model: class stats without class name")
	}
	if !countable(c.N) || !countable(c.D) || !countable(c.NIN) {
		return fmt.Errorf("model: class %q has negative or non-finite statistics (n=%g d=%g nin=%g)", c.Class, c.N, c.D, c.NIN)
	}
	if c.D > c.N*c.NIN && c.N > 0 {
		return fmt.Errorf("model: class %q has more distinct values (%g) than attribute instances (%g)", c.Class, c.D, c.N*c.NIN)
	}
	return nil
}

// countable reports whether v is a finite, non-negative number: what every
// statistic and frequency must be (NaN fails both comparisons).
func countable(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

// Load is the workload triplet of Section 3.2 for one class: the frequency
// of queries against the ending attribute with respect to the class (Alpha),
// and the frequencies of insertions (Beta) and deletions (Gamma) on the
// class. Frequencies are relative weights; they need not sum to one.
//
// Rho extends the triplet with an explicit range-query frequency: where
// Alpha's queries are priced per the path's Selectivity switch (all
// equality, or all range), Rho's are always priced as range predicates —
// so one class can carry a mixed equality/range workload, which is what
// an observed predicate mix (stats.Workload.Predicates) produces. A zero
// Rho everywhere is exactly the original model.
type Load struct {
	Alpha float64 // query frequency
	Beta  float64 // insertion frequency
	Gamma float64 // deletion frequency
	Rho   float64 // range-query frequency (always range-priced)
}

// Add returns the component-wise sum of two loads.
func (l Load) Add(o Load) Load {
	return Load{Alpha: l.Alpha + o.Alpha, Beta: l.Beta + o.Beta, Gamma: l.Gamma + o.Gamma, Rho: l.Rho + o.Rho}
}

// LevelStats bundles the statistics of the inheritance hierarchy at one
// path position: the root class C_l first, then its subclasses (the paper's
// C*_l). Loads run parallel to Classes.
type LevelStats struct {
	Classes []ClassStats
	Loads   []Load
}

// NC returns nc_l, the number of classes in the hierarchy at this level.
func (ls LevelStats) NC() int { return len(ls.Classes) }

// KStar returns the sum of k_{l,x} over the hierarchy: the expected number
// of level-l objects (across all classes of the hierarchy) holding a given
// value of A_l.
func (ls LevelStats) KStar() float64 {
	var s float64
	for _, c := range ls.Classes {
		s += c.K()
	}
	return s
}

// NTotal returns the total number of objects in the hierarchy.
func (ls LevelStats) NTotal() float64 {
	var s float64
	for _, c := range ls.Classes {
		s += c.N
	}
	return s
}

// DMax returns the number of distinct values of A_l across the hierarchy,
// estimated as the maximum per-class count (value sets of subclasses are
// assumed to overlap the root's domain; see DESIGN.md §3.5).
func (ls LevelStats) DMax() float64 {
	var m float64
	for _, c := range ls.Classes {
		if c.D > m {
			m = c.D
		}
	}
	return m
}

// NINAvg returns the object-weighted average fan-out nin across the
// hierarchy (1 if the hierarchy is empty).
func (ls LevelStats) NINAvg() float64 {
	var num, den float64
	for _, c := range ls.Classes {
		num += c.N * c.NIN
		den += c.N
	}
	if den == 0 {
		return 1
	}
	return num / den
}

// TotalLoad returns the summed load over the hierarchy.
func (ls LevelStats) TotalLoad() Load {
	var t Load
	for _, l := range ls.Loads {
		t = t.Add(l)
	}
	return t
}

// PathStats couples a path with per-level statistics and workload. Level l
// (1-based) describes the hierarchy rooted at C_l and attribute A_l.
type PathStats struct {
	Path   *schema.Path
	Levels []LevelStats // len == Path.Len()
	Params Params
	// Selectivity, when positive, declares the workload's queries to be
	// range predicates over the ending attribute matching this fraction of
	// its distinct values (Section 3's range-predicate extension). Zero
	// means equality predicates.
	Selectivity float64
}

// DefaultRangeSelectivity is the range-predicate selectivity assumed when
// a workload carries range-query frequency (Load.Rho) but the path
// declares none (PathStats.Selectivity zero): the fraction of the ending
// attribute's distinct values a typical observed range is taken to match.
// Deliberately small — it mirrors the cold estimate a planner starts a
// range probe with before cardinality feedback arrives.
const DefaultRangeSelectivity = 0.05

// Clone returns a deep copy of the statistics: levels, class lists and
// load triplets are copied, so reweighting the clone (e.g. merging an
// observed workload in) never mutates the original. The Path pointer is
// shared — paths are immutable.
func (ps *PathStats) Clone() *PathStats {
	out := &PathStats{Path: ps.Path, Params: ps.Params, Selectivity: ps.Selectivity}
	out.Levels = make([]LevelStats, len(ps.Levels))
	for i, ls := range ps.Levels {
		out.Levels[i].Classes = append([]ClassStats(nil), ls.Classes...)
		out.Levels[i].Loads = append([]Load(nil), ls.Loads...)
	}
	return out
}

// NewPathStats builds a PathStats skeleton with hierarchy class lists
// pre-populated from the schema (statistics zeroed, to be filled by the
// caller via SetClass / SetLoad).
func NewPathStats(p *schema.Path, params Params) *PathStats {
	ps := &PathStats{Path: p, Params: params}
	for l := 1; l <= p.Len(); l++ {
		var ls LevelStats
		for _, cn := range p.HierarchyAt(l) {
			ls.Classes = append(ls.Classes, ClassStats{Class: cn, NIN: 1})
			ls.Loads = append(ls.Loads, Load{})
		}
		ps.Levels = append(ps.Levels, ls)
	}
	return ps
}

// Len returns the path length n.
func (ps *PathStats) Len() int { return len(ps.Levels) }

// Level returns the statistics of 1-based level l.
func (ps *PathStats) Level(l int) *LevelStats { return &ps.Levels[l-1] }

// classIndex locates a class within a level's hierarchy.
func (ps *PathStats) classIndex(l int, class string) (int, error) {
	for i, c := range ps.Levels[l-1].Classes {
		if c.Class == class {
			return i, nil
		}
	}
	return 0, fmt.Errorf("model: class %q not in hierarchy at level %d of %s", class, l, ps.Path)
}

// SetClass sets the statistics of a class at level l. The class must belong
// to the hierarchy of C_l.
func (ps *PathStats) SetClass(l int, cs ClassStats) error {
	if l < 1 || l > ps.Len() {
		return fmt.Errorf("model: level %d out of range", l)
	}
	if err := cs.Validate(); err != nil {
		return err
	}
	i, err := ps.classIndex(l, cs.Class)
	if err != nil {
		return err
	}
	ps.Levels[l-1].Classes[i] = cs
	return nil
}

// SetLoad sets the workload triplet of a class at level l.
func (ps *PathStats) SetLoad(l int, class string, load Load) error {
	if l < 1 || l > ps.Len() {
		return fmt.Errorf("model: level %d out of range", l)
	}
	i, err := ps.classIndex(l, class)
	if err != nil {
		return err
	}
	ps.Levels[l-1].Loads[i] = load
	return nil
}

// MustSet is SetClass+SetLoad combined, panicking on error; for statically
// known setups such as the paper's Figure 7.
func (ps *PathStats) MustSet(l int, cs ClassStats, load Load) {
	if err := ps.SetClass(l, cs); err != nil {
		panic(err)
	}
	if err := ps.SetLoad(l, cs.Class, load); err != nil {
		panic(err)
	}
}

// Validate checks the whole statistics object.
func (ps *PathStats) Validate() error {
	if ps.Path == nil {
		return fmt.Errorf("model: nil path")
	}
	if err := ps.Params.Validate(); err != nil {
		return err
	}
	if len(ps.Levels) != ps.Path.Len() {
		return fmt.Errorf("model: %d levels for path of length %d", len(ps.Levels), ps.Path.Len())
	}
	if !(ps.Selectivity >= 0 && ps.Selectivity <= 1) {
		return fmt.Errorf("model: selectivity %g outside [0,1]", ps.Selectivity)
	}
	for l := 1; l <= ps.Len(); l++ {
		ls := ps.Level(l)
		if len(ls.Classes) == 0 {
			return fmt.Errorf("model: level %d has no classes", l)
		}
		if len(ls.Loads) != len(ls.Classes) {
			return fmt.Errorf("model: level %d has %d loads for %d classes", l, len(ls.Loads), len(ls.Classes))
		}
		for x, c := range ls.Classes {
			if err := c.Validate(); err != nil {
				return fmt.Errorf("model: level %d: %w", l, err)
			}
			if ld := ls.Loads[x]; !countable(ld.Alpha) || !countable(ld.Beta) || !countable(ld.Gamma) || !countable(ld.Rho) {
				return fmt.Errorf("model: level %d: class %q has a negative or non-finite load %+v", l, c.Class, ld)
			}
		}
	}
	return nil
}

// ExpectedNonEmpty implements the balls-into-bins estimator used for the
// paper's nar/narp quantities: the expected number of classes of a
// hierarchy receiving at least one of t values when values land on classes
// with probability proportional to class cardinality (DESIGN.md §3.3).
func ExpectedNonEmpty(t float64, sizes []float64) float64 {
	if t <= 0 || len(sizes) == 0 {
		return 0
	}
	var total float64
	for _, s := range sizes {
		total += s
	}
	if total <= 0 {
		return 0
	}
	var e float64
	for _, s := range sizes {
		p := s / total
		switch {
		case p >= 1:
			e++
		case p > 0:
			e += 1 - math.Pow(1-p, t)
		}
	}
	return e
}

// Figure7Stats returns the database and workload characteristics of
// Figure 7 of the paper for the path Per.owns.man.divs.name: cardinalities,
// distinct value counts, fan-outs and the load distribution triplets, with
// the calibrated PaperParams physical parameters.
func Figure7Stats() *PathStats {
	p := schema.PaperPathOwnsManDivsName()
	ps := NewPathStats(p, PaperParams())
	// Level 1: Person, attribute owns.
	ps.MustSet(1, ClassStats{Class: "Person", N: 200000, D: 20000, NIN: 1}, Load{Alpha: 0.3, Beta: 0.1, Gamma: 0.1})
	// Level 2: Vehicle hierarchy, attribute man.
	ps.MustSet(2, ClassStats{Class: "Vehicle", N: 10000, D: 5000, NIN: 3}, Load{Alpha: 0.3, Beta: 0.0, Gamma: 0.05})
	ps.MustSet(2, ClassStats{Class: "Bus", N: 5000, D: 2500, NIN: 2}, Load{Alpha: 0.05, Beta: 0.05, Gamma: 0.1})
	ps.MustSet(2, ClassStats{Class: "Truck", N: 5000, D: 2500, NIN: 2}, Load{Alpha: 0.0, Beta: 0.1, Gamma: 0.0})
	// Level 3: Company, attribute divs.
	ps.MustSet(3, ClassStats{Class: "Company", N: 1000, D: 1000, NIN: 4}, Load{Alpha: 0.1, Beta: 0.1, Gamma: 0.1})
	// Level 4: Division, attribute name.
	ps.MustSet(4, ClassStats{Class: "Division", N: 1000, D: 1000, NIN: 1}, Load{Alpha: 0.2, Beta: 0.2, Gamma: 0.1})
	return ps
}
