package cost

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// Organization enumerates the index organizations considered by the
// selection algorithm. SIX and IIX are the length-1 special cases of MX and
// MIX (Section 2.2) and are therefore not separate columns; NONE is the
// paper's "further research" extension of leaving a subpath unindexed.
type Organization int

const (
	// MX is the multi-index: one index per class in the scope of the subpath.
	MX Organization = iota
	// MIX is the multi-inherited index: one (hierarchy-wide) index per class
	// of class(P) along the subpath.
	MIX
	// NIX is the nested inherited index: one primary index on the subpath's
	// ending attribute plus an auxiliary parent index.
	NIX
	// NONE leaves the subpath unindexed; queries scan, maintenance is free.
	NONE
)

// Organizations are the three organizations of the paper's matrix.
var Organizations = []Organization{MX, MIX, NIX}

// OrganizationsWithNone adds the no-index extension column.
var OrganizationsWithNone = []Organization{MX, MIX, NIX, NONE}

// String returns the paper's abbreviation.
func (o Organization) String() string {
	switch o {
	case MX:
		return "MX"
	case MIX:
		return "MIX"
	case NIX:
		return "NIX"
	case NONE:
		return "NONE"
	case PX:
		return "PX"
	case NX:
		return "NX"
	default:
		return fmt.Sprintf("Organization(%d)", int(o))
	}
}

// ParseOrganization converts an abbreviation to an Organization.
func ParseOrganization(s string) (Organization, error) {
	switch s {
	case "MX", "mx":
		return MX, nil
	case "MIX", "mix":
		return MIX, nil
	case "NIX", "nix":
		return NIX, nil
	case "NONE", "none":
		return NONE, nil
	case "PX", "px":
		return PX, nil
	case "NX", "nx":
		return NX, nil
	}
	return 0, fmt.Errorf("cost: unknown index organization %q", s)
}

// Evaluator computes query and maintenance costs for one subpath [A..B] of
// a path under one index organization. All level arguments are global
// (1-based positions in the full path). Everything that does not depend on
// both subpath bounds comes from the path's level table; Reset adds the
// geometry of the NIX, PX or NX structures, which does, built in the
// evaluator's own scratch: one evaluator prices every cell of a matrix
// allocating only its descent memo, once. Because the geometries point
// into the arrays beside them, an Evaluator is used through a pointer and
// never copied.
type Evaluator struct {
	PS  *model.PathStats
	A   int // first level of the subpath
	B   int // last level of the subpath
	Org Organization

	sh *Shared
	// lt is the level table of MX or MIX; their costs are read from it.
	lt *orgTable
	// primary is the NIX primary index, or the single PX or NX structure;
	// aux is the NIX auxiliary parent index.
	primary, aux     Geom
	primaryLv, auxLv [maxTreeHeight]LevelGeom
	anc              []float64 // levelMaint's scratch: one NIX rewrite per ancestor level

	// reachMemo and probeMemo hold the descents of multi-page primary
	// structures, which read neither the subpath's first level nor the
	// organization (memo): the reach at level l of a subpath ending at B
	// at [(B-1)*n + l-1], its query probe at [2*(B-1)] for equality and
	// [2*(B-1)+1] at Shared.rangeKeys. Filled on first use; Reset drops
	// them when it moves to another Shared.
	reachMemo, probeMemo []lastProbe
}

// NewEvaluator builds an evaluator for subpath [a..b] of ps under org:
// NewShared(ps).Evaluator(a, b, org). Callers pricing several subpaths of
// one path build the Shared once.
func NewEvaluator(ps *model.PathStats, a, b int, org Organization) (*Evaluator, error) {
	sh, err := NewShared(ps)
	if err != nil {
		return nil, err
	}
	return sh.Evaluator(a, b, org)
}

// Evaluator builds an evaluator for subpath [a..b] under org.
func (sh *Shared) Evaluator(a, b int, org Organization) (*Evaluator, error) {
	e := new(Evaluator)
	if err := e.Reset(sh, a, b, org); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset re-targets e at subpath [a..b] of sh's path under org.
func (e *Evaluator) Reset(sh *Shared, a, b int, org Organization) error {
	if a < 1 || b > sh.n || a > b {
		return fmt.Errorf("cost: invalid subpath [%d,%d] for path of length %d", a, b, sh.n)
	}
	if sh != e.sh {
		e.reachMemo, e.probeMemo = nil, nil
	}
	e.PS, e.A, e.B, e.Org, e.sh, e.lt = sh.ps, a, b, org, sh, nil
	p := sh.ps.Params
	switch org {
	case MX:
		e.lt = &sh.mx
	case MIX:
		e.lt = &sh.mix
	case NIX:
		// Primary index: keyed by values of A_B across the ending
		// hierarchy; a record holds a class directory and one section of
		// OID entries per class in scope.
		ln := float64(p.RecHeader)
		var scopeSize int
		for l := a; l <= b; l++ {
			scopeSize += len(sh.lv[l-1].k)
		}
		ln += float64(scopeSize) * float64(p.OffsetLen)
		for l := a; l <= b; l++ {
			for x := range sh.lv[l-1].k {
				ln += e.nixSection(l, x)
			}
		}
		if err := e.primary.place(&e.primaryLv, sh.lv[b-1].dMax, ln, p); err != nil {
			return err
		}
		// Auxiliary index: one 3-tuple per object of levels a+1..b.
		var naux, auxBytes float64
		for l := a + 1; l <= b; l++ {
			tuple := float64(p.OidLen) + sh.ninBar(l, b)*float64(p.PtrLen) + sh.lv[l-2].kStar*float64(p.OidLen)
			for _, c := range sh.ps.Level(l).Classes {
				naux += c.N
				auxBytes += c.N * tuple
			}
		}
		lnAux := 0.0
		if naux > 0 {
			lnAux = auxBytes / naux
		}
		return e.aux.place(&e.auxLv, naux, lnAux, p)
	case PX, NX:
		return e.primary.place(&e.primaryLv, sh.lv[b-1].dMax, e.extRecordLen(), p)
	case NONE:
		// No structures.
	default:
		return fmt.Errorf("cost: unknown organization %v", org)
	}
	return nil
}

// feed returns the number of key values an equality predicate probes the
// subpath's structure with: the global noid*_{B+1} chain (1 when the
// subpath ends the path).
func (e *Evaluator) feed() float64 { return e.sh.noidStar[e.B+1] }

// classAt resolves a class name within level l of the subpath.
func (e *Evaluator) classAt(l int, class string) (int, error) {
	if err := e.inScope(l); err != nil {
		return 0, err
	}
	for i, c := range e.PS.Level(l).Classes {
		if c.Class == class {
			return i, nil
		}
	}
	return 0, fmt.Errorf("cost: class %q not at level %d", class, l)
}

func (e *Evaluator) inScope(l int) error {
	if l < e.A || l > e.B {
		return fmt.Errorf("cost: level %d outside subpath [%d,%d]", l, e.A, e.B)
	}
	return nil
}

// Query returns the searching cost CR_X(C_{l,x}) of a query against the
// path's ending attribute with respect to the single class x at global
// level l, a <= l <= b (Section 3.1 retrieval formulas, generalized to a
// subpath fed with noid*_{B+1} keys at its ending attribute).
func (e *Evaluator) Query(l int, class string) (float64, error) {
	x, err := e.classAt(l, class)
	if err != nil {
		return 0, err
	}
	return e.query(l, x, e.probeFor(1)), nil
}

// QueryHierarchy returns CR_X(C*_l): the searching cost with respect to the
// whole inheritance hierarchy at level l. This is the load shape induced on
// a subpath by queries targeting classes that precede it (Section 3.2).
func (e *Evaluator) QueryHierarchy(l int) (float64, error) {
	if err := e.inScope(l); err != nil {
		return 0, err
	}
	return e.query(l, wholeHierarchy, e.probeFor(1)), nil
}

// QueryRange is Query for a range predicate with the given selectivity
// over the ending attribute's distinct values. Equality is the sel→0
// limit (one key).
func (e *Evaluator) QueryRange(l int, class string, sel float64) (float64, error) {
	x, err := e.classAt(l, class)
	if err != nil {
		return 0, err
	}
	return e.queryRange(l, x, sel)
}

// QueryRangeHierarchy is QueryHierarchy for a range predicate.
func (e *Evaluator) QueryRangeHierarchy(l int, sel float64) (float64, error) {
	if err := e.inScope(l); err != nil {
		return 0, err
	}
	return e.queryRange(l, wholeHierarchy, sel)
}

func (e *Evaluator) queryRange(l, x int, sel float64) (float64, error) {
	if sel < 0 || sel > 1 {
		return 0, fmt.Errorf("cost: selectivity %g outside [0,1]", sel)
	}
	return e.query(l, x, e.probeFor(e.sh.keysFor(sel))), nil
}

// wholeHierarchy is the class index standing for all classes of a level.
const wholeHierarchy = -1

// cellProbe is what every query of a cell at one key count shares, read
// neither with the level nor with the class the query is asked for: the
// level table's probe rows (MX, MIX), or the descent of keys times the
// subpath's feed through its one structure (NIX, PX, NX).
type cellProbe struct {
	one [][]float64
	probe
}

// probeFor probes the subpath's structures for a predicate matching keys
// values of the path's ending attribute (1 for equality).
func (e *Evaluator) probeFor(keys float64) cellProbe {
	switch e.Org {
	case MX, MIX:
		return cellProbe{one: e.lt.probesAt(e.sh, keys).one}
	case NIX, PX, NX:
		return cellProbe{probe: e.primaryProbe(keys)}
	}
	return cellProbe{}
}

// memo returns the evaluator's descent memo, allocated on first use, when
// the primary structure is multi-page and holds records; nils otherwise.
// Such a structure's descent depends on its record count, the fan-out and
// t only: its leaf level is {NK, NK·⌈Ln/p⌉}, which Yao clamps to {NK, NK},
// and every directory level above is built from NK. NIX, PX and NX all key
// their primary on the ending level's dMax, so within one Shared a slot's
// descent is the same for every subpath ending at B under all three.
func (e *Evaluator) memo() (reach, probes []lastProbe) {
	if !e.primary.MultiPage() || e.primary.NK <= 0 {
		return nil, nil
	}
	if e.reachMemo == nil {
		n := e.sh.n
		m := make([]lastProbe, n*n+2*n)
		e.reachMemo, e.probeMemo = m[:n*n:n*n], m[n*n:]
	}
	return e.reachMemo, e.probeMemo
}

// primaryProbe descends keys times the subpath's feed through the primary
// structure, reading an equality or prebuilt-range probe from the memo.
func (e *Evaluator) primaryProbe(keys float64) probe {
	t := keys * e.feed()
	if _, m := e.memo(); m != nil {
		switch keys {
		case 1:
			return m[2*(e.B-1)].descent(&e.primary, t)
		case e.sh.rangeKeys:
			return m[2*(e.B-1)+1].descent(&e.primary, t)
		}
	}
	return descent(&e.primary, t)
}

// reach descends the nin̄(l,B) records reachable from one level-l object
// through the primary structure, from the memo or else re-using lp.
func (e *Evaluator) reach(l int, lp *lastProbe) probe {
	if m, _ := e.memo(); m != nil {
		lp = &m[(e.B-1)*e.sh.n+l-1]
	}
	return lp.descent(&e.primary, e.sh.ninBar(l, e.B))
}

// query prices the probed predicate with respect to class x of level l,
// or to the whole hierarchy of level l.
func (e *Evaluator) query(l, x int, cp cellProbe) float64 {
	switch e.Org {
	case MX, MIX:
		// Probe the class's own structure at level l (every structure of
		// the level for the hierarchy: one lookup in the hierarchy-wide
		// MIX index returns all classes' OIDs), then every structure of
		// the deeper levels l+1..B: table entries, summed in the order
		// the cascade of lookups runs.
		var s float64
		if x != wholeHierarchy {
			s = at(cp.one[l-1], x)
			l++
		}
		for _, level := range cp.one[l-1 : e.B] {
			for _, c := range level {
				s += c
			}
		}
		return s
	case NIX:
		return cp.crt(&e.primary, e.nixPR(l, x))
	case NX:
		if l > e.A {
			// The structure cannot answer inner-class queries: evaluate
			// by scanning from level l (the NONE behaviour for that slice).
			return e.sh.scanPages(l, e.B)
		}
		return cp.crt(&e.primary, 0)
	case PX:
		// Whole records must be read (no class directory).
		return cp.crt(&e.primary, e.primary.RecordPages())
	}
	// NONE: sequentially scan the objects of every hierarchy from level l
	// to the end of the subpath, navigating forward references (the naive
	// evaluation of the introduction); one pass evaluates any predicate.
	return e.sh.scanPages(l, e.B)
}

// nixSection is the size in bytes of class x's section of OID entries in
// a primary record.
func (e *Evaluator) nixSection(l, x int) float64 {
	return e.sh.noidS(l, x, e.B) * e.sh.lv[l-1].nixEntry
}

// nixPages converts section bytes of a multi-page primary record to the
// pages covering them: at least one, at most the whole record.
func (e *Evaluator) nixPages(bytes float64) float64 {
	return math.Min(math.Max(1, ceilDiv(bytes, e.primary.PageSize)), e.primary.RecordPages())
}

// nixPR estimates the pages of one primary record that must be retrieved to
// read the section of class x at level l, or of the level's whole
// hierarchy: 1 when the record fits a page, otherwise the pages covering
// the sections (the class directory makes partial retrieval possible,
// Figure 3).
func (e *Evaluator) nixPR(l, x int) float64 {
	if !e.primary.MultiPage() {
		return 1
	}
	if x != wholeHierarchy {
		return e.nixPages(e.nixSection(l, x))
	}
	var bytes float64
	for j := range e.sh.lv[l-1].k {
		bytes += e.nixSection(l, j)
	}
	return e.nixPages(bytes)
}

// Insert returns the maintenance cost charged to this subpath's index when
// an object is inserted into class x at global level l (flag = 0 in the
// paper's CM formulas).
func (e *Evaluator) Insert(l int, class string) (float64, error) {
	x, err := e.classAt(l, class)
	if err != nil {
		return 0, err
	}
	var lm levelMaint
	e.levelMaint(l, &lm)
	ins, _ := e.maintain(l, x, &lm)
	return ins, nil
}

// Delete returns the maintenance cost charged to this subpath's index when
// an object is deleted from class x at global level l (flag = 1),
// excluding the boundary cost CMD, which Definition 4.2 charges to the
// preceding subpath.
func (e *Evaluator) Delete(l int, class string) (float64, error) {
	x, err := e.classAt(l, class)
	if err != nil {
		return 0, err
	}
	var lm levelMaint
	e.levelMaint(l, &lm)
	_, del := e.maintain(l, x, &lm)
	return del, nil
}

// levelMaint is what the maintenance costs of the classes of one level
// share under NIX, PX and NX, and the descents the next class or level
// re-uses when it asks for the same records. Its zero value starts a cell.
type levelMaint struct {
	ext float64 // PX, NX: the whole cost, which does not read the class
	// reach is the NIX descent of Evaluator.reach, which last keeps when
	// the memo does not; kids and own descend a class's nin children,
	// without and with the object's own 3-tuple, through the NIX
	// auxiliary index.
	reach           probe
	last, kids, own lastProbe
	ancBytes        float64   // NIX: section bytes of levels A..l-1 in a multi-page primary record
	anc             []float64 // NIX deletion steps 3b/3c: rewrites at levels l-1..A+1 (Evaluator.anc) ...
	ancLeaf         float64   // ... and the propagation through the auxiliary leaf level
}

// levelMaint moves lm to level l of the evaluator's subpath.
func (e *Evaluator) levelMaint(l int, lm *levelMaint) {
	sh := e.sh
	switch e.Org {
	case PX, NX:
		lm.ext = e.extMaintain(l, e.reach(l, &lm.last))
	case NIX:
		lm.reach = e.reach(l, &lm.last)
		lm.ancBytes = 0
		if e.primary.MultiPage() {
			for i := e.A; i < l; i++ {
				for j := range sh.lv[i-1].k {
					lm.ancBytes += e.nixSection(i, j)
				}
			}
		}
		lm.anc = e.anc[:0]
		var parSum, narpSum float64
		for i := l - 1; i >= e.A+1; i-- {
			narp := sh.tab(sh.narp, i-1, l-1)
			lm.anc = append(lm.anc, CRR(narp, &e.aux))
			parSum += sh.tab(sh.star, i-1, l-1)
			narpSum += narp
		}
		e.anc = lm.anc // keeps what append grew
		lm.ancLeaf = math.Min(Yao(parSum, e.aux.NK, e.aux.LeafPages), e.auxPages(narpSum))
	}
}

// maintain prices the insertion and the deletion of an object of class x
// at level l together: they share most of their terms.
func (e *Evaluator) maintain(l, x int, lm *levelMaint) (ins, del float64) {
	switch e.Org {
	case MX, MIX:
		ins = e.lt.cmt[l-1][x]
		del = ins
		if l > e.A {
			// Deletion also removes the object's OID as a key of the
			// structures on the previous level (within the subpath).
			del += e.lt.cml[l-2]
		}
	case NIX:
		return e.nixMaintain(l, x, lm)
	case PX, NX:
		return lm.ext, lm.ext
	}
	return ins, del // zero under NONE
}

// nixMaintain implements the NIX insertion cost CSI24 + CSI3 and deletion
// cost CSD2 + CSD3 (Section 3.1).
func (e *Evaluator) nixMaintain(l, x int, lm *levelMaint) (ins, del float64) {
	var childNar, children float64
	if l < e.B {
		childNar = e.sh.lv[l-1].nar[x]
		children = e.PS.Level(l).Classes[x].NIN
	}
	// Step 2: access the children's 3-tuples and rewrite them; below the
	// subpath's first level the object has a 3-tuple of its own, written
	// on insertion, accessed and rewritten on deletion.
	ins = lm.kids.descent(&e.aux, children).crt(&e.aux, 1)
	del = ins
	ownAux := 0.0
	if l > e.A {
		ownAux = 1
		del = lm.own.descent(&e.aux, children+1).crt(&e.aux, 1)
	}
	rewrite := CRR(childNar+ownAux, &e.aux)
	ins, del = ins+rewrite, del+rewrite
	// Step 3(a): modify the primary records reachable from the object.
	// In a multi-page record the new entries of an insertion land in the
	// pages holding the object's class section; a deletion also modifies
	// the sections of every ancestor level.
	pmi, pmd := 1.0, 1.0
	if e.primary.MultiPage() {
		section := e.nixSection(l, x)
		pmi, pmd = e.nixPages(section), e.nixPages(lm.ancBytes+section)
	}
	modify := lm.reach.cmt(&e.primary, pmi)
	ins += modify
	if pmd != pmi {
		modify = lm.reach.cmt(&e.primary, pmd)
	}
	del += modify
	// Steps 3b/3c: a deletion propagates through the ancestor 3-tuples at
	// levels A+1..l-1.
	for _, rewrite := range lm.anc {
		del += rewrite
	}
	return ins, del + lm.ancLeaf
}

// auxPages is the cost of rewriting t 3-tuples of the auxiliary index
// spread over its whole leaf level.
func (e *Evaluator) auxPages(t float64) float64 {
	if e.aux.MultiPage() {
		return t * e.aux.RecordPages()
	}
	return Yao(t, e.aux.NK, e.aux.LeafPages)
}

// CMD returns the boundary maintenance cost of Definition 4.2: the cost, on
// this subpath's index, of deleting one key of its ending attribute A_B.
// This is charged per deletion of an object of the class hierarchy at
// level B+1 (the starting class of the following subpath). Zero when the
// subpath ends the path or under NONE.
func (e *Evaluator) CMD() float64 {
	if e.B >= e.sh.n {
		return 0
	}
	switch e.Org {
	case MX, MIX:
		return e.lt.cmd[e.B-1]
	case NIX:
		s := CML(&e.primary, e.primary.RecordPages())
		// delpoint: the 3-tuples of every aux-bearing object listed in the
		// removed primary record lose a pointer.
		var tt float64
		for l := e.A + 1; l <= e.B; l++ {
			for x := range e.sh.lv[l-1].k {
				tt += e.sh.noidS(l, x, e.B)
			}
		}
		return s + e.auxPages(tt)
	case PX, NX:
		// The record keyed by the deleted OID is dropped entirely.
		return CML(&e.primary, e.primary.RecordPages())
	}
	return 0 // NONE
}
