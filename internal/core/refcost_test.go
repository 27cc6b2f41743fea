// The reference cost model of the equivalence suite: the evaluator as it
// stood before the level table, one subpath at a time. Every cell builds
// its own geometry and chains from the statistics and walks the Section 3
// formulas level by level, in the order the formulas are written; nothing
// is shared between cells and nothing is tabulated. The Yao estimator is
// a parameter, so the same reference runs on the closed form (cells then
// differ from the matrix by summation order only) and on the O(t) loop
// that defines it.
package core_test

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/model"
)

// yaoLoop is Yao's formula factor by factor (the oracle of
// internal/cost/yao_test.go).
func yaoLoop(t, n, m float64) float64 {
	if t <= 0 || n <= 0 || m <= 0 {
		return 0
	}
	if m > n {
		m = n
	}
	if t >= n {
		return m
	}
	perPage := n / m
	ti := int(math.Floor(t))
	frac := t - float64(ti)
	prod := 1.0
	for i := 1; i <= ti; i++ {
		num := n - perPage - float64(i) + 1
		den := n - float64(i) + 1
		if num <= 0 || den <= 0 {
			prod = 0
			break
		}
		prod *= num / den
		if prod < 1e-300 {
			prod = 0
			break
		}
	}
	if frac > 0 && prod > 0 {
		num := n - perPage - float64(ti+1) + 1
		den := n - float64(ti+1) + 1
		if num <= 0 || den <= 0 {
			prod = 0
		} else {
			prod *= math.Pow(num/den, frac)
		}
	}
	return m * (1 - prod)
}

// refEval prices one subpath [a..b] under one organization.
type refEval struct {
	ps   *model.PathStats
	a, b int
	org  cost.Organization
	yao  func(t, n, m float64) float64

	mxGeom     [][]*cost.Geom // [level-a][classIdx]
	mixGeom    []*cost.Geom   // [level-a]
	nixPrimary *cost.Geom
	nixAux     *cost.Geom
	nixSection [][]float64 // [level-a][classIdx]: section bytes in a primary record
	noidS      [][]float64 // [level-a][classIdx]: within-subpath noid
	extG       *cost.Geom  // PX, NX
}

func refGeom(nk, ln float64, p model.Params) *cost.Geom {
	g, err := cost.NewGeom(nk, ln, float64(p.PageSize), float64(p.KeyLen+p.PtrLen))
	if err != nil {
		panic(err)
	}
	return g
}

func newRefEval(ps *model.PathStats, a, b int, org cost.Organization, yao func(t, n, m float64) float64) *refEval {
	e := &refEval{ps: ps, a: a, b: b, org: org, yao: yao}
	p := ps.Params
	// Within-subpath noid chain: noidS*_{b+1} = 1.
	e.noidS = make([][]float64, b-a+1)
	star := 1.0
	for l := b; l >= a; l-- {
		ls := ps.Level(l)
		row := make([]float64, ls.NC())
		for x, c := range ls.Classes {
			row[x] = c.K() * star
		}
		e.noidS[l-a] = row
		star *= ls.KStar()
	}
	switch org {
	case cost.MX:
		for l := a; l <= b; l++ {
			var row []*cost.Geom
			for _, c := range ps.Level(l).Classes {
				row = append(row, refGeom(c.D, float64(p.RecHeader)+c.K()*float64(p.OidLen), p))
			}
			e.mxGeom = append(e.mxGeom, row)
		}
	case cost.MIX:
		for l := a; l <= b; l++ {
			ls := ps.Level(l)
			nk := ls.DMax()
			var entries float64
			for _, c := range ls.Classes {
				entries += c.N * c.NIN
			}
			ln := float64(p.RecHeader)
			if nk > 0 {
				ln += entries / nk * float64(p.OidLen)
			}
			e.mixGeom = append(e.mixGeom, refGeom(nk, ln, p))
		}
	case cost.NIX:
		e.nixSection = make([][]float64, b-a+1)
		ln := float64(p.RecHeader)
		var scopeSize int
		for l := a; l <= b; l++ {
			scopeSize += ps.Level(l).NC()
		}
		ln += float64(scopeSize) * float64(p.OffsetLen)
		for l := a; l <= b; l++ {
			entryLen := float64(p.OidLen)
			if ps.Path.MultiValuedAt(l) {
				entryLen += float64(p.CountLen)
			}
			secs := make([]float64, ps.Level(l).NC())
			for x := range secs {
				secs[x] = e.noidS[l-a][x] * entryLen
				ln += secs[x]
			}
			e.nixSection[l-a] = secs
		}
		e.nixPrimary = refGeom(ps.Level(b).DMax(), ln, p)
		var naux, auxBytes float64
		for l := a + 1; l <= b; l++ {
			ninBar := e.ninBarS(l)
			par := ps.Level(l - 1).KStar()
			for _, c := range ps.Level(l).Classes {
				naux += c.N
				auxBytes += c.N * (float64(p.OidLen) + ninBar*float64(p.PtrLen) + par*float64(p.OidLen))
			}
		}
		lnAux := 0.0
		if naux > 0 {
			lnAux = auxBytes / naux
		}
		e.nixAux = refGeom(naux, lnAux, p)
	case cost.NX:
		var entries float64
		for x := range ps.Level(a).Classes {
			entries += e.noidS[0][x]
		}
		e.extG = refGeom(ps.Level(b).DMax(), float64(p.RecHeader)+entries*float64(p.OidLen), p)
	case cost.PX:
		nk := ps.Level(b).DMax()
		paths := ps.Level(a).NTotal()
		for i := a; i <= b; i++ {
			paths *= ps.Level(i).NINAvg()
		}
		perKey := paths
		if nk > 0 {
			perKey = paths / nk
		}
		pathLen := float64(b-a+1) * float64(p.OidLen)
		e.extG = refGeom(nk, float64(p.RecHeader)+perKey*pathLen, p)
	}
	return e
}

// descent is the tree traversal of retrieving t records: t_h = t at the
// leaf/record level, t_{k-1} = npa(t_k, n_k, p_k) going up. It returns the
// accesses above the leaf/record level and those at it.
func (e *refEval) descent(g *cost.Geom, t float64) (inner, leaf float64) {
	for k := g.Height() - 1; k >= 0; k-- {
		lv := g.Levels[k]
		a := e.yao(t, lv.NRec, lv.Pages)
		if lv.NRec == 0 {
			a = 1
		}
		if k == g.Height()-1 {
			leaf = a
		} else {
			inner += a
		}
		t = a
	}
	return inner, leaf
}

func (e *refEval) crt(g *cost.Geom, t, pr float64) float64 {
	if t <= 0 {
		return 0
	}
	if t > g.NK && g.NK > 0 {
		t = g.NK
	}
	inner, leaf := e.descent(g, t)
	if !g.MultiPage() {
		return inner + leaf
	}
	if pr <= 0 {
		pr = g.RecordPages()
	}
	return inner + t*pr
}

func (e *refEval) cmt(g *cost.Geom, t, pm float64) float64 {
	if t <= 0 {
		return 0
	}
	if t > g.NK && g.NK > 0 {
		t = g.NK
	}
	inner, leaf := e.descent(g, t)
	if !g.MultiPage() {
		return inner + 2*leaf
	}
	if pm <= 0 {
		pm = 1
	}
	return inner + 2*t*pm
}

func (e *refEval) crr(t float64, aux *cost.Geom) float64 {
	if t <= 0 {
		return 0
	}
	if t > aux.NK && aux.NK > 0 {
		t = aux.NK
	}
	if !aux.MultiPage() {
		return e.yao(t, aux.NK, aux.LeafPages)
	}
	return t * aux.RecordPages()
}

func (e *refEval) ninBarS(l int) float64 {
	v := 1.0
	for i := l; i <= e.b; i++ {
		v *= e.ps.Level(i).NINAvg()
	}
	if cap := e.ps.Level(e.b).DMax(); cap > 0 && v > cap {
		v = cap
	}
	return v
}

// noidStarPath is the global noid*_l of Section 3.1: the product of the
// hierarchy fan-ins KStar from level n down to l, 1 beyond the path.
func (e *refEval) noidStarPath(l int) float64 {
	v := 1.0
	for i := e.ps.Len(); i >= l; i-- {
		v *= e.ps.Level(i).KStar()
	}
	return v
}

// nar is nar_{l+1}: the auxiliary records touched when nin values spread
// over the hierarchy of level l+1.
func (e *refEval) nar(lPlus1 int, nin float64) float64 {
	var sizes []float64
	for _, c := range e.ps.Level(lPlus1).Classes {
		sizes = append(sizes, c.N)
	}
	return model.ExpectedNonEmpty(nin, sizes)
}

// query prices a predicate matching keys ending-attribute values with
// respect to class x of level l; x < 0 is the level's whole hierarchy.
func (e *refEval) query(l, x int, keys float64) float64 {
	feed := func(i int) float64 { return keys * e.noidStarPath(i+1) }
	switch e.org {
	case cost.MX:
		var s float64
		if x >= 0 {
			s = e.crt(e.mxGeom[l-e.a][x], feed(l), 0)
		} else {
			for j := range e.ps.Level(l).Classes {
				s += e.crt(e.mxGeom[l-e.a][j], feed(l), 0)
			}
		}
		for i := l + 1; i <= e.b; i++ {
			for j := range e.ps.Level(i).Classes {
				s += e.crt(e.mxGeom[i-e.a][j], feed(i), 0)
			}
		}
		return s
	case cost.MIX:
		var s float64
		for i := l; i <= e.b; i++ {
			s += e.crt(e.mixGeom[i-e.a], feed(i), 0)
		}
		return s
	case cost.NIX:
		var secs [][2]int
		if x >= 0 {
			secs = [][2]int{{l, x}}
		} else {
			for j := range e.ps.Level(l).Classes {
				secs = append(secs, [2]int{l, j})
			}
		}
		return e.crt(e.nixPrimary, feed(e.b), e.nixPR(secs))
	case cost.NX:
		if l == e.a {
			return e.crt(e.extG, feed(e.b), 0)
		}
		return e.scanPages(l, e.b)
	case cost.PX:
		return e.crt(e.extG, feed(e.b), e.extG.RecordPages())
	}
	return e.scanPages(l, e.b) // NONE
}

// pagesOf converts section bytes of a primary record to the pages that
// cover them, between one page and the whole record.
func (e *refEval) pagesOf(bytes float64) float64 {
	pr := math.Ceil(bytes / e.nixPrimary.PageSize)
	if pr < 1 {
		pr = 1
	}
	if rp := e.nixPrimary.RecordPages(); pr > rp {
		pr = rp
	}
	return pr
}

func (e *refEval) nixPR(sections [][2]int) float64 {
	if !e.nixPrimary.MultiPage() {
		return 1
	}
	var bytes float64
	for _, s := range sections {
		bytes += e.nixSection[s[0]-e.a][s[1]]
	}
	return e.pagesOf(bytes)
}

func (e *refEval) scanPages(lo, hi int) float64 {
	p := e.ps.Params
	var pages float64
	for i := lo; i <= hi; i++ {
		for _, c := range e.ps.Level(i).Classes {
			objLen := float64(p.RecHeader) + c.NIN*float64(p.OidLen) + 4*float64(p.KeyLen)
			perPage := math.Max(1, math.Floor(float64(p.PageSize)/objLen))
			pages += math.Ceil(c.N / perPage)
		}
	}
	return pages
}

func (e *refEval) navDownPages(l int) float64 {
	var pages float64
	width := 1.0
	for i := l; i < e.b; i++ {
		width *= e.ps.Level(i).NINAvg()
		pages += width
	}
	return pages
}

func (e *refEval) maintain(l, x int, del bool) float64 {
	cs := e.ps.Level(l).Classes[x]
	switch e.org {
	case cost.MX:
		s := e.cmt(e.mxGeom[l-e.a][x], cs.NIN, 0)
		if del && l > e.a {
			for j := range e.ps.Level(l - 1).Classes {
				s += cost.CML(e.mxGeom[l-1-e.a][j], 0)
			}
		}
		return s
	case cost.MIX:
		s := e.cmt(e.mixGeom[l-e.a], cs.NIN, 0)
		if del && l > e.a {
			s += cost.CML(e.mixGeom[l-1-e.a], 0)
		}
		return s
	case cost.NIX:
		if del {
			return e.nixDelete(l, x, cs)
		}
		return e.nixInsert(l, x, cs)
	case cost.NX:
		keys := e.ninBarS(l)
		if l == e.a {
			return e.navDownPages(l) + e.cmt(e.extG, keys, 1)
		}
		return e.scanPages(e.a, l-1) + e.navDownPages(l) + e.cmt(e.extG, keys, 1)
	case cost.PX:
		return e.navDownPages(l) + e.cmt(e.extG, e.ninBarS(l), e.extG.RecordPages())
	}
	return 0 // NONE
}

func (e *refEval) nixInsert(l, x int, cs model.ClassStats) float64 {
	ownAux := 0.0
	if l > e.a {
		ownAux = 1
	}
	childNar, childAccess := 0.0, 0.0
	if l < e.b {
		childNar = e.nar(l+1, cs.NIN)
		childAccess = cs.NIN
	}
	csi24 := e.crt(e.nixAux, childAccess, 1) + e.crr(childNar+ownAux, e.nixAux)
	pm := 1.0
	if e.nixPrimary.MultiPage() {
		pm = math.Max(1, math.Ceil(e.nixSection[l-e.a][x]/e.nixPrimary.PageSize))
	}
	return csi24 + e.cmt(e.nixPrimary, e.ninBarS(l), pm)
}

func (e *refEval) nixDelete(l, x int, cs model.ClassStats) float64 {
	ownAux := 0.0
	if l > e.a {
		ownAux = 1
	}
	childNar, childAccess := 0.0, 0.0
	if l < e.b {
		childNar = e.nar(l+1, cs.NIN)
		childAccess = cs.NIN
	}
	csd2 := e.crt(e.nixAux, childAccess+ownAux, 1) + e.crr(childNar+ownAux, e.nixAux)

	// Step 3a: the sections of the object's class and of every ancestor
	// level are modified.
	pm := 1.0
	if e.nixPrimary.MultiPage() {
		var bytes float64
		for i := e.a; i <= l; i++ {
			for j := range e.ps.Level(i).Classes {
				if i == l && j != x {
					continue
				}
				bytes += e.nixSection[i-e.a][j]
			}
		}
		pm = e.pagesOf(bytes)
	}
	cs3a := e.cmt(e.nixPrimary, e.ninBarS(l), pm)

	// Steps 3b/3c: propagate through ancestor 3-tuples at levels a+1..l-1.
	var cu3bc, parSum, narpSum float64
	par := 1.0
	for i := l - 1; i >= e.a+1; i-- {
		par *= e.ps.Level(i).KStar()
		sizes := make([]float64, e.ps.Level(i).NC())
		for j, c := range e.ps.Level(i).Classes {
			sizes[j] = c.N
		}
		narp := model.ExpectedNonEmpty(par, sizes)
		cu3bc += e.crr(narp, e.nixAux)
		parSum += par
		narpSum += narp
	}
	var saCost float64
	if parSum > 0 {
		sa1 := e.yao(parSum, e.nixAux.NK, e.nixAux.LeafPages)
		sa2 := narpSum * e.nixAux.RecordPages()
		if !e.nixAux.MultiPage() {
			sa2 = e.yao(narpSum, e.nixAux.NK, e.nixAux.LeafPages)
		}
		saCost = math.Min(sa1, sa2)
	}
	return csd2 + cs3a + cu3bc + saCost
}

func (e *refEval) cmd() float64 {
	if e.b >= e.ps.Len() {
		return 0
	}
	switch e.org {
	case cost.MX:
		var s float64
		for _, g := range e.mxGeom[e.b-e.a] {
			s += cost.CML(g, g.RecordPages())
		}
		return s
	case cost.MIX:
		g := e.mixGeom[e.b-e.a]
		return cost.CML(g, g.RecordPages())
	case cost.NIX:
		s := cost.CML(e.nixPrimary, e.nixPrimary.RecordPages())
		var tt float64
		for l := e.a + 1; l <= e.b; l++ {
			for x := range e.ps.Level(l).Classes {
				tt += e.noidS[l-e.a][x]
			}
		}
		if tt > 0 {
			if !e.nixAux.MultiPage() {
				s += e.yao(tt, e.nixAux.NK, e.nixAux.LeafPages)
			} else {
				s += tt * e.nixAux.RecordPages()
			}
		}
		return s
	case cost.PX, cost.NX:
		return cost.CML(e.extG, e.extG.RecordPages())
	}
	return 0 // NONE
}

// refProcessingCost is the Section 3.2 workload composition: own-scope
// queries at Alpha (range-priced under a positive Selectivity) and Rho
// (always range-priced), the query load of preceding classes against the
// subpath's starting hierarchy, insertions and deletions at Beta and
// Gamma, and the Definition 4.2 boundary charge.
func refProcessingCost(ps *model.PathStats, a, b int, org cost.Organization, yao func(t, n, m float64) float64) cost.SubpathCost {
	e := newRefEval(ps, a, b, org, yao)
	out := cost.SubpathCost{A: a, B: b, Org: org}
	rangeKeys := func(sel float64) float64 {
		return math.Max(1, sel*ps.Level(ps.Len()).DMax())
	}
	rsel := ps.Selectivity
	if rsel == 0 {
		rsel = model.DefaultRangeSelectivity
	}
	alphaKeys := 1.0
	if ps.Selectivity > 0 {
		alphaKeys = rangeKeys(ps.Selectivity)
	}
	for l := a; l <= b; l++ {
		for x, ld := range ps.Level(l).Loads {
			if ld.Alpha != 0 {
				out.Query += ld.Alpha * e.query(l, x, alphaKeys)
			}
			if ld.Rho != 0 {
				out.Query += ld.Rho * e.query(l, x, rangeKeys(rsel))
			}
		}
	}
	if a > 1 {
		var extra, extraR float64
		for l := 1; l < a; l++ {
			tl := ps.Level(l).TotalLoad()
			extra += tl.Alpha
			extraR += tl.Rho
		}
		if extra > 0 {
			out.Query += extra * e.query(a, -1, alphaKeys)
		}
		if extraR > 0 {
			out.Query += extraR * e.query(a, -1, rangeKeys(rsel))
		}
	}
	for l := a; l <= b; l++ {
		for x, ld := range ps.Level(l).Loads {
			if ld.Beta > 0 {
				out.Maint += ld.Beta * e.maintain(l, x, false)
			}
			if ld.Gamma > 0 {
				out.Maint += ld.Gamma * e.maintain(l, x, true)
			}
		}
	}
	if b < ps.Len() {
		if gamma := ps.Level(b + 1).TotalLoad().Gamma; gamma > 0 {
			out.CMD = gamma * e.cmd()
		}
	}
	return out
}

// relDiff is |a-b| relative to max(1, |b|).
func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Abs(b))
}

func cellName(a, b int, org cost.Organization) string {
	return fmt.Sprintf("[%d,%d] %v", a, b, org)
}

// physical merges adjacent MX (or adjacent MIX) assignments: both allocate
// one structure per level, so splitting such a subpath changes neither the
// indexes built nor, in exact arithmetic, the cost — configurations that
// differ only there tie, and which of them a search returns depends on
// the last bit of the sums.
func physical(c core.Configuration) []core.Assignment {
	var out []core.Assignment
	for _, a := range c.Assignments {
		if n := len(out); n > 0 && out[n-1].Org == a.Org && (a.Org == cost.MX || a.Org == cost.MIX) {
			out[n-1].B = a.B
			continue
		}
		out = append(out, a)
	}
	return out
}
