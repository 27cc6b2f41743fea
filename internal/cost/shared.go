package cost

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// Shared is the level table of one path: everything the n(n+1)/2 subpath
// evaluators of a cost matrix would otherwise re-derive, computed once.
// What depends on one level only — the MX and MIX index geometries, their
// probe cost at the level's global noid* feed, their maintenance costs,
// scan pages, load totals — is held per level; what depends on a level and
// the subpath's ending level — noid chains, fan-out products, navigation
// pages — in n×n tables. An MX or MIX evaluator reads its costs from these
// slices without evaluating a cost function; NIX, PX and NX evaluators,
// whose geometry depends on both subpath bounds, read the per-level inputs
// here, build that geometry and descend it (eval.go).
//
// A Shared is immutable after NewShared and safe for concurrent use.
type Shared struct {
	ps *model.PathStats
	n  int
	lv []levelRow // [l-1]

	noidStar []float64 // [l], l in 1..n+1: global noid*_l; level l is probed with noidStar[l+1] keys

	// Tables over (l, b), l <= b, at [(b-1)*n + l-1]. star and narp are
	// accumulated from level b downward, fan and nav from level l upward.
	star []float64 // prod KStar(l+1..b): noid* below level l within a subpath ending at b
	fan  []float64 // prod NINAvg(l..b): ending values reachable from one level-l object
	nav  []float64 // object pages read navigating from one level-l object to level b
	narp []float64 // classes of level l+1 expected to hold an ancestor of one level-(b+1) object

	mx, mix   orgTable
	rangeKeys float64 // keys of the prebuilt range probe tables; 0 when the workload has no range queries
}

// levelRow holds the per-level inputs and totals.
type levelRow struct {
	kStar, ninAvg, dMax, nTotal float64
	k, nar                      []float64  // per class: k_{l,x}; nar_{l+1} for the class's nin values (0 at level n)
	scanTo                      float64    // pages of sequentially scanning the hierarchies of levels 1..l
	nixEntry                    float64    // bytes of one OID entry in a NIX primary record section
	load                        model.Load // summed over the hierarchy
	before                      model.Load // summed over all preceding levels
}

// orgTable prices MX or MIX level by level. A level has one structure per
// class under MX and a single one under MIX; rows over structures have
// that length, and at maps a class to its structure.
type orgTable struct {
	geom    [][]*Geom   // [l-1][s]
	eq, rng probeTable  // equality probes; range probes at Shared.rangeKeys
	cmt     [][]float64 // [l-1][x]: maintaining class x's nin records
	cml     []float64   // [l-1]: removing one key from every structure of the level
	cmd     []float64   // [l-1]: Definition 4.2 boundary deletion, whole records dropped
}

// probeTable is the retrieval cost of every structure of an orgTable when
// each level is probed with keys times its global feed.
type probeTable struct {
	keys float64
	one  [][]float64 // [l-1][s]
}

// at returns the entry of class x in a row over a level's structures.
func at[T any](row []T, x int) T {
	if len(row) == 1 {
		return row[0]
	}
	return row[x]
}

// NewShared validates ps and computes its level table.
func NewShared(ps *model.PathStats) (*Shared, error) {
	if ps == nil {
		return nil, fmt.Errorf("cost: nil path stats")
	}
	if err := ps.Validate(); err != nil {
		return nil, err
	}
	n, p := ps.Len(), ps.Params
	tables := make([]float64, 4*n*n)
	sh := &Shared{
		ps: ps, n: n, lv: make([]levelRow, n), noidStar: make([]float64, n+2),
		star: tables[:n*n], fan: tables[n*n : 2*n*n], nav: tables[2*n*n : 3*n*n], narp: tables[3*n*n:],
	}
	var scan float64
	var before model.Load
	anyRho := false
	sizes := make([][]float64, n) // [l-1][x]: class cardinalities
	for l := 1; l <= n; l++ {
		ls, row := ps.Level(l), &sh.lv[l-1]
		row.kStar, row.ninAvg, row.dMax, row.nTotal = ls.KStar(), ls.NINAvg(), ls.DMax(), ls.NTotal()
		row.nixEntry = float64(p.OidLen)
		if ps.Path.MultiValuedAt(l) {
			row.nixEntry += float64(p.CountLen)
		}
		per := make([]float64, 2*ls.NC())
		row.k, row.nar = per[:ls.NC()], per[ls.NC():]
		sizes[l-1] = make([]float64, ls.NC())
		for x, c := range ls.Classes {
			sizes[l-1][x] = c.N
			row.k[x] = c.K()
			// Objects are modelled as RecHeader + one OidLen per attribute
			// value held.
			objLen := float64(p.RecHeader) + c.NIN*float64(p.OidLen) + 4*float64(p.KeyLen)
			scan += math.Ceil(c.N / math.Max(1, math.Floor(float64(p.PageSize)/objLen)))
			anyRho = anyRho || ls.Loads[x].Rho != 0
		}
		row.scanTo = scan
		row.load, row.before = ls.TotalLoad(), before
		before = before.Add(row.load)
	}
	// Global noid* chain (Section 3.1): noid*_{n+1} = 1 for an equality
	// predicate, noid*_l = KStar_l * noid*_{l+1}.
	sh.noidStar[n+1] = 1
	for l := n; l >= 1; l-- {
		sh.noidStar[l] = sh.noidStar[l+1] * sh.lv[l-1].kStar
	}
	for l := 1; l < n; l++ {
		for x, c := range ps.Level(l).Classes {
			sh.lv[l-1].nar[x] = model.ExpectedNonEmpty(c.NIN, sizes[l])
		}
	}
	for b := 1; b <= n; b++ {
		star := 1.0
		for l := b; l >= 1; l-- {
			i := (b-1)*n + l - 1
			sh.star[i] = star
			if l < b {
				// The ancestors at level l+1 of one level-(b+1) object.
				sh.narp[i] = model.ExpectedNonEmpty(star, sizes[l])
			}
			star *= sh.lv[l-1].kStar
		}
	}
	for l := 1; l <= n; l++ {
		fan, nav := 1.0, 0.0
		for b := l; b <= n; b++ {
			i := (b-1)*n + l - 1
			sh.nav[i] = nav
			fan *= sh.lv[b-1].ninAvg
			sh.fan[i] = fan
			nav += fan
		}
	}
	var err error
	if sh.mx, err = sh.newOrgTable(mxGeomsAt); err != nil {
		return nil, err
	}
	if sh.mix, err = sh.newOrgTable(mixGeomAt); err != nil {
		return nil, err
	}
	if ps.Selectivity > 0 || anyRho {
		sel := ps.Selectivity
		if sel == 0 {
			sel = model.DefaultRangeSelectivity
		}
		sh.rangeKeys = sh.keysFor(sel)
		sh.mx.rng = sh.mx.newProbeTable(sh, sh.rangeKeys)
		sh.mix.rng = sh.mix.newProbeTable(sh, sh.rangeKeys)
	}
	return sh, nil
}

// tab reads an (l, b) table.
func (sh *Shared) tab(t []float64, l, b int) float64 { return t[(b-1)*sh.n+l-1] }

// ninBar is the within-subpath nin̄: the distinct values of the subpath's
// ending attribute A_b reachable from one level-l object, capped by the
// key cardinality of level b.
func (sh *Shared) ninBar(l, b int) float64 {
	v := sh.tab(sh.fan, l, b)
	if cap := sh.lv[b-1].dMax; cap > 0 && v > cap {
		v = cap
	}
	return v
}

// noidS is the within-subpath noid of class x at level l for a subpath
// ending at b (noidS*_{b+1} = 1); it sizes the NIX and NX records.
func (sh *Shared) noidS(l, x, b int) float64 { return sh.lv[l-1].k[x] * sh.tab(sh.star, l, b) }

// scanPages is the cost of sequentially scanning the hierarchies of levels
// lo..hi: the NONE evaluation of a query, and the NX fallback for locating
// ancestors or answering inner-class queries.
func (sh *Shared) scanPages(lo, hi int) float64 {
	if lo > 1 {
		return sh.lv[hi-1].scanTo - sh.lv[lo-2].scanTo
	}
	return sh.lv[hi-1].scanTo
}

// keysFor returns the number of distinct ending-attribute keys matched by
// a range predicate of selectivity sel (Section 3: "The extension to range
// predicates is straightforward" — every quantity scales through the noid
// chain, whose boundary becomes sel * D instead of 1). At least 1: a range
// that matches nothing costs as much as probing once to find out.
func (sh *Shared) keysFor(sel float64) float64 {
	return math.Max(1, sel*sh.lv[sh.n-1].dMax)
}

// mxGeomsAt builds the per-class MX index geometries of level l: one
// index per class of the hierarchy, keyed by the class's own values.
func mxGeomsAt(ps *model.PathStats, l int) (row []*Geom, err error) {
	p := ps.Params
	ls := ps.Level(l)
	row = make([]*Geom, ls.NC())
	for x, c := range ls.Classes {
		ln := float64(p.RecHeader) + c.K()*float64(p.OidLen)
		if row[x], err = NewGeom(c.D, ln, float64(p.PageSize), float64(p.KeyLen+p.PtrLen)); err != nil {
			return nil, err
		}
	}
	return row, nil
}

// mixGeomAt builds the hierarchy-wide MIX index geometry of level l.
func mixGeomAt(ps *model.PathStats, l int) ([]*Geom, error) {
	p := ps.Params
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
	g, err := NewGeom(nk, ln, float64(p.PageSize), float64(p.KeyLen+p.PtrLen))
	return []*Geom{g}, err
}

// newOrgTable prices the structures geomsAt allocates at every level.
func (sh *Shared) newOrgTable(geomsAt func(*model.PathStats, int) ([]*Geom, error)) (orgTable, error) {
	n := sh.n
	t := orgTable{geom: make([][]*Geom, n), cmt: make([][]float64, n), cml: make([]float64, n), cmd: make([]float64, n)}
	for l := 1; l <= n; l++ {
		gs, err := geomsAt(sh.ps, l)
		if err != nil {
			return t, fmt.Errorf("cost: level %d: %w", l, err)
		}
		t.geom[l-1] = gs
		for _, g := range gs {
			t.cml[l-1] += CML(g, 0)
			t.cmd[l-1] += CML(g, g.RecordPages())
		}
		cs := sh.ps.Level(l).Classes
		t.cmt[l-1] = make([]float64, len(cs))
		for x, c := range cs {
			t.cmt[l-1][x] = CMT(at(gs, x), c.NIN, 0)
		}
	}
	t.eq = t.newProbeTable(sh, 1)
	return t, nil
}

// newProbeTable prices probing every structure with keys times its level's
// feed.
func (t *orgTable) newProbeTable(sh *Shared, keys float64) probeTable {
	pt := probeTable{keys: keys, one: make([][]float64, sh.n)}
	for l := 1; l <= sh.n; l++ {
		pt.one[l-1] = make([]float64, len(t.geom[l-1]))
		for s, g := range t.geom[l-1] {
			pt.one[l-1][s] = CRT(g, keys*sh.noidStar[l+1], 0)
		}
	}
	return pt
}

// probesAt returns the probe costs at keys: a prebuilt table when the
// workload prices at keys, else one computed for the call.
func (t *orgTable) probesAt(sh *Shared, keys float64) *probeTable {
	switch keys {
	case 1:
		return &t.eq
	case t.rng.keys:
		return &t.rng
	}
	pt := t.newProbeTable(sh, keys)
	return &pt
}
