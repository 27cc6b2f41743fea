package cost

import "math"

// CRL is the retrieval cost of one specified index record (Section 3.1):
//
//	CRL(h, pr) = h               if ln <= p
//	           = h - 1 + pr     otherwise
//
// pr is the average number of pages retrieved of a multi-page record; pass
// pr <= 0 to retrieve the whole record (ceil(ln/p) pages).
func CRL(g *Geom, pr float64) float64 {
	h := float64(g.Height())
	if !g.MultiPage() {
		return h
	}
	if pr <= 0 {
		pr = g.RecordPages()
	}
	return h - 1 + pr
}

// CML is the maintenance cost of one specified index record (Section 3.1):
//
//	CML(h, pm) = h + 1           if ln <= p   (one extra access rewrites the page)
//	           = h - 1 + pm      otherwise
//
// pm is the average number of page accesses spent on the record's own pages
// (retrievals plus rewrites); pass pm <= 0 for the default of reading and
// rewriting one page (pm = 2).
func CML(g *Geom, pm float64) float64 {
	h := float64(g.Height())
	if !g.MultiPage() {
		return h + 1
	}
	if pm <= 0 {
		pm = 2
	}
	return h - 1 + pm
}

// probe is one descent through a tree: the accesses of retrieving t of its
// records, which the retrieval and the maintenance formula then price at
// their page factor. A cell computes a probe once at the loop depth its t
// varies at and prices it per class.
type probe struct {
	t     float64 // records retrieved, capped at the number of records
	inner float64 // accesses above the leaf/record level
	leaf  float64 // accesses at the leaf/record level
}

// descent computes the page accesses of retrieving t records through the
// tree: t_h = t at the leaf/record level and t_{k-1} = npa(t_k, n_k, p_k)
// going up; no records cost nothing.
func descent(g *Geom, t float64) probe {
	if t <= 0 {
		return probe{}
	}
	if t > g.NK && g.NK > 0 {
		t = g.NK
	}
	p := probe{t: t}
	tk := t
	for k := len(g.Levels) - 1; k >= 0; k-- {
		lv := g.Levels[k]
		a := Yao(tk, lv.NRec, lv.Pages)
		if lv.NRec == 0 { // empty index: still one root access
			a = 1
		}
		if k == len(g.Levels)-1 {
			p.leaf = a
		} else {
			p.inner += a
		}
		tk = a
	}
	return p
}

// lastProbe is the latest descent through one structure, which the next
// request re-uses when it asks for the same number of records: the classes
// of a level do, and often consecutive levels (a single-valued chain
// reaches one key from every level; a fan-out product that has hit the
// key cardinality stays there). The zero value descended no records.
type lastProbe struct {
	asked float64
	probe
}

// descent is descent(g, t), for the one g lp is used with.
func (lp *lastProbe) descent(g *Geom, t float64) probe {
	if t != lp.asked {
		lp.asked, lp.probe = t, descent(g, t)
	}
	return lp.probe
}

// CRT is the retrieval cost of a set of t index records (Section 3.1):
//
//	ln <= p: sum_{k=1}^{h} npa(t_k, n_k, p_k)
//	ln >  p: sum_{k=1}^{h-1} npa(t_k, n_k, p_k) + t * pr
//
// pr as in CRL (pr <= 0 retrieves whole records). For t == 1 this reduces
// to CRL, unifying the equality-predicate case.
func CRT(g *Geom, t, pr float64) float64 { return descent(g, t).crt(g, pr) }

// crt prices the retrieval of the probe's records at pr pages each.
func (p probe) crt(g *Geom, pr float64) float64 {
	if !g.MultiPage() {
		return p.inner + p.leaf
	}
	if pr <= 0 {
		pr = g.RecordPages()
	}
	return p.inner + p.t*pr
}

// CMT is the maintenance cost of t index records (Section 3.1):
//
//	ln <= p: sum_{k=1}^{h} npa(t_k, n_k, p_k) + npa(t_h, n_h, p_h)
//	         (each touched leaf page is fetched once and rewritten once)
//	ln >  p: sum_{k=1}^{h-1} npa(t_k, n_k, p_k) + 2 * t * pm
//
// pm is the number of record pages modified per record (pm <= 0 defaults
// to 1: one relevant page read and rewritten per record).
func CMT(g *Geom, t, pm float64) float64 { return descent(g, t).cmt(g, pm) }

// cmt prices the maintenance of the probe's records at pm pages each.
func (p probe) cmt(g *Geom, pm float64) float64 {
	if !g.MultiPage() {
		return p.inner + 2*p.leaf
	}
	if pm <= 0 {
		pm = 1
	}
	return p.inner + 2*p.t*pm
}

// CRR is the cost of rewriting t auxiliary index records (Section 3.1, NIX
// deletion step 2): when auxiliary records fit in a page the touched leaf
// pages are estimated with Yao over the auxiliary leaf level; otherwise
// each record costs its own page count.
func CRR(t float64, aux *Geom) float64 {
	if t <= 0 || aux == nil {
		return 0
	}
	if t > aux.NK && aux.NK > 0 {
		t = aux.NK
	}
	if !aux.MultiPage() {
		return Yao(t, aux.NK, aux.LeafPages)
	}
	return t * aux.RecordPages()
}

// ceilDiv returns ceil(a/b) as float64 for positive b.
func ceilDiv(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return math.Ceil(a / b)
}
