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

// descent computes the page accesses of retrieving t records through the
// tree: t_h = t at the leaf/record level and t_{k-1} = npa(t_k, n_k, p_k)
// going up. It returns t capped at the number of records, the accesses
// above the leaf/record level and those at it; no records cost nothing.
func descent(g *Geom, t float64) (records, inner, leaf float64) {
	if t <= 0 {
		return 0, 0, 0
	}
	if t > g.NK && g.NK > 0 {
		t = g.NK
	}
	tk := t
	for k := len(g.Levels) - 1; k >= 0; k-- {
		lv := g.Levels[k]
		a := Yao(tk, lv.NRec, lv.Pages)
		if lv.NRec == 0 { // empty index: still one root access
			a = 1
		}
		if k == len(g.Levels)-1 {
			leaf = a
		} else {
			inner += a
		}
		tk = a
	}
	return t, inner, leaf
}

// CRT is the retrieval cost of a set of t index records (Section 3.1):
//
//	ln <= p: sum_{k=1}^{h} npa(t_k, n_k, p_k)
//	ln >  p: sum_{k=1}^{h-1} npa(t_k, n_k, p_k) + t * pr
//
// pr as in CRL (pr <= 0 retrieves whole records). For t == 1 this reduces
// to CRL, unifying the equality-predicate case.
func CRT(g *Geom, t, pr float64) float64 {
	t, inner, leaf := descent(g, t)
	if !g.MultiPage() {
		return inner + leaf
	}
	if pr <= 0 {
		pr = g.RecordPages()
	}
	return inner + t*pr
}

// CMT is the maintenance cost of t index records (Section 3.1):
//
//	ln <= p: sum_{k=1}^{h} npa(t_k, n_k, p_k) + npa(t_h, n_h, p_h)
//	         (each touched leaf page is fetched once and rewritten once)
//	ln >  p: sum_{k=1}^{h-1} npa(t_k, n_k, p_k) + 2 * t * pm
//
// pm is the number of record pages modified per record (pm <= 0 defaults
// to 1: one relevant page read and rewritten per record).
func CMT(g *Geom, t, pm float64) float64 {
	t, inner, leaf := descent(g, t)
	if !g.MultiPage() {
		return inner + 2*leaf
	}
	if pm <= 0 {
		pm = 1
	}
	return inner + 2*t*pm
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
