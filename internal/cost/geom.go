package cost

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/model"
)

// LevelGeom describes one level of a B+-tree for Yao-based traversal
// estimates: NRec records spread over Pages pages.
type LevelGeom struct {
	NRec  float64
	Pages float64
}

// Geom is the physical geometry of one index structure: a B+-tree whose
// leaf level stores NK index records of average length Ln bytes. When a
// record exceeds the page size, the leaf level consists of the record pages
// themselves and the level above is a directory with one entry per record
// (the paper's "index record occupies more than one page" case).
type Geom struct {
	NK        float64     // number of index records (distinct key values)
	Ln        float64     // average record length in bytes
	PageSize  float64     // p
	Fanout    float64     // non-leaf fan-out
	Levels    []LevelGeom // Levels[0] = root ... Levels[h-1] = leaf/record level
	LeafPages float64     // pages of the leaf/record level
}

// Height returns h: the number of levels, including the leaf/record level.
func (g *Geom) Height() int { return len(g.Levels) }

// MultiPage reports whether the average record exceeds one page.
func (g *Geom) MultiPage() bool { return g.Ln > g.PageSize }

// RecordPages returns ceil(Ln/p), the pages one record occupies (at least 1).
func (g *Geom) RecordPages() float64 {
	if g.Ln <= 0 || g.PageSize <= 0 {
		return 1
	}
	return math.Max(1, math.Ceil(g.Ln/g.PageSize))
}

// maxTreeHeight is the height geometry scratch is dimensioned for: with the
// paper's fan-out of 64 a tree of 16 levels indexes 10^27 records. A taller
// tree spills to the heap.
const maxTreeHeight = 16

// NewGeom derives the geometry of an index with nk records of average
// length ln bytes on pages of pageSize bytes, with non-leaf entries of
// entryLen bytes (key + pointer). It implements the height computation the
// paper delegates to its extended report: leaf pages = ceil(nk*ln/p) for
// records within a page, nk*ceil(ln/p) otherwise; each non-leaf level has
// one entry per node of the level below, up to a single root.
func NewGeom(nk, ln, pageSize float64, entryLen float64) (*Geom, error) {
	var buf [maxTreeHeight]LevelGeom
	g := new(Geom)
	levels, err := g.set(nk, ln, pageSize, entryLen, &buf)
	if err != nil {
		return nil, err
	}
	g.Levels = slices.Clone(levels)
	return g, nil
}

// set computes the geometry in place, leaving Levels to the caller: the
// levels are returned, root first, built in buf.
func (g *Geom) set(nk, ln, pageSize, entryLen float64, buf *[maxTreeHeight]LevelGeom) ([]LevelGeom, error) {
	if pageSize <= 0 || entryLen <= 0 || 2*entryLen > pageSize { // a fan-out below 2 never reaches a root
		return nil, fmt.Errorf("cost: invalid geometry parameters page=%g entry=%g", pageSize, entryLen)
	}
	if !(nk >= 0 && ln >= 0) {
		return nil, fmt.Errorf("cost: negative geometry inputs nk=%g ln=%g", nk, ln)
	}
	*g = Geom{NK: nk, Ln: ln, PageSize: pageSize, Fanout: math.Floor(pageSize / entryLen)}
	levels := buf[:0]
	switch {
	case nk == 0:
		// Empty index: a single (empty) root page.
		g.LeafPages = 1
		return append(levels, LevelGeom{NRec: 0, Pages: 1}), nil
	case ln <= pageSize:
		g.LeafPages = math.Ceil(nk * ln / pageSize)
		levels = append(levels, LevelGeom{NRec: nk, Pages: g.LeafPages})
	default:
		g.LeafPages = nk * math.Ceil(ln/pageSize)
		// Directory level with one entry per (multi-page) record.
		levels = append(levels, LevelGeom{NRec: nk, Pages: g.LeafPages}, LevelGeom{NRec: nk, Pages: math.Ceil(nk / g.Fanout)})
	}
	if math.IsInf(g.LeafPages, 0) || math.IsNaN(g.LeafPages) {
		return nil, fmt.Errorf("cost: geometry overflows: %g records of %g bytes", nk, ln)
	}
	for levels[len(levels)-1].Pages > 1 {
		below := levels[len(levels)-1].Pages
		levels = append(levels, LevelGeom{NRec: below, Pages: math.Ceil(below / g.Fanout)})
	}
	slices.Reverse(levels) // built leaf first
	return levels, nil
}

// place is set for an index on p's pages whose levels live in buf.
func (g *Geom) place(buf *[maxTreeHeight]LevelGeom, nk, ln float64, p model.Params) (err error) {
	g.Levels, err = g.set(nk, ln, float64(p.PageSize), float64(p.KeyLen+p.PtrLen), buf)
	return err
}
