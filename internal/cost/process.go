package cost

import "repro/internal/model"

// SubpathCost is the processing cost of subpath [A..B] under one
// organization: the workload-weighted sum of searching and maintenance
// costs (Sections 3.2 and 4), decomposed for reporting.
type SubpathCost struct {
	A, B  int
	Org   Organization
	Query float64 // searching cost, weighted by query frequencies
	Maint float64 // insertion + deletion maintenance, weighted
	CMD   float64 // Definition 4.2 boundary cost, weighted
}

// Total returns the full processing cost.
func (s SubpathCost) Total() float64 { return s.Query + s.Maint + s.CMD }

// ProcessingCost computes the processing cost of subpath [a..b] of ps under
// org. The workload model follows Section 3.2 exactly:
//
//   - Queries against the ending attribute with respect to each class in the
//     subpath's scope are charged at that class's Alpha frequency.
//   - If the subpath's starting class is not the path's starting class, the
//     query frequencies of every class preceding the subpath are added as
//     hierarchy-level queries against the subpath's starting class (those
//     queries must traverse this subpath too).
//   - Insertions and deletions on each class in the subpath's scope are
//     charged at Beta and Gamma.
//   - If the subpath does not end the path, deletions on the class hierarchy
//     that starts the following subpath charge the Definition 4.2 boundary
//     cost CMD to this subpath.
func ProcessingCost(e *Evaluator) SubpathCost {
	sh, a, b := e.sh, e.A, e.B
	out := SubpathCost{A: a, B: b, Org: e.Org}

	// With a positive Selectivity the workload's queries are range
	// predicates (Section 3's extension); otherwise equality predicates.
	// The Rho component is always priced as a range predicate — at the
	// declared Selectivity, or the default when the path declares none —
	// so an observed mixed equality/range mix prices each part correctly.
	alphaKeys, rhoKeys := 1.0, sh.rangeKeys
	if sh.ps.Selectivity > 0 {
		alphaKeys = rhoKeys
	}
	// One probe of the subpath's structures per key count in use; the
	// classes below price it, none repeats it.
	alphaProbe := e.probeFor(alphaKeys)
	rhoProbe := alphaProbe
	if rhoKeys > 0 && rhoKeys != alphaKeys {
		rhoProbe = e.probeFor(rhoKeys)
	}
	for l := a; l <= b; l++ {
		for x, ld := range sh.ps.Level(l).Loads {
			// Queries with respect to the classes of the subpath's own scope.
			if ld.Alpha > 0 {
				out.Query += ld.Alpha * e.query(l, x, alphaProbe)
			}
			if ld.Rho > 0 {
				out.Query += ld.Rho * e.query(l, x, rhoProbe)
			}
		}
	}
	// Inherited query load from the classes preceding the subpath.
	pre := sh.lv[a-1].before
	if pre.Alpha > 0 {
		out.Query += pre.Alpha * e.query(a, wholeHierarchy, alphaProbe)
	}
	if pre.Rho > 0 {
		out.Query += pre.Rho * e.query(a, wholeHierarchy, rhoProbe)
	}
	// Maintenance on the subpath's own scope; what the classes of a level
	// share is priced once per level that is maintained at all.
	var lm levelMaint
	for l := a; l <= b; l++ {
		if total := sh.lv[l-1].load; total.Beta <= 0 && total.Gamma <= 0 {
			continue
		}
		e.levelMaint(l, &lm)
		for x, ld := range sh.ps.Level(l).Loads {
			if ld.Beta <= 0 && ld.Gamma <= 0 {
				continue
			}
			ins, del := e.maintain(l, x, &lm)
			if ld.Beta > 0 {
				out.Maint += ld.Beta * ins
			}
			if ld.Gamma > 0 {
				out.Maint += ld.Gamma * del
			}
		}
	}
	// Boundary deletions (Definition 4.2).
	if b < sh.n {
		if gamma := sh.lv[b].load.Gamma; gamma > 0 {
			out.CMD = gamma * e.CMD()
		}
	}
	return out
}

// SubpathProcessingCost is a convenience wrapper building the level table
// and computing the processing cost of one subpath in one call.
func SubpathProcessingCost(ps *model.PathStats, a, b int, org Organization) (SubpathCost, error) {
	sh, err := NewShared(ps)
	if err != nil {
		return SubpathCost{}, err
	}
	e, err := sh.Evaluator(a, b, org)
	if err != nil {
		return SubpathCost{}, err
	}
	return ProcessingCost(e), nil
}
