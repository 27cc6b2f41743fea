package cost

// Section 6 of the paper: "The incorporation of path and nested indices
// [6,2] can be done straightforward since we may verify easily that the
// maintenance and retrieval costs on a subpath indexed by these types can
// be estimated independently of other subpaths." This file implements that
// incorporation as two further organizations selectable in the matrix:
//
//   - NX, the nested index of Bertino & Kim [1]: one B+-tree mapping each
//     ending value to the OIDs of the subpath's *starting* class hierarchy
//     reaching it. Queries with respect to the starting class cost one
//     record retrieval; queries with respect to inner classes are not
//     supported by the structure and fall back to scanning; maintenance
//     for inner-level updates must locate starting-class ancestors without
//     an auxiliary structure, i.e. by scanning the preceding hierarchies.
//
//   - PX, the path index of [6]: one B+-tree mapping each ending value to
//     the set of full path instantiations (OID sequences) reaching it.
//     Queries with respect to any class project one component of the
//     instantiations, at the price of reading whole (large) records;
//     maintenance locates affected records by forward navigation from the
//     updated object (no scans, no auxiliary index), paying object reads.
//
// Both models are reconstructions in the spirit of the cited work (the
// originals model a single whole-path index); DESIGN.md records them as
// extensions.

const (
	// PX is the path index of [6] (extension organization).
	PX Organization = iota + 100
	// NX is the nested index of [1] (extension organization).
	NX
)

// OrganizationsExtended is the full column set: the paper's three plus the
// Section 6 incorporations and the no-index option.
var OrganizationsExtended = []Organization{MX, MIX, NIX, PX, NX, NONE}

// extRecordLen is the average record length of the PX or NX structure of
// the evaluator's subpath, keyed by the ending attribute's values.
func (e *Evaluator) extRecordLen() float64 {
	sh, p := e.sh, e.PS.Params
	if e.Org == NX {
		// Entries: the starting-hierarchy OIDs per ending value.
		var entries float64
		for x := range sh.lv[e.A-1].k {
			entries += sh.noidS(e.A, x, e.B)
		}
		return float64(p.RecHeader) + entries*float64(p.OidLen)
	}
	// PX entries: full instantiations. The number of instantiations from
	// one starting object is the product of the fan-outs along the
	// subpath; per key it is the total divided by the key count.
	perKey := sh.lv[e.A-1].nTotal * sh.tab(sh.fan, e.A, e.B)
	if nk := sh.lv[e.B-1].dMax; nk > 0 {
		perKey /= nk
	}
	pathLen := float64(e.B-e.A+1) * float64(p.OidLen)
	return float64(p.RecHeader) + perKey*pathLen
}

// extMaintain prices insertion or deletion of an object at level l for the
// extension organizations. Deleting an inner object also invalidates the
// instantiations of its ancestors through it; those live in the same
// records the maintenance already fetches, so both operations cost alike.
// reach is the descent of the nin̄(l,B) records reachable from the object.
func (e *Evaluator) extMaintain(l int, reach probe) float64 {
	sh, g := e.sh, &e.primary
	// Forward navigation from the object yields the affected keys, one
	// object page per visited object.
	s := sh.tab(sh.nav, l, e.B)
	if e.Org == PX {
		// Each record is rewritten (instantiations added or removed);
		// whole records are touched: pm = record pages.
		return s + reach.cmt(g, g.RecordPages())
	}
	if l > e.A {
		// NX inner-level update: the affected starting objects can only
		// be found by scanning the preceding hierarchies (no auxiliary
		// index), then re-evaluating their membership.
		s = sh.scanPages(e.A, l-1) + s
	}
	return s + reach.cmt(g, 1)
}
