package core

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/model"
	"repro/internal/stats"
)

// MultiPlan is the result of selecting configurations for several paths
// (the Section 6 "further research" extension): per-path configurations
// plus the deduplicated set of physical subpath indexes, where paths
// sharing a structurally identical indexed subpath share one structure.
type MultiPlan struct {
	// Configs holds the optimal configuration of each input path.
	Configs []Configuration
	// SharedSubpaths lists the physical structures shared by at least two
	// paths, rendered as "Class.Attr...Attr/ORG".
	SharedSubpaths []string
	// TotalCost is the summed processing cost after sharing: a shared
	// structure's maintenance-only duplicates are counted once.
	TotalCost float64
	// UnsharedCost is the cost without sharing (the sum of the per-path
	// optima), for comparison.
	UnsharedCost float64
}

// SelectMulti selects configurations for several paths and merges
// structurally identical indexed subpaths. Paths must share a schema.
// The per-path selections run one after another on the calling goroutine
// (concurrency over many paths is the caller's); the merge is deterministic
// in input order. Selection weighs each path by its own statistics' load
// triplets; SelectMultiWeighted re-derives those triplets from a recorded
// workload snapshot first.
func SelectMulti(pss []*model.PathStats, orgs []cost.Organization) (MultiPlan, error) {
	return SelectMultiWeighted(pss, orgs, stats.Workload{})
}

// SelectMultiWeighted is SelectMulti with the paths' load triplets
// re-derived from an observed workload snapshot — the closed feedback
// loop the paper's Section 6 points toward: selection weighs each path by
// the traffic it actually served, not by the analytic defaults.
//
//   - Each path's per-(level, class) query/update frequencies come from
//     the snapshot's class counters, normalized by the fleet-wide
//     evidence total (Workload.Evidence), so paths keep their relative
//     traffic: a path serving most of the observed operations carries
//     most of the load mass into the shared-subpath cost merge.
//   - The snapshot's predicate mix (Workload.Predicates) refines each
//     path's derivation the way stats.MergeObserved documents: recorded
//     range probes move query mass to range pricing, and residual leaves
//     — conjunct evaluations served by store navigation because the path
//     had no index — enter as root-class query load. A residual-heavy
//     path therefore earns an index on its cost merits.
//   - A path with no observed traffic at all (no class counters in its
//     scope, no predicate leaves against it) sheds its indexes: when NONE
//     is among the candidate organizations its configuration is the
//     explicit whole-path NONE assignment; otherwise it keeps a
//     zero-weighted selection (all candidates cost zero under zero load,
//     and the deterministic tie-break applies).
//
// A zero-valued snapshot (no operations, no predicates) disables
// weighting entirely: the result is bit-identical to SelectMulti on the
// caller's statistics, the degradation contract the weighted-equivalence
// property suite enforces.
func SelectMultiWeighted(pss []*model.PathStats, orgs []cost.Organization, w stats.Workload) (MultiPlan, error) {
	var mp MultiPlan
	if len(pss) == 0 {
		return mp, fmt.Errorf("core: no paths given")
	}
	work, zero, err := WeightedPathStats(pss, w)
	if err != nil {
		return mp, err
	}
	shedToNone := hasOrg(orgs, cost.NONE)
	// Sharing model: a physical structure (identical subpath and
	// organization) is maintained once, so its maintenance cost (including
	// the Definition 4.2 boundary charge) is counted once across paths;
	// each path's query load on the structure is genuinely additional and
	// is charged per path.
	type physical struct {
		maint float64 // maximum per-path maintenance cost (identical stats
		// yield identical values; max is the conservative merge)
		n int
	}
	structures := make(map[string]*physical)
	for i, ps := range work {
		// Each path's matrix is kept until its assignments are merged: the
		// sharing model reads the cells' cost decomposition.
		res, m, err := Select(ps, orgs)
		if err != nil {
			return mp, err
		}
		if zero != nil && zero[i] && shedToNone {
			// Never-probed path: the observed workload gives no reason to
			// pay any maintenance, so the explicit shed — one whole-path
			// NONE assignment — replaces whatever the zero-load tie-break
			// picked. Its cost under zero load is zero by construction.
			res.Best = Configuration{Assignments: []Assignment{{A: 1, B: ps.Len(), Org: cost.NONE}}}
		}
		mp.Configs = append(mp.Configs, res.Best)
		mp.UnsharedCost += res.Best.Cost
		for _, asg := range res.Best.Assignments {
			sp, err := ps.Path.SubPath(asg.A, asg.B)
			if err != nil {
				return mp, err
			}
			entry, ok := m.Entry(asg.A, asg.B, asg.Org)
			if !ok {
				return mp, fmt.Errorf("core: missing matrix entry for %s", sp)
			}
			key := sp.String() + "/" + asg.Org.String()
			maint := entry.SC.Maint + entry.SC.CMD
			mp.TotalCost += entry.SC.Query
			if st, ok := structures[key]; ok {
				st.n++
				if maint > st.maint {
					st.maint = maint
				}
			} else {
				structures[key] = &physical{maint: maint, n: 1}
			}
		}
	}
	for key, st := range structures {
		mp.TotalCost += st.maint
		if st.n > 1 {
			mp.SharedSubpaths = append(mp.SharedSubpaths, key)
		}
	}
	sort.Strings(mp.SharedSubpaths)
	return mp, nil
}

// WeightedPathStats re-derives each path's load triplets from the
// observed snapshot: clones of pss with loads replaced by the snapshot's
// per-class frequencies normalized over the fleet-wide evidence total
// (stats.MergeObservedScaled), plus a flag per path reporting that the
// snapshot holds no traffic for it (its clone carries all-zero loads —
// the shed candidate). With a zero-valued snapshot it returns pss itself,
// unchanged and unflagged: weighting degrades to the identity.
func WeightedPathStats(pss []*model.PathStats, w stats.Workload) ([]*model.PathStats, []bool, error) {
	ev := w.Evidence()
	if ev == 0 {
		return pss, nil, nil
	}
	total := float64(ev)
	out := make([]*model.PathStats, len(pss))
	zero := make([]bool, len(pss))
	for i, ps := range pss {
		if ps == nil {
			return nil, nil, fmt.Errorf("core: nil path stats at slot %d", i)
		}
		c := ps.Clone()
		if pathObserved(ps, w) {
			if err := stats.MergeObservedScaled(c, w, total); err != nil {
				return nil, nil, err
			}
		} else {
			for l := 1; l <= c.Len(); l++ {
				ls := c.Level(l)
				for x := range ls.Loads {
					ls.Loads[x] = model.Load{}
				}
			}
			zero[i] = true
		}
		out[i] = c
	}
	return out, zero, nil
}

// pathObserved reports whether the snapshot holds any traffic evidence
// for the path: a non-zero class counter within the path's scope, or any
// predicate leaf recorded against it.
func pathObserved(ps *model.PathStats, w stats.Workload) bool {
	name := ps.Path.String()
	for _, p := range w.Predicates {
		if p.Path == name && p.Ops() > 0 {
			return true
		}
	}
	type cell struct {
		level int
		class string
	}
	scope := make(map[cell]bool)
	for l := 1; l <= ps.Len(); l++ {
		for _, c := range ps.Level(l).Classes {
			scope[cell{l, c.Class}] = true
		}
	}
	for _, c := range w.Classes {
		if c.Ops() > 0 && scope[cell{c.Level, c.Class}] {
			return true
		}
	}
	return false
}

// hasOrg reports whether org is among the candidate columns (nil means
// the paper's default set, which does not include NONE).
func hasOrg(orgs []cost.Organization, org cost.Organization) bool {
	for _, o := range orgs {
		if o == org {
			return true
		}
	}
	return false
}
