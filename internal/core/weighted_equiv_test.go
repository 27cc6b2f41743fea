package core_test

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/model"
	"repro/internal/stats"
)

// selectMultiRef is a reference reimplementation of SelectMulti as it
// stood before workload weighting existed: per-path selection over the
// caller's statistics followed by the sharing merge, with no snapshot
// consultation anywhere. The weighted entry point must degrade to this
// exactly when the snapshot is empty — the differential below is the
// contract, not a tautology, because this copy never calls into the
// weighting code at all.
func selectMultiRef(t *testing.T, pss []*model.PathStats, orgs []cost.Organization) core.MultiPlan {
	t.Helper()
	var mp core.MultiPlan
	type physical struct {
		maint float64
		n     int
	}
	structures := make(map[string]*physical)
	for _, ps := range pss {
		res, m, err := core.Select(ps, orgs)
		if err != nil {
			t.Fatal(err)
		}
		mp.Configs = append(mp.Configs, res.Best)
		mp.UnsharedCost += res.Best.Cost
		for _, asg := range res.Best.Assignments {
			sp, err := ps.Path.SubPath(asg.A, asg.B)
			if err != nil {
				t.Fatal(err)
			}
			entry, ok := m.Entry(asg.A, asg.B, asg.Org)
			if !ok {
				t.Fatalf("ref: missing matrix entry for %s", sp)
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
	// Sum the per-structure maintenance in sorted key order so the
	// reference itself is deterministic across runs.
	keys := make([]string, 0, len(structures))
	for key := range structures {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		st := structures[key]
		mp.TotalCost += st.maint
		if st.n > 1 {
			mp.SharedSubpaths = append(mp.SharedSubpaths, key)
		}
	}
	sort.Strings(mp.SharedSubpaths)
	return mp
}

// closeEnough compares two cost totals up to float summation order: the
// production merge accumulates per-structure maintenance in map order,
// the reference in sorted order, so the sums may differ in the last few
// bits while every addend is bit-identical.
func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*scale
}

// TestWeightedEmptySnapshotBitIdentical pins the degradation contract:
// with a zero-valued snapshot (the literal zero value and an allocated
// but all-zero one), SelectMultiWeighted's output is the pre-weighting
// SelectMulti output on the caller's statistics — identical per-path
// configurations, assignment for assignment and cost bit for bit —
// across randomized schema sets. WeightedPathStats must also return the
// caller's slice itself, not clones: the identity, not a copy.
func TestWeightedEmptySnapshotBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(941))
	for trial := 0; trial < 6; trial++ {
		var pss []*model.PathStats
		for _, n := range []int{4, 8, 12} {
			pss = append(pss, randomChainStats(t, rng, n))
		}
		orgs := cost.Organizations
		if trial%2 == 1 {
			orgs = cost.OrganizationsExtended
		}

		// An allocated-but-zero snapshot must behave like the zero value:
		// counters exist, evidence does not.
		zeroed := stats.Workload{
			Classes:    []stats.ClassLoad{{Level: 1, Class: "C1"}},
			Predicates: []stats.PredLoad{{Path: pss[0].Path.String()}},
		}
		for _, w := range []stats.Workload{{}, zeroed} {
			work, flags, err := core.WeightedPathStats(pss, w)
			if err != nil {
				t.Fatal(err)
			}
			if flags != nil {
				t.Fatalf("trial %d: empty snapshot flagged shed candidates: %v", trial, flags)
			}
			for i := range pss {
				if work[i] != pss[i] {
					t.Fatalf("trial %d: empty snapshot cloned stats for path %d instead of returning them unchanged", trial, i)
				}
			}

			got, err := core.SelectMultiWeighted(pss, orgs, w)
			if err != nil {
				t.Fatal(err)
			}
			want := selectMultiRef(t, pss, orgs)
			if !reflect.DeepEqual(got.Configs, want.Configs) {
				t.Fatalf("trial %d: weighted configs diverge from reference under empty snapshot:\n got %+v\nwant %+v", trial, got.Configs, want.Configs)
			}
			if got.UnsharedCost != want.UnsharedCost {
				t.Fatalf("trial %d: UnsharedCost %v != %v", trial, got.UnsharedCost, want.UnsharedCost)
			}
			if !reflect.DeepEqual(got.SharedSubpaths, want.SharedSubpaths) {
				t.Fatalf("trial %d: SharedSubpaths %v != %v", trial, got.SharedSubpaths, want.SharedSubpaths)
			}
			if !closeEnough(got.TotalCost, want.TotalCost) {
				t.Fatalf("trial %d: TotalCost %v != %v", trial, got.TotalCost, want.TotalCost)
			}
		}
	}
}

// randomSnapshot builds a randomized workload snapshot covering the
// given paths: per-(level, class) operation counters over each path's
// own scope plus a per-path predicate mix with equality, range and
// residual leaves. The counts are deliberately skewed (one path drawn
// far hotter than the rest) so weighting has something to bite on.
func randomSnapshot(rng *rand.Rand, pss []*model.PathStats) stats.Workload {
	var w stats.Workload
	for i, ps := range pss {
		scale := uint64(1)
		if i == 0 {
			scale = 20 // skew: the first path is the hot one
		}
		for l := 1; l <= ps.Len(); l++ {
			for _, c := range ps.Level(l).Classes {
				cl := stats.ClassLoad{
					Level:   l,
					Class:   c.Class,
					Queries: scale * uint64(1+rng.Intn(200)),
					Inserts: scale * uint64(rng.Intn(40)),
					Deletes: scale * uint64(rng.Intn(40)),
					Updates: scale * uint64(rng.Intn(40)),
				}
				w.Classes = append(w.Classes, cl)
				w.Total += cl.Ops()
			}
		}
		w.Predicates = append(w.Predicates, stats.PredLoad{
			Path:     ps.Path.String(),
			Eq:       scale * uint64(rng.Intn(100)),
			Range:    scale * uint64(rng.Intn(100)),
			Residual: scale * uint64(rng.Intn(300)),
		})
	}
	return w
}

// TestWeightedSelectionOptimalUnderWeights is the optimality property:
// under a non-empty snapshot, the configuration SelectMultiWeighted
// picks for each path has modeled cost (on that path's workload-
// weighted matrix) no worse than every alternative configuration the
// exhaustive 2^(n-1) split enumeration can produce under the same
// weights, and agrees with Exhaustive's optimum on that matrix.
func TestWeightedSelectionOptimalUnderWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(942))
	for trial := 0; trial < 4; trial++ {
		var pss []*model.PathStats
		for _, n := range []int{4, 8, 12} {
			pss = append(pss, randomChainStats(t, rng, n))
		}
		orgs := cost.Organizations
		if trial%2 == 1 {
			orgs = cost.OrganizationsExtended
		}
		w := randomSnapshot(rng, pss)

		plan, err := core.SelectMultiWeighted(pss, orgs, w)
		if err != nil {
			t.Fatal(err)
		}
		weighted, flags, err := core.WeightedPathStats(pss, w)
		if err != nil {
			t.Fatal(err)
		}
		for i, ps := range weighted {
			if flags != nil && flags[i] {
				continue // shed path: optimality is vacuous under zero load
			}
			if ps == pss[i] {
				t.Fatalf("trial %d: non-empty snapshot did not clone path %d", trial, i)
			}
			m, err := core.NewMatrixFromStats(ps, orgs)
			if err != nil {
				t.Fatal(err)
			}
			chosen, err := m.ConfigurationCost(plan.Configs[i])
			if err != nil {
				t.Fatalf("trial %d path %d: chosen configuration does not price on the weighted matrix: %v", trial, i, err)
			}
			n := ps.Len()
			best := math.Inf(1)
			for mask := 0; mask < 1<<(n-1); mask++ {
				var alt float64
				a := 1
				for b := 1; b <= n; b++ {
					if b == n || mask&(1<<(b-1)) != 0 {
						_, v := m.MinCost(a, b)
						alt += v
						a = b + 1
					}
				}
				if chosen > alt*(1+1e-9) {
					t.Fatalf("trial %d path %d: chosen cost %v beaten by split mask %b costing %v", trial, i, chosen, mask, alt)
				}
				if alt < best {
					best = alt
				}
			}
			ex := m.Exhaustive()
			if !closeEnough(ex.Best.Cost, best) {
				t.Fatalf("trial %d path %d: Exhaustive optimum %v disagrees with mask enumeration %v", trial, i, ex.Best.Cost, best)
			}
			if !closeEnough(chosen, best) {
				t.Fatalf("trial %d path %d: chosen cost %v is not the enumerated optimum %v", trial, i, chosen, best)
			}
		}
	}
}

// TestWeightedShedsUnobservedPath pins the shedding contract: a path the
// snapshot never mentions (no class counters in its scope, no predicate
// leaves against it) is assigned the explicit whole-path NONE
// configuration when NONE is a candidate organization, and keeps an
// ordinary (indexed) zero-weighted selection when it is not.
func TestWeightedShedsUnobservedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(943))
	hot := randomChainStats(t, rng, 8)
	cold := randomChainStats(t, rng, 4)
	pss := []*model.PathStats{hot, cold}

	// Traffic strictly above the cold path's levels: the chain schemas
	// share class names C1..Cn, so evidence at levels 5..8 (C5..C8) plus
	// the hot path's own predicate leaves is visible to the hot path only.
	var w stats.Workload
	for l := 5; l <= hot.Len(); l++ {
		for _, c := range hot.Level(l).Classes {
			cl := stats.ClassLoad{Level: l, Class: c.Class, Queries: 500, Updates: 50}
			w.Classes = append(w.Classes, cl)
			w.Total += cl.Ops()
		}
	}
	w.Predicates = []stats.PredLoad{{Path: hot.Path.String(), Eq: 200, Range: 120, Residual: 400}}

	plan, err := core.SelectMultiWeighted(pss, cost.OrganizationsExtended, w)
	if err != nil {
		t.Fatal(err)
	}
	wantShed := core.Configuration{Assignments: []core.Assignment{{A: 1, B: cold.Len(), Org: cost.NONE}}}
	if !plan.Configs[1].Equal(wantShed) {
		t.Fatalf("unobserved path kept %+v, want whole-path NONE", plan.Configs[1])
	}
	if len(plan.Configs[0].Assignments) == 0 || plan.Configs[0].Assignments[0].Org == cost.NONE && len(plan.Configs[0].Assignments) == 1 {
		t.Fatalf("observed path was shed: %+v", plan.Configs[0])
	}

	// Without NONE among the candidates there is nothing to shed to: the
	// cold path keeps a valid configuration over the supported columns.
	plan, err = core.SelectMultiWeighted(pss, cost.Organizations, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Configs[1].Validate(cold.Len()); err != nil {
		t.Fatalf("cold path configuration invalid without NONE: %v", err)
	}
	for _, asg := range plan.Configs[1].Assignments {
		if asg.Org == cost.NONE {
			t.Fatalf("NONE assigned without being a candidate: %+v", plan.Configs[1])
		}
	}
}
