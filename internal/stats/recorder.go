package stats

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/schema"
)

// Op identifies one recorded operation kind. Queries, insertions and
// deletions mirror the Section 3.2 workload triplet (alpha, beta, gamma);
// in-place updates are recorded as their own kind and mapped onto the
// triplet — half an insertion plus half a deletion, the entry-replacement
// work an update costs an index — when a snapshot is normalized for the
// cost model (MergeObserved, LoadDrift).
type Op uint8

const (
	OpQuery Op = iota
	OpInsert
	OpDelete
	OpUpdate
	numOps
)

// padCount is one atomic counter padded out to a cache line, so
// GOMAXPROCS-parallel recorders of different (class, operation) cells
// never false-share.
type padCount struct {
	v atomic.Uint64
	_ [56]byte
}

// Recorder counts the live workload over one path's scope. Counters are
// per (level, class, operation), atomic and cache-line padded — recording
// is lock-free and contention-free across cells, so it can sit on the
// executor's query and update paths without serializing them. There is
// deliberately no shared total counter (it would put every operation on
// one cache line); totals are summed over the cells on read. Every class
// of the path's scope lives at exactly one level (schema.NewPath rejects
// overlapping level hierarchies), the level the executor resolves it to.
type Recorder struct {
	slot    map[string]int // class -> slot; read-only after construction
	classes []recClass     // slot -> (level, class)
	counts  []padCount
}

type recClass struct {
	level int
	class string
}

// NewRecorder returns a zeroed recorder for the path's scope.
func NewRecorder(p *schema.Path) *Recorder {
	r := &Recorder{slot: make(map[string]int)}
	for l := 1; l <= p.Len(); l++ {
		for _, cn := range p.HierarchyAt(l) {
			r.slot[cn] = len(r.classes)
			r.classes = append(r.classes, recClass{level: l, class: cn})
		}
	}
	r.counts = make([]padCount, len(r.classes)*int(numOps))
	return r
}

// Record counts one operation against a class, returning false when the
// class is outside the path's scope (nothing is counted then).
func (r *Recorder) Record(class string, op Op) bool {
	if r == nil || op >= numOps {
		return false
	}
	i, ok := r.slot[class]
	if !ok {
		return false
	}
	r.counts[i*int(numOps)+int(op)].v.Add(1)
	return true
}

// Total returns the number of operations recorded since the last reset.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	var t uint64
	for i := range r.counts {
		t += r.counts[i].v.Load()
	}
	return t
}

// Reset zeroes all counters. Concurrent Records may land on either side
// of the reset; the counters are workload statistics, not a ledger.
func (r *Recorder) Reset() {
	for i := range r.counts {
		r.counts[i].v.Store(0)
	}
}

// ClassLoad is one class's observed operation counts.
type ClassLoad struct {
	Level   int
	Class   string
	Queries uint64
	Inserts uint64
	Deletes uint64
	Updates uint64
}

// Ops returns the class's total operation count.
func (c ClassLoad) Ops() uint64 { return c.Queries + c.Inserts + c.Deletes + c.Updates }

// Workload is a point-in-time view of the recorded traffic: one entry per
// class of the path's scope, in path order. Total is the sum over entries
// (recomputed from the per-class counters, so it is internally consistent
// even when taken mid-traffic).
//
// Predicates, when the engine serves as a planner source, carries the
// observed multi-path predicate mix (per-path equality/range/residual
// leaf counts) alongside the class-level triplet counts — so drift
// consumers and SelectMulti see conjunctions over several paths, not
// just single-path traffic.
type Workload struct {
	Total      uint64
	Classes    []ClassLoad
	Predicates []PredLoad
}

// Snapshot captures the current counters.
func (r *Recorder) Snapshot() Workload {
	var w Workload
	w.Classes = make([]ClassLoad, len(r.classes))
	for i, rc := range r.classes {
		c := ClassLoad{
			Level:   rc.level,
			Class:   rc.class,
			Queries: r.counts[i*int(numOps)+int(OpQuery)].v.Load(),
			Inserts: r.counts[i*int(numOps)+int(OpInsert)].v.Load(),
			Deletes: r.counts[i*int(numOps)+int(OpDelete)].v.Load(),
			Updates: r.counts[i*int(numOps)+int(OpUpdate)].v.Load(),
		}
		w.Classes[i] = c
		w.Total += c.Ops()
	}
	return w
}

// MergeWorkloads sums several workload snapshots cell-wise into one —
// the global roll-up over a sharded deployment's per-shard recorders.
// Entries are matched by (level, class); classes keep the order of their
// first appearance, which for recorders over the same path (the sharded
// case) is path order in every input. The result is a plain aggregate:
// feeding it to MergeObserved or LoadDrift prices the fleet-wide mix,
// while the per-shard snapshots price each partition's own mix.
func MergeWorkloads(ws ...Workload) Workload {
	var out Workload
	type cell struct {
		level int
		class string
	}
	pos := make(map[cell]int)
	var preds [][]PredLoad
	for _, w := range ws {
		if len(w.Predicates) > 0 {
			preds = append(preds, w.Predicates)
		}
		for _, c := range w.Classes {
			key := cell{c.Level, c.Class}
			i, ok := pos[key]
			if !ok {
				i = len(out.Classes)
				pos[key] = i
				out.Classes = append(out.Classes, ClassLoad{Level: c.Level, Class: c.Class})
			}
			o := &out.Classes[i]
			o.Queries += c.Queries
			o.Inserts += c.Inserts
			o.Deletes += c.Deletes
			o.Updates += c.Updates
			out.Total += c.Ops()
		}
	}
	if len(preds) > 0 {
		out.Predicates = MergePredLoads(preds...)
	}
	return out
}

// Evidence returns the total operation count backing a selection: the
// class-level recorded operations plus every path's residual predicate
// leaves. Residual leaves are answered by store navigation, never by an
// engine query, so they are invisible to the class recorder — yet they
// are exactly the traffic an index would absorb, so they count as
// selection evidence.
func (w Workload) Evidence() uint64 {
	t := w.Total
	for _, p := range w.Predicates {
		t += p.Residual
	}
	return t
}

// EvidenceFor is Evidence restricted to one path: class-level operations
// plus that path's own residual leaves. This is the normalization total
// MergeObserved uses for a single-path engine.
func (w Workload) EvidenceFor(path string) uint64 {
	return w.Total + predFor(w.Predicates, path).Residual
}

// totalQueries sums the recorded class-level query counts.
func totalQueries(w Workload) uint64 {
	var q uint64
	for _, c := range w.Classes {
		q += c.Queries
	}
	return q
}

// foldPredicates derives the parameters the path's observed predicate mix
// adds to the class-level derivation: the fraction fr of recorded queries
// to reclassify as range predicates (indexed range probes land in the
// class recorder as plain queries; the predicate channel is what tells
// them apart), and the residual leaf count res. fr is pred.Range over the
// recorded query total — every recorded range probe reclassifies exactly
// one recorded query — capped at one.
func foldPredicates(path string, w Workload) (fr float64, res uint64) {
	p := predFor(w.Predicates, path)
	if q := totalQueries(w); q > 0 && p.Range > 0 {
		fr = float64(p.Range) / float64(q)
		if fr > 1 {
			fr = 1
		}
	}
	return fr, p.Residual
}

// MergeObserved writes the observed workload into ps's load triplets as
// relative frequencies normalized to sum one — the Section 3.2 form the
// cost model expects. Classes with no observed traffic get a zero triplet:
// the observation replaces the assumed workload rather than blending with
// it, so re-selection reflects what the system actually served.
//
// In-place updates, which the paper's triplet has no slot for, enter as
// half an insertion plus half a deletion: an update replaces index
// entries, so per operation it costs an organization about one entry
// removal plus one entry addition — the same page work the beta and gamma
// terms price. Each update still weighs exactly one operation in the
// normalization.
//
// When the snapshot carries a predicate mix for ps's path
// (Workload.Predicates), it refines the derivation two ways, both
// scale-invariant so re-observing the same mix reproduces the same
// loads (the feedback fixed point):
//
//   - recorded range probes reclassify an equal count of each class's
//     recorded queries from equality (Alpha) to range (Rho) pricing,
//     proportionally across classes;
//   - residual leaves — predicate evaluations served by store navigation,
//     which the class recorder never saw — enter the normalization total
//     and are charged as equality queries against the path's root class,
//     the retrieval class a planner probe would target if the path had an
//     index. A residual-heavy path therefore carries real query load into
//     selection and earns an index on its cost merits.
//
// With an empty predicate mix the derivation is exactly the historical
// one (all-Alpha queries), bit for bit.
func MergeObserved(ps *model.PathStats, w Workload) error {
	if ps == nil {
		return fmt.Errorf("stats: nil path stats")
	}
	fr, res := foldPredicates(ps.Path.String(), w)
	t := float64(w.Total) + float64(res)
	if t == 0 {
		return fmt.Errorf("stats: empty observed workload")
	}
	_, err := mergeObservedInto(ps, w, t, fr, res, false)
	return err
}

// MergeObservedScaled is MergeObserved normalizing by an explicit total —
// the fleet-wide evidence across several paths (Workload.Evidence) — and
// skipping observed classes outside ps's scope instead of erroring. One
// global snapshot can then weight several paths' statistics while
// preserving their relative traffic: a path serving 90% of the observed
// operations carries 90% of the load mass into its selection.
func MergeObservedScaled(ps *model.PathStats, w Workload, total float64) error {
	if ps == nil {
		return fmt.Errorf("stats: nil path stats")
	}
	if total <= 0 {
		return fmt.Errorf("stats: non-positive normalization total %g", total)
	}
	fr, res := foldPredicates(ps.Path.String(), w)
	_, err := mergeObservedInto(ps, w, total, fr, res, true)
	return err
}

// mergeObservedInto zeroes ps's loads and writes the Section 3.2
// derivation in over the normalization total t — the one place observed
// counts become load triplets: a class's queries split between equality
// (Alpha) and range (Rho) by fr, an in-place update counts as half an
// insertion plus half a deletion, and the res residual leaves count as
// equality queries against the root class. lenient skips observed classes
// outside ps's scope (the multi-path case, where one snapshot spans
// several overlapping paths) and returns the share of t they carried;
// otherwise the first such class is an error.
func mergeObservedInto(ps *model.PathStats, w Workload, t, fr float64, res uint64, lenient bool) (outside float64, err error) {
	for l := 1; l <= ps.Len(); l++ {
		ls := ps.Level(l)
		for i := range ls.Loads {
			ls.Loads[i] = model.Load{}
		}
	}
	for _, c := range w.Classes {
		if c.Ops() == 0 {
			continue
		}
		q := float64(c.Queries) / t
		ld := model.Load{
			Alpha: q * (1 - fr),
			Rho:   q * fr,
			Beta:  (float64(c.Inserts) + float64(c.Updates)/2) / t,
			Gamma: (float64(c.Deletes) + float64(c.Updates)/2) / t,
		}
		if err := ps.SetLoad(c.Level, c.Class, ld); err != nil {
			if !lenient {
				return 0, err
			}
			outside += float64(c.Ops()) / t
		}
	}
	if res > 0 {
		// The root class leads its level-1 hierarchy (LevelStats contract).
		ps.Level(1).Loads[0].Alpha += float64(res) / t
	}
	return outside, nil
}

// LoadDrift returns the total-variation distance in [0, 1] between the
// load distribution assumed by ps and the observed workload: both are
// normalized over the (level, class, operation) cells and half the L1
// distance is taken. Zero means the observed mix matches the assumption
// exactly; one means disjoint support. An all-zero assumption drifts
// maximally as soon as any traffic is observed.
//
// The observed side is what MergeObserved writes into a clone of ps —
// the same derivation, not a second one — so a baseline adopted from
// MergeObserved on a snapshot has zero drift against that same mix: the
// feedback loop's fixed point. Observed classes outside ps's scope count
// fully toward the distance.
func LoadDrift(ps *model.PathStats, w Workload) float64 {
	fr, res := foldPredicates(ps.Path.String(), w)
	t := float64(w.Total) + float64(res)
	if t == 0 {
		return 0
	}
	var assumedSum float64
	for l := 1; l <= ps.Len(); l++ {
		for _, ld := range ps.Level(l).Loads {
			assumedSum += ld.Alpha + ld.Beta + ld.Gamma + ld.Rho
		}
	}
	if assumedSum <= 0 {
		return 1
	}
	obs := ps.Clone()
	dist, _ := mergeObservedInto(obs, w, t, fr, res, true)
	for l := 1; l <= ps.Len(); l++ {
		o := obs.Level(l).Loads
		for i, a := range ps.Level(l).Loads {
			dist += math.Abs(a.Alpha/assumedSum - o[i].Alpha)
			dist += math.Abs(a.Beta/assumedSum - o[i].Beta)
			dist += math.Abs(a.Gamma/assumedSum - o[i].Gamma)
			dist += math.Abs(a.Rho/assumedSum - o[i].Rho)
		}
	}
	return dist / 2
}
