// Package plan evaluates composable predicates over the indexed paths of
// an object store — the query planner layer above the single-path
// executor.
//
// The paper's machinery (and the executor built from it) answers one
// predicate shape: A_n = v or A_n IN [lo, hi) along one path. Real
// workloads conjoin predicates across several paths ("persons owning a
// vehicle made by company C, with age in [30, 40)") and disjoin
// alternatives. This package plans the one predicate tree
// (wire.PredNode, aliased here as Predicate) — Eq and Range leaves over
// schema paths, composed with And and Or — with a cost-ordered physical
// planner:
//
//	order     — the conjuncts of an And are probed cheapest-first, by
//	            estimated result cardinality: live observed sizes when
//	            the planner has seen the (path, operator) pair before,
//	            PathStats-derived estimates (N_target/D_ending for
//	            equality) otherwise. The cheapest probe bounds every
//	            later one, and an empty intermediate result
//	            short-circuits the remaining probes entirely.
//	intersect — each later conjunct that is a probe group runs within
//	            the running candidates: its chain's last hop keeps only
//	            them as it is read back (oodb.OIDSet.AppendWithin), so
//	            nothing is intersected after it. Any other later conjunct's sorted duplicate-free run
//	            is intersected into the candidates by galloping search
//	            (exec.IntersectSortedOIDs), in place and allocation-free.
//	union     — the disjuncts of an Or that share a source form one
//	            probe group: one call of the source, one Proposition 4.1
//	            chain entered through every disjunct's first hop, whose
//	            later hops run once, on the union. Disjuncts on different
//	            sources merge through the k-way tournament merge
//	            (exec.MergeKSortedOIDs).
//	residual  — a conjunct over a path with no registered index source is
//	            applied as a post-filter: each surviving candidate is
//	            verified by forward navigation (exec.Reaches), paying
//	            store pages only for candidates the indexed conjuncts
//	            already narrowed down.
//	partition — when every probe leaf uses one Partitioned source (a
//	            sharded database), the whole tree runs once per part and
//	            the parts' answers merge once, at the root, into the
//	            caller's buffer (Plan.ExecuteInto).
//
// Every executed leaf is recorded once per execution, per path and kind
// (equality, range, residual), in a stats.PredRecorder, and forwarded to
// sources that expose RecordPredicate — so workload snapshots, drift
// detection and multi-path selection (ooindex.SelectMulti) see the
// conjunction traffic the planner actually served, closing the loop CoPhy and on-the-fly
// index-selection formulations assume (see PAPERS.md).
//
// Results are bit-identical to naive evaluation of the same predicate by
// store scans (NaiveEval), enforced by a randomized differential gate.
package plan

import (
	"fmt"

	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/wire"
)

// Predicate is a node of the predicate tree: an equality or range leaf
// over a path, or an And/Or of predicates. It is the wire package's
// tree, so a decoded request is planned as it arrives. Build predicates
// with Eq, Range, And and Or.
type Predicate = wire.PredNode

// Eq builds the leaf predicate A_n = v along p.
func Eq(p *schema.Path, v oodb.Value) Predicate {
	return Predicate{Kind: wire.PredEq, Path: p, Value: v}
}

// Range builds the leaf predicate A_n IN [lo, hi) along p.
func Range(p *schema.Path, lo, hi oodb.Value) Predicate {
	return Predicate{Kind: wire.PredRange, Path: p, Lo: lo, Hi: hi}
}

// And conjoins predicates, flattening nested conjunctions. And of one
// predicate is that predicate.
func And(kids ...Predicate) Predicate { return wire.AndPred(kids...) }

// Or disjoins predicates, flattening nested disjunctions. Or of one
// predicate is that predicate.
func Or(kids ...Predicate) Predicate { return wire.OrPred(kids...) }

// valueTest returns the value test a leaf encodes, shared by residual
// verification and naive evaluation.
func valueTest(l *Predicate) func(oodb.Value) bool {
	if l.Kind == wire.PredEq {
		v := l.Value
		return func(x oodb.Value) bool { return x.Equal(v) }
	}
	lo, hi := l.Lo, l.Hi
	return func(x oodb.Value) bool {
		return x.Kind == lo.Kind && x.Compare(lo) >= 0 && x.Compare(hi) < 0
	}
}

// validateLeaf checks a leaf's shape.
func validateLeaf(l *Predicate) error {
	if l.Path == nil {
		return fmt.Errorf("plan: leaf with nil path")
	}
	if l.Kind == wire.PredRange && l.Lo.Kind != l.Hi.Kind {
		return fmt.Errorf("plan: range bounds of different kinds on %s", l.Path)
	}
	return nil
}
