package plan

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/oodb"
	"repro/internal/wire"
)

// NaiveEval evaluates pred for targetClass by store scans and forward
// navigation only — no indexes, no ordering, no pruning. It is the
// semantic reference the planner is differential-tested against: for any
// predicate, store state and target, Planner output must be
// bit-identical to NaiveEval output.
func NaiveEval(st *oodb.Store, pred Predicate, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	set, err := naiveSet(st, &pred, targetClass, hierarchy)
	if err != nil {
		return nil, err
	}
	out := make([]oodb.OID, 0, len(set))
	for oid := range set {
		out = append(out, oid)
	}
	return oodb.SortUnique(out), nil
}

func naiveSet(st *oodb.Store, n *Predicate, target string, hierarchy bool) (map[oodb.OID]struct{}, error) {
	switch n.Kind {
	case wire.PredEq, wire.PredRange:
		if err := validateLeaf(n); err != nil {
			return nil, err
		}
		var (
			oids []oodb.OID
			err  error
		)
		if n.Kind == wire.PredEq {
			oids, err = exec.NaiveQuery(st, n.Path, n.Value, target, hierarchy)
		} else {
			oids, err = exec.NaiveQueryRange(st, n.Path, n.Lo, n.Hi, target, hierarchy)
		}
		if err != nil {
			return nil, err
		}
		set := make(map[oodb.OID]struct{}, len(oids))
		for _, o := range oids {
			set[o] = struct{}{}
		}
		return set, nil
	case wire.PredAnd:
		if len(n.Kids) == 0 {
			return nil, fmt.Errorf("plan: empty conjunction")
		}
		cur, err := naiveSet(st, &n.Kids[0], target, hierarchy)
		if err != nil {
			return nil, err
		}
		for i := range n.Kids[1:] {
			next, err := naiveSet(st, &n.Kids[1+i], target, hierarchy)
			if err != nil {
				return nil, err
			}
			for oid := range cur {
				if _, ok := next[oid]; !ok {
					delete(cur, oid)
				}
			}
		}
		return cur, nil
	case wire.PredOr:
		if len(n.Kids) == 0 {
			return nil, fmt.Errorf("plan: empty disjunction")
		}
		all := make(map[oodb.OID]struct{})
		for i := range n.Kids {
			next, err := naiveSet(st, &n.Kids[i], target, hierarchy)
			if err != nil {
				return nil, err
			}
			for oid := range next {
				all[oid] = struct{}{}
			}
		}
		return all, nil
	}
	return nil, fmt.Errorf("plan: unknown predicate kind %d", n.Kind)
}
