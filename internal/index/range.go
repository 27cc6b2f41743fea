package index

import (
	"encoding/binary"
	"fmt"

	"repro/internal/oodb"
)

// Range lookups over the ending attribute (Section 3's range-predicate
// extension made operational). The range is half-open, [lo, hi); lo and hi
// must be of the same value kind so the encoded byte order matches value
// order. Range predicates only make sense on the subpath containing the
// path's ending attribute — earlier subpaths are keyed by OIDs and are
// chained with equality probes by the executor.

// rangeBounds validates and encodes a range.
func rangeBounds(lo, hi oodb.Value) ([]byte, []byte, error) {
	if lo.Kind != hi.Kind {
		return nil, nil, fmt.Errorf("index: range bounds of different kinds")
	}
	return EncodeValue(lo), EncodeValue(hi), nil
}

// LookupRange returns the OIDs of targetClass objects whose nested ending
// value falls in [lo, hi), under the MX organization.
func (mx *MultiIndex) LookupRange(lo, hi oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	elo, ehi, err := rangeBounds(lo, hi)
	if err != nil {
		return nil, err
	}
	l, ok := mx.sp.LevelOf(targetClass)
	if !ok {
		return nil, fmt.Errorf("index: class %s not in subpath scope", targetClass)
	}
	// Collect the level-B objects in range from every ending-class index.
	var oids []oodb.OID
	for _, cn := range mx.sp.classesAt(mx.sp.B) {
		ai := mx.byLevel[mx.sp.B-mx.sp.A][cn]
		if l == mx.sp.B && !mx.sp.targetMatch(cn, targetClass, hierarchy) {
			continue
		}
		ai.tree.ScanInto(elo, ehi, func(k, v []byte) bool {
			got, derr := decodeOIDSet(v)
			if derr == nil {
				oids = append(oids, got...)
			}
			return true
		})
	}
	oids = oodb.SortUnique(oids)
	if l == mx.sp.B {
		return oids, nil
	}
	// Chain backward with equality probes on the collected OIDs.
	return mx.chainFrom(oids, l, targetClass, hierarchy)
}

// chainFrom probes levels B-1..l with the given OID keys.
func (mx *MultiIndex) chainFrom(keys []oodb.OID, l int, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	targets := map[string]bool{targetClass: true}
	if hierarchy {
		for _, cn := range mx.sp.Path.Schema().Hierarchy(targetClass) {
			targets[cn] = true
		}
	}
	cur := keys
	for i := mx.sp.B - 1; i >= l; i-- {
		var next []oodb.OID
		for _, cn := range mx.sp.classesAt(i) {
			if i == l && !targets[cn] {
				continue
			}
			ai := mx.byLevel[i-mx.sp.A][cn]
			for _, k := range cur {
				got, err := ai.LookupOID(k)
				if err != nil {
					return nil, err
				}
				next = append(next, got...)
			}
		}
		cur = oodb.SortUnique(next)
		if len(cur) == 0 {
			return nil, nil
		}
	}
	return cur, nil
}

// LookupRange under the MIX organization.
func (mix *MultiInheritedIndex) LookupRange(lo, hi oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	elo, ehi, err := rangeBounds(lo, hi)
	if err != nil {
		return nil, err
	}
	l, ok := mix.sp.LevelOf(targetClass)
	if !ok {
		return nil, fmt.Errorf("index: class %s not in subpath scope", targetClass)
	}
	var oids []oodb.OID
	mix.byLevel[mix.sp.B-mix.sp.A].tree.ScanInto(elo, ehi, func(k, v []byte) bool {
		got, derr := decodeOIDSet(v)
		if derr == nil {
			oids = append(oids, got...)
		}
		return true
	})
	oids = oodb.SortUnique(oids)
	for i := mix.sp.B - 1; i >= l; i-- {
		var next []oodb.OID
		ai := mix.byLevel[i-mix.sp.A]
		for _, k := range oids {
			got, err := ai.LookupOID(k)
			if err != nil {
				return nil, err
			}
			next = append(next, got...)
		}
		oids = oodb.SortUnique(next)
		if len(oids) == 0 {
			return nil, nil
		}
	}
	if l == mix.sp.B || hierarchy && targetClass == mix.sp.Path.Class(l) {
		if l == mix.sp.B {
			// Filter ending-level hierarchy results to the target class(es).
			return mix.filterByClass(oids, targetClass, hierarchy), nil
		}
		return oids, nil
	}
	return mix.filterByClass(oids, targetClass, hierarchy), nil
}

// LookupRange under the NIX organization: the chained primary leaves are
// scanned across the range and the target sections read off each record
// through its class directory, as LookupInto reads them.
func (nx *NestedInheritedIndex) LookupRange(lo, hi oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	elo, ehi, err := rangeBounds(lo, hi)
	if err != nil {
		return nil, err
	}
	if _, ok := nx.sp.LevelOf(targetClass); !ok {
		return nil, fmt.Errorf("index: class %s not in subpath scope", targetClass)
	}
	classes := nx.sp.HierarchyOf(targetClass)
	if !hierarchy {
		classes = classes[:1]
	}
	var out []oodb.OID
	var decErr error
	nx.primary.ScanInto(elo, ehi, func(k, v []byte) bool {
		if len(v) < nx.headerLen() {
			decErr = fmt.Errorf("index: truncated NIX record (%d bytes)", len(v))
			return false
		}
		for _, cn := range classes {
			pos, ok := nx.classPos[cn]
			if !ok {
				continue
			}
			off := int(binary.BigEndian.Uint32(v[4+8*pos:]))
			cnt := int(binary.BigEndian.Uint32(v[8+8*pos:]))
			if off+cnt*nixEntryLen > len(v) {
				decErr = fmt.Errorf("index: NIX section %d out of bounds", pos)
				return false
			}
			for ; cnt > 0; cnt, off = cnt-1, off+nixEntryLen {
				out = append(out, oodb.OID(binary.BigEndian.Uint64(v[off:])))
			}
		}
		return true
	})
	if decErr != nil {
		return nil, decErr
	}
	return oodb.SortUnique(out), nil
}
