// Predicate trees: PredNode is the one Eq/Range/And/Or tree of the
// system. The §9 planner plans it (plan.Predicate is an alias) and this
// file is its codec. On the wire, leaves name paths by small integer id
// — the client and server agree on the id→path binding out of band (the
// server side is netserver.RegisterPath) — so a leaf costs a kind byte,
// two id bytes and its value(s), and the server never parses path
// strings on the hot path. A leaf's Path is the id resolved: the server
// fills it in place after decoding, an embedded caller sets it through
// plan.Eq/plan.Range, and it is never encoded.
//
// The encoding is canonical: a decoded tree re-encodes to exactly the
// bytes it came from, resolved or not. That property is what the fuzz
// gate pins, and it is what lets the server use re-encoded predicate
// bytes as a dedup key when coalescing identical predicates into one
// planner descent.
//
// Decode enforces depth and node-count caps before building anything, so
// a hostile frame — a 65535-child And, a self-feeding nesting chain —
// fails the connection with an error, never the process. Same posture as
// the WAL and the frame decoder.
package wire

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/oodb"
	"repro/internal/schema"
)

// Predicate node kinds.
const (
	PredEq    byte = 1 // u16 path id, value
	PredRange byte = 2 // u16 path id, lo value, hi value
	PredAnd   byte = 3 // u16 child count, children
	PredOr    byte = 4 // u16 child count, children
)

const (
	// MaxPredDepth caps predicate-tree nesting at decode. Deeper frames
	// are rejected before the recursion can grow the goroutine stack.
	MaxPredDepth = 32
	// MaxPredNodes caps the total node count of one predicate tree. The
	// cap bounds decode work and allocation for a hostile frame; a
	// declared child count never pre-allocates, children materialize one
	// at a time against this budget.
	MaxPredNodes = 1024
)

// PredNode is one node of a predicate tree. Leaves (PredEq, PredRange)
// carry a path, as a wire id and, once resolved, as the path itself, and
// value(s); composites (PredAnd, PredOr) carry children. Every encoded
// field is owned — nothing aliases the frame a node was decoded from.
type PredNode struct {
	Kind   byte
	PathID uint16
	// Path is the path PathID names. It is never encoded: the server
	// resolves it from its id table, an embedded caller sets it directly.
	Path   *schema.Path
	Value  oodb.Value // PredEq
	Lo, Hi oodb.Value // PredRange
	Kids   []PredNode // PredAnd, PredOr
}

// String renders the tree for diagnostics and plan explanations; a leaf
// whose path is not resolved names it by id.
func (n PredNode) String() string {
	path := fmt.Sprintf("#%d", n.PathID)
	if n.Path != nil {
		path = n.Path.String()
	}
	switch n.Kind {
	case PredEq:
		return fmt.Sprintf("%s = %s", path, n.Value)
	case PredRange:
		return fmt.Sprintf("%s in [%s, %s)", path, n.Lo, n.Hi)
	case PredAnd, PredOr:
		op := " and "
		if n.Kind == PredOr {
			op = " or "
		}
		var b strings.Builder
		b.WriteByte('(')
		for i, k := range n.Kids {
			if i > 0 {
				b.WriteString(op)
			}
			b.WriteString(k.String())
		}
		b.WriteByte(')')
		return b.String()
	}
	return fmt.Sprintf("<predicate kind %d>", n.Kind)
}

// EqPred builds an equality leaf: path(pathID) = v.
func EqPred(pathID uint16, v oodb.Value) PredNode {
	return PredNode{Kind: PredEq, PathID: pathID, Value: v}
}

// RangePred builds a range leaf: path(pathID) IN [lo, hi).
func RangePred(pathID uint16, lo, hi oodb.Value) PredNode {
	return PredNode{Kind: PredRange, PathID: pathID, Lo: lo, Hi: hi}
}

// AndPred builds a conjunction, flattening nested conjunctions and
// collapsing a single-child And to its child. It is plan.And.
func AndPred(kids ...PredNode) PredNode {
	return composite(PredAnd, kids)
}

// OrPred builds a disjunction, flattening nested disjunctions and
// collapsing a single child. It is plan.Or.
func OrPred(kids ...PredNode) PredNode {
	return composite(PredOr, kids)
}

func composite(kind byte, kids []PredNode) PredNode {
	flat := make([]PredNode, 0, len(kids))
	for _, k := range kids {
		if k.Kind == kind {
			flat = append(flat, k.Kids...)
		} else {
			flat = append(flat, k)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return PredNode{Kind: kind, Kids: flat}
}

// AppendPredNode appends the canonical encoding of n to dst.
func AppendPredNode(dst []byte, n *PredNode) []byte {
	dst = append(dst, n.Kind)
	switch n.Kind {
	case PredEq:
		dst = binary.BigEndian.AppendUint16(dst, n.PathID)
		dst = oodb.AppendValue(dst, n.Value)
	case PredRange:
		dst = binary.BigEndian.AppendUint16(dst, n.PathID)
		dst = oodb.AppendValue(dst, n.Lo)
		dst = oodb.AppendValue(dst, n.Hi)
	case PredAnd, PredOr:
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(n.Kids)))
		for i := range n.Kids {
			dst = AppendPredNode(dst, &n.Kids[i])
		}
	}
	return dst
}

// DecodePredicate decodes one predicate tree from the front of b,
// returning the tree and the remaining bytes. Unknown kinds, truncated
// bodies, trees deeper than MaxPredDepth and trees larger than
// MaxPredNodes are errors; no input can make it panic. The returned
// tree owns all of its memory.
func DecodePredicate(b []byte) (PredNode, []byte, error) {
	budget := MaxPredNodes
	return decodePredNode(b, 1, &budget)
}

func decodePredNode(b []byte, depth int, budget *int) (PredNode, []byte, error) {
	var n PredNode
	if depth > MaxPredDepth {
		return n, nil, fmt.Errorf("wire: predicate deeper than %d", MaxPredDepth)
	}
	if *budget--; *budget < 0 {
		return n, nil, fmt.Errorf("wire: predicate larger than %d nodes", MaxPredNodes)
	}
	if len(b) < 1 {
		return n, nil, fmt.Errorf("wire: truncated predicate node")
	}
	n.Kind = b[0]
	b = b[1:]
	var err error
	switch n.Kind {
	case PredEq:
		if len(b) < 2 {
			return n, nil, fmt.Errorf("wire: truncated predicate path id")
		}
		n.PathID = binary.BigEndian.Uint16(b)
		if n.Value, b, err = oodb.DecodeValue(b[2:]); err != nil {
			return n, nil, err
		}
	case PredRange:
		if len(b) < 2 {
			return n, nil, fmt.Errorf("wire: truncated predicate path id")
		}
		n.PathID = binary.BigEndian.Uint16(b)
		if n.Lo, b, err = oodb.DecodeValue(b[2:]); err != nil {
			return n, nil, err
		}
		if n.Hi, b, err = oodb.DecodeValue(b); err != nil {
			return n, nil, err
		}
	case PredAnd, PredOr:
		if len(b) < 2 {
			return n, nil, fmt.Errorf("wire: truncated predicate child count")
		}
		count := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		// Children are appended one at a time — the declared count is a
		// loop bound, never an allocation size, so a hostile count spends
		// its own bytes or dies on the node budget.
		for i := 0; i < count; i++ {
			var kid PredNode
			if kid, b, err = decodePredNode(b, depth+1, budget); err != nil {
				return n, nil, err
			}
			n.Kids = append(n.Kids, kid)
		}
	default:
		return n, nil, fmt.Errorf("wire: unknown predicate kind %d", n.Kind)
	}
	return n, b, nil
}

// AppendPredicate appends an OpPredicate request payload: evaluate pred
// against targetClass (subclasses included when hierarchy is set) and
// return matching OIDs.
func AppendPredicate(dst []byte, id uint64, pred *PredNode, targetClass string, hierarchy bool) []byte {
	dst = appendHeader(dst, id, OpPredicate)
	dst = appendString(dst, targetClass)
	dst = append(dst, boolByte(hierarchy))
	return AppendPredNode(dst, pred)
}

// AppendPredicateValues appends an OpPredicateValues request payload:
// evaluate pred against targetClass and project attribute attr of each
// match, answered with a StatusOKValues body.
func AppendPredicateValues(dst []byte, id uint64, pred *PredNode, attr, targetClass string, hierarchy bool) []byte {
	dst = appendHeader(dst, id, OpPredicateValues)
	dst = appendString(dst, attr)
	dst = appendString(dst, targetClass)
	dst = append(dst, boolByte(hierarchy))
	return AppendPredNode(dst, pred)
}

// AppendOKValues appends a StatusOKValues response payload carrying a
// count-prefixed value list (nil and empty both encode as zero count).
func AppendOKValues(dst []byte, id uint64, vals []oodb.Value) []byte {
	dst = appendHeader(dst, id, StatusOKValues)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(vals)))
	for _, v := range vals {
		dst = oodb.AppendValue(dst, v)
	}
	return dst
}
