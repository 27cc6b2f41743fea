package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/oodb"
	"repro/internal/schema"
)

// chainPred builds a nesting chain of depth ands single-child And nodes
// over an Eq leaf, byte by byte — the builders would collapse it.
func chainPred(ands int) []byte {
	var b []byte
	for i := 0; i < ands; i++ {
		b = append(b, PredAnd, 0, 1)
	}
	leaf := EqPred(1, oodb.IntV(7))
	return AppendPredNode(b, &leaf)
}

func TestPredicateEncodeRoundTrip(t *testing.T) {
	trees := []PredNode{
		EqPred(1, oodb.IntV(30)),
		EqPred(9, oodb.StrV("red")),
		RangePred(2, oodb.IntV(20), oodb.IntV(40)),
		RangePred(3, oodb.StrV("a"), oodb.StrV("q")),
		AndPred(EqPred(1, oodb.IntV(30)), EqPred(2, oodb.StrV("red"))),
		OrPred(EqPred(1, oodb.StrV("co-01")), RangePred(2, oodb.IntV(0), oodb.IntV(9))),
		AndPred(
			OrPred(EqPred(1, oodb.StrV("x")), EqPred(1, oodb.StrV("y"))),
			RangePred(4, oodb.IntV(-5), oodb.IntV(5)),
			EqPred(7, oodb.RefV(42)),
		),
	}
	for i, tree := range trees {
		enc := AppendPredNode(nil, &tree)
		got, rest, err := DecodePredicate(append(enc, 0xEE, 0xFF))
		if err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		if !bytes.Equal(rest, []byte{0xEE, 0xFF}) {
			t.Fatalf("tree %d: wrong rest % x", i, rest)
		}
		// Canonical: the decoded tree re-encodes to exactly its bytes.
		if re := AppendPredNode(nil, &got); !bytes.Equal(re, enc) {
			t.Fatalf("tree %d does not round-trip: % x vs % x", i, re, enc)
		}
	}
}

func TestPredicateBuildersFlatten(t *testing.T) {
	a, b, c := EqPred(1, oodb.IntV(1)), EqPred(2, oodb.IntV(2)), EqPred(3, oodb.IntV(3))
	if got := AndPred(AndPred(a, b), c); got.Kind != PredAnd || len(got.Kids) != 3 {
		t.Fatalf("nested And not flattened: %+v", got)
	}
	if got := OrPred(a, OrPred(b, c)); got.Kind != PredOr || len(got.Kids) != 3 {
		t.Fatalf("nested Or not flattened: %+v", got)
	}
	// A single child collapses to itself; a foreign composite does not flatten.
	if got := AndPred(a); got.Kind != PredEq || got.PathID != 1 {
		t.Fatalf("single-child And did not collapse: %+v", got)
	}
	if got := AndPred(OrPred(a, b), c); len(got.Kids) != 2 || got.Kids[0].Kind != PredOr {
		t.Fatalf("And flattened an Or child: %+v", got)
	}
}

func TestPredicateString(t *testing.T) {
	age := EqPred(1, oodb.IntV(30))
	age.Path = schema.MustNewPath(schema.PaperSchema(), "Person", "age")
	tree := OrPred(AndPred(age, RangePred(2, oodb.StrV("a"), oodb.StrV("n"))), EqPred(3, oodb.RefV(5)))
	const want = "((Person.age = 30 and #2 in [a, n)) or #3 = oid:5)"
	if got := tree.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestPredicateDecodeCaps(t *testing.T) {
	// 31 single-child Ands over a leaf = depth 32: the cap, accepted.
	if _, rest, err := DecodePredicate(chainPred(MaxPredDepth - 1)); err != nil || len(rest) != 0 {
		t.Fatalf("depth-%d tree rejected: %v", MaxPredDepth, err)
	}
	// One deeper is rejected.
	if _, _, err := DecodePredicate(chainPred(MaxPredDepth)); err == nil ||
		!strings.Contains(err.Error(), "deeper") {
		t.Fatalf("depth-%d tree accepted: %v", MaxPredDepth+1, err)
	}
	// A flat And with MaxPredNodes-1 kids is exactly the node budget.
	wide := func(kids int) []byte {
		b := []byte{PredAnd, byte(kids >> 8), byte(kids)}
		leaf := EqPred(1, oodb.IntV(0))
		for i := 0; i < kids; i++ {
			b = AppendPredNode(b, &leaf)
		}
		return b
	}
	if _, _, err := DecodePredicate(wide(MaxPredNodes - 1)); err != nil {
		t.Fatalf("%d-node tree rejected: %v", MaxPredNodes, err)
	}
	if _, _, err := DecodePredicate(wide(MaxPredNodes)); err == nil ||
		!strings.Contains(err.Error(), "larger") {
		t.Fatalf("%d-node tree accepted: %v", MaxPredNodes+1, err)
	}
}

func TestPredicateDecodeRejectsDamage(t *testing.T) {
	leaf := EqPred(3, oodb.StrV("red"))
	good := AppendPredNode(nil, &leaf)
	cases := map[string][]byte{
		"empty":             {},
		"unknown kind":      {9, 0, 1},
		"truncated path id": {PredEq, 0},
		"truncated value":   good[:len(good)-2],
		"truncated count":   {PredAnd, 0},
		"missing children":  {PredOr, 0, 2, PredEq},
	}
	for name, b := range cases {
		if _, _, err := DecodePredicate(b); err == nil {
			t.Errorf("%s decoded", name)
		}
	}
}

func TestPredicateRequestRoundTrip(t *testing.T) {
	pred := AndPred(EqPred(1, oodb.IntV(30)), RangePred(2, oodb.StrV("a"), oodb.StrV("n")))

	enc := AppendPredicate(nil, 21, &pred, "Person", true)
	var req Request
	if err := DecodeRequest(enc, &req); err != nil {
		t.Fatal(err)
	}
	if req.ID != 21 || req.Op != OpPredicate || string(req.Class) != "Person" || !req.Hierarchy {
		t.Fatalf("got %+v", req)
	}
	if re := AppendPredicate(nil, req.ID, &req.Pred, string(req.Class), req.Hierarchy); !bytes.Equal(re, enc) {
		t.Fatal("predicate request does not round-trip")
	}

	enc = AppendPredicateValues(nil, 22, &pred, "age", "Person", false)
	if err := DecodeRequest(enc, &req); err != nil {
		t.Fatal(err)
	}
	if req.Op != OpPredicateValues || string(req.Attr) != "age" || string(req.Class) != "Person" || req.Hierarchy {
		t.Fatalf("got %+v", req)
	}
	if re := AppendPredicateValues(nil, req.ID, &req.Pred, string(req.Attr), string(req.Class), req.Hierarchy); !bytes.Equal(re, enc) {
		t.Fatal("predicate-values request does not round-trip")
	}

	// Trailing bytes after the tree are rejected like any other request.
	if err := DecodeRequest(append(enc, 0), &req); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes: got %v", err)
	}
}

func TestOKValuesRoundTrip(t *testing.T) {
	vals := []oodb.Value{oodb.IntV(30), oodb.StrV("red"), oodb.RefV(7)}
	var resp Response
	if err := DecodeResponse(AppendOKValues(nil, 31, vals), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 31 || resp.Status != StatusOKValues || !reflect.DeepEqual(resp.Vals, vals) {
		t.Fatalf("got %+v", resp)
	}
	if err := DecodeResponse(AppendOKValues(nil, 32, nil), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 32 || len(resp.Vals) != 0 {
		t.Fatalf("got %+v", resp)
	}
	// A lying count runs out of bytes instead of allocating against it.
	lying := AppendOKValues(nil, 33, vals)
	lying[9+3] = 0xFF
	if err := DecodeResponse(lying, &resp); err == nil {
		t.Error("lying value count decoded")
	}
	trailing := append(AppendOKValues(nil, 34, vals), 0)
	if err := DecodeResponse(trailing, &resp); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing bytes: got %v", err)
	}
}

// resolveLeaves fills every leaf's Path from a fixed id table, the way a
// server resolves a decoded tree (ids past the table wrap around).
func resolveLeaves(n *PredNode, paths []*schema.Path) {
	if n.Kind == PredEq || n.Kind == PredRange {
		n.Path = paths[int(n.PathID)%len(paths)]
	}
	for i := range n.Kids {
		resolveLeaves(&n.Kids[i], paths)
	}
}

// FuzzPredicateDecode is the hostile-frame gate for the predicate
// encoding alone: arbitrary bytes either decode or error — no panic, no
// unbounded recursion or allocation — and whatever decodes re-encodes
// to exactly the bytes consumed, before and after its leaves' paths are
// resolved (the canonical property the server's dedup key relies on:
// resolution can never change it).
func FuzzPredicateDecode(f *testing.F) {
	s := schema.PaperSchema()
	paths := []*schema.Path{
		schema.MustNewPath(s, "Person", "age"),
		schema.MustNewPath(s, "Person", "owns", "color"),
		schema.MustNewPath(s, "Person", "owns", "man", "divs", "name"),
	}
	and := AndPred(EqPred(1, oodb.IntV(30)), EqPred(2, oodb.StrV("red")))
	or := OrPred(RangePred(1, oodb.IntV(0), oodb.IntV(9)), EqPred(3, oodb.RefV(5)))
	leaf := EqPred(1, oodb.StrV("val-00001"))
	seeds := [][]byte{
		AppendPredNode(nil, &and),
		AppendPredNode(nil, &or),
		chainPred(MaxPredDepth - 1),                 // exactly max depth
		chainPred(MaxPredDepth),                     // one past max depth
		{PredAnd, 0, 0},                             // zero-child And
		{PredOr, 0, 0},                              // zero-child Or
		AppendPredNode(nil, &leaf)[:4],              // truncated leaf
		{PredAnd, 0xFF, 0xFF, PredEq, 0, 1, 0},      // huge declared child count
		{PredOr, 0, 2, PredAnd, 0, 0, PredOr, 0, 0}, // nested empty composites
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		n, rest, err := DecodePredicate(b)
		if err != nil {
			return
		}
		if len(rest) > len(b) {
			t.Fatal("rest grew")
		}
		if re := AppendPredNode(nil, &n); !bytes.Equal(re, b[:len(b)-len(rest)]) {
			t.Fatalf("predicate does not round-trip: % x vs % x", re, b[:len(b)-len(rest)])
		}
		resolveLeaves(&n, paths)
		if re := AppendPredNode(nil, &n); !bytes.Equal(re, b[:len(b)-len(rest)]) {
			t.Fatalf("resolved predicate does not round-trip: % x vs % x", re, b[:len(b)-len(rest)])
		}
	})
}
