package cost

import (
	"math"
	"testing"

	"repro/internal/model"
)

func TestGeomSinglePage(t *testing.T) {
	// 1000 keys, 40-byte records, 4096-byte pages: 10 leaf pages (ceil
	// 40000/4096), fanout 256, height 2.
	g, err := NewGeom(1000, 40, 4096, 16)
	if err != nil {
		t.Fatal(err)
	}
	if g.MultiPage() {
		t.Error("40-byte record flagged multi-page")
	}
	if got, want := g.LeafPages, 10.0; got != want {
		t.Errorf("LeafPages = %g, want %g", got, want)
	}
	if got := g.Height(); got != 2 {
		t.Errorf("Height = %d, want 2", got)
	}
	if got, want := g.RecordPages(), 1.0; got != want {
		t.Errorf("RecordPages = %g, want %g", got, want)
	}
}

func TestGeomMultiPage(t *testing.T) {
	// Records of 10000 bytes on 4096 pages: 3 pages per record.
	g, err := NewGeom(100, 10000, 4096, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !g.MultiPage() {
		t.Fatal("expected multi-page")
	}
	if got, want := g.RecordPages(), 3.0; got != want {
		t.Errorf("RecordPages = %g, want %g", got, want)
	}
	if got, want := g.LeafPages, 300.0; got != want {
		t.Errorf("LeafPages = %g, want %g", got, want)
	}
	// Levels: records(300 pages) <- directory(1 page since 100/256) = 2 levels.
	if got := g.Height(); got != 2 {
		t.Errorf("Height = %d, want 2", got)
	}
}

func TestGeomEmpty(t *testing.T) {
	g, err := NewGeom(0, 0, 4096, 16)
	if err != nil {
		t.Fatal(err)
	}
	if g.Height() != 1 {
		t.Errorf("empty index height = %d, want 1", g.Height())
	}
	if got := CRT(g, 5, 0); got < 0 {
		t.Errorf("CRT on empty = %g", got)
	}
}

func TestGeomErrors(t *testing.T) {
	if _, err := NewGeom(10, 10, 0, 16); err == nil {
		t.Error("zero page accepted")
	}
	if _, err := NewGeom(10, 10, 100, 200); err == nil {
		t.Error("entry >= page accepted")
	}
	if _, err := NewGeom(-1, 10, 4096, 16); err == nil {
		t.Error("negative nk accepted")
	}
	// These used to loop forever appending levels: a fan-out of one never
	// narrows to a root, and neither do +Inf or NaN pages.
	if _, err := NewGeom(1000, 10, 64, 40); err == nil {
		t.Error("one entry per page accepted")
	}
	if _, err := NewGeom(1e300, 1e300, 4096, 16); err == nil {
		t.Error("overflowing leaf level accepted")
	}
	if _, err := NewGeom(math.NaN(), 10, 4096, 16); err == nil {
		t.Error("NaN nk accepted")
	}
}

func TestGeomHeightGrows(t *testing.T) {
	small, _ := NewGeom(100, 40, 4096, 16)
	big, _ := NewGeom(10_000_000, 40, 4096, 16)
	if big.Height() <= small.Height() {
		t.Errorf("height should grow with keys: small=%d big=%d", small.Height(), big.Height())
	}
}

func TestCRLAndCML(t *testing.T) {
	g, _ := NewGeom(1000, 40, 4096, 16) // height 2, single-page records
	if got, want := CRL(g, 0), 2.0; got != want {
		t.Errorf("CRL = %g, want %g", got, want)
	}
	if got, want := CML(g, 0), 3.0; got != want {
		t.Errorf("CML = %g, want %g (h+1)", got, want)
	}
	mg, _ := NewGeom(100, 10000, 4096, 16) // height 2, 3-page records
	if got, want := CRL(mg, 0), 2.0-1+3; got != want {
		t.Errorf("CRL multipage = %g, want %g (h-1+pr)", got, want)
	}
	if got, want := CRL(mg, 1), 2.0; got != want {
		t.Errorf("CRL multipage pr=1 = %g, want %g", got, want)
	}
	if got, want := CML(mg, 2), 3.0; got != want {
		t.Errorf("CML multipage pm=2 = %g, want %g", got, want)
	}
}

func TestCRTReducesToCRLForOneRecord(t *testing.T) {
	for _, gspec := range []struct{ nk, ln float64 }{{1000, 40}, {100, 10000}, {50000, 200}} {
		g, err := NewGeom(gspec.nk, gspec.ln, 4096, 16)
		if err != nil {
			t.Fatal(err)
		}
		crt := CRT(g, 1, 0)
		crl := CRL(g, 0)
		if math.Abs(crt-crl) > 1e-9 {
			t.Errorf("nk=%g ln=%g: CRT(1)=%g != CRL=%g", gspec.nk, gspec.ln, crt, crl)
		}
	}
}

func TestCRTMonotoneInT(t *testing.T) {
	g, _ := NewGeom(10000, 60, 4096, 16)
	prev := 0.0
	for _, tt := range []float64{1, 2, 5, 10, 100, 1000, 10000} {
		got := CRT(g, tt, 0)
		if got < prev-1e-9 {
			t.Errorf("CRT not monotone at t=%g: %g < %g", tt, got, prev)
		}
		prev = got
	}
}

func TestCMTExceedsCRT(t *testing.T) {
	// Maintenance rewrites pages, so it must cost at least as much as
	// retrieval for the same record set.
	g, _ := NewGeom(10000, 60, 4096, 16)
	for _, tt := range []float64{1, 7, 300} {
		if CMT(g, tt, 0) < CRT(g, tt, 0) {
			t.Errorf("CMT < CRT at t=%g", tt)
		}
	}
}

func TestCRTAndCMTZeroT(t *testing.T) {
	g, _ := NewGeom(1000, 40, 4096, 16)
	if got := CRT(g, 0, 0); got != 0 {
		t.Errorf("CRT(0) = %g", got)
	}
	if got := CMT(g, 0, 0); got != 0 {
		t.Errorf("CMT(0) = %g", got)
	}
	if got := CRR(0, g); got != 0 {
		t.Errorf("CRR(0) = %g", got)
	}
	if got := CRR(5, nil); got != 0 {
		t.Errorf("CRR(nil aux) = %g", got)
	}
}

func TestOrganizationString(t *testing.T) {
	cases := map[Organization]string{MX: "MX", MIX: "MIX", NIX: "NIX", NONE: "NONE", Organization(9): "Organization(9)"}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(o), got, want)
		}
	}
	for _, s := range []string{"MX", "MIX", "NIX", "NONE", "mx", "mix", "nix", "none"} {
		if _, err := ParseOrganization(s); err != nil {
			t.Errorf("ParseOrganization(%q): %v", s, err)
		}
	}
	if _, err := ParseOrganization("SIX"); err == nil {
		t.Error("ParseOrganization(SIX) should fail (SIX is MX of length 1)")
	}
}

func TestNewEvaluatorErrors(t *testing.T) {
	ps := model.Figure7Stats()
	if _, err := NewEvaluator(nil, 1, 1, MX); err == nil {
		t.Error("nil stats accepted")
	}
	if _, err := NewEvaluator(ps, 0, 2, MX); err == nil {
		t.Error("a=0 accepted")
	}
	if _, err := NewEvaluator(ps, 3, 2, MX); err == nil {
		t.Error("a>b accepted")
	}
	if _, err := NewEvaluator(ps, 1, 9, MX); err == nil {
		t.Error("b>n accepted")
	}
	if _, err := NewEvaluator(ps, 1, 2, Organization(42)); err == nil {
		t.Error("unknown org accepted")
	}
}

func TestEvaluatorQueryErrors(t *testing.T) {
	ps := model.Figure7Stats()
	e, err := NewEvaluator(ps, 2, 3, MX)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(2, "Person"); err == nil {
		t.Error("wrong class accepted")
	}
	if _, err := e.Query(1, "Person"); err == nil {
		t.Error("level outside subpath accepted")
	}
	if _, err := e.QueryHierarchy(4); err == nil {
		t.Error("QueryHierarchy outside subpath accepted")
	}
	if _, err := e.Insert(1, "Person"); err == nil {
		t.Error("Insert outside subpath accepted")
	}
}

func TestQueryCostsPositive(t *testing.T) {
	ps := model.Figure7Stats()
	for _, org := range OrganizationsWithNone {
		for _, ab := range ps.Path.SubPaths() {
			a, b := ab[0], ab[1]
			e, err := NewEvaluator(ps, a, b, org)
			if err != nil {
				t.Fatalf("%v [%d,%d]: %v", org, a, b, err)
			}
			for l := a; l <= b; l++ {
				for _, c := range ps.Level(l).Classes {
					q, err := e.Query(l, c.Class)
					if err != nil {
						t.Fatalf("%v [%d,%d] Query(%d,%s): %v", org, a, b, l, c.Class, err)
					}
					if q <= 0 {
						t.Errorf("%v [%d,%d] Query(%d,%s) = %g, want > 0", org, a, b, l, c.Class, q)
					}
				}
				qh, err := e.QueryHierarchy(l)
				if err != nil {
					t.Fatal(err)
				}
				if qh <= 0 {
					t.Errorf("%v [%d,%d] QueryHierarchy(%d) = %g", org, a, b, l, qh)
				}
			}
		}
	}
}

func TestMaintenanceCosts(t *testing.T) {
	ps := model.Figure7Stats()
	for _, org := range Organizations {
		for _, ab := range ps.Path.SubPaths() {
			a, b := ab[0], ab[1]
			e, err := NewEvaluator(ps, a, b, org)
			if err != nil {
				t.Fatal(err)
			}
			for l := a; l <= b; l++ {
				for _, c := range ps.Level(l).Classes {
					ins, err := e.Insert(l, c.Class)
					if err != nil {
						t.Fatal(err)
					}
					del, err := e.Delete(l, c.Class)
					if err != nil {
						t.Fatal(err)
					}
					if ins <= 0 || del <= 0 {
						t.Errorf("%v [%d,%d] %s: ins=%g del=%g, want > 0", org, a, b, c.Class, ins, del)
					}
					// Deleting costs at least as much as inserting for MX and
					// MIX (extra previous-level key removal) at inner levels.
					if (org == MX || org == MIX) && l > a && del <= ins {
						t.Errorf("%v [%d,%d] level %d: del=%g <= ins=%g", org, a, b, l, del, ins)
					}
				}
			}
		}
	}
}

func TestNoneOrgFreeMaintenance(t *testing.T) {
	ps := model.Figure7Stats()
	e, err := NewEvaluator(ps, 1, 4, NONE)
	if err != nil {
		t.Fatal(err)
	}
	ins, _ := e.Insert(2, "Vehicle")
	del, _ := e.Delete(2, "Vehicle")
	if ins != 0 || del != 0 {
		t.Errorf("NONE maintenance = (%g,%g), want zero", ins, del)
	}
	if e.CMD() != 0 {
		t.Errorf("NONE CMD = %g, want 0", e.CMD())
	}
	q, _ := e.Query(1, "Person")
	if q <= 0 {
		t.Errorf("NONE query = %g, want positive scan cost", q)
	}
}

func TestCMDOnlyForNonFinalSubpaths(t *testing.T) {
	ps := model.Figure7Stats()
	for _, org := range Organizations {
		eFinal, _ := NewEvaluator(ps, 2, 4, org)
		if got := eFinal.CMD(); got != 0 {
			t.Errorf("%v final subpath CMD = %g, want 0", org, got)
		}
		eInner, _ := NewEvaluator(ps, 1, 2, org)
		if got := eInner.CMD(); got <= 0 {
			t.Errorf("%v inner subpath CMD = %g, want > 0", org, got)
		}
	}
}

func TestNIXQueryCheaperThanMXForLongSubpathQueries(t *testing.T) {
	// The NIX answers a whole-path query with one primary lookup; MX needs a
	// cascade of lookups. For the starting class of the full path the NIX
	// searching cost must therefore be lower.
	ps := model.Figure7Stats()
	eNIX, _ := NewEvaluator(ps, 1, 4, NIX)
	eMX, _ := NewEvaluator(ps, 1, 4, MX)
	qNIX, _ := eNIX.Query(1, "Person")
	qMX, _ := eMX.Query(1, "Person")
	if qNIX >= qMX {
		t.Errorf("NIX query %g >= MX query %g for whole path", qNIX, qMX)
	}
}

func TestMXDeleteCheaperThanNIXDelete(t *testing.T) {
	// NIX deletions propagate through the auxiliary index; MX deletions
	// touch only two levels. On the whole path, deleting a Company object
	// must be cheaper under MX.
	ps := model.Figure7Stats()
	eNIX, _ := NewEvaluator(ps, 1, 4, NIX)
	eMX, _ := NewEvaluator(ps, 1, 4, MX)
	dNIX, _ := eNIX.Delete(3, "Company")
	dMX, _ := eMX.Delete(3, "Company")
	if dMX >= dNIX {
		t.Errorf("MX delete %g >= NIX delete %g", dMX, dNIX)
	}
}

func TestProcessingCostComposition(t *testing.T) {
	ps := model.Figure7Stats()
	for _, org := range Organizations {
		sc, err := SubpathProcessingCost(ps, 1, 4, org)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Total() <= 0 {
			t.Errorf("%v total = %g", org, sc.Total())
		}
		if math.Abs(sc.Total()-(sc.Query+sc.Maint+sc.CMD)) > 1e-12 {
			t.Errorf("%v total != sum of parts", org)
		}
		if sc.CMD != 0 {
			t.Errorf("%v whole-path CMD = %g, want 0", org, sc.CMD)
		}
	}
}

func TestProcessingCostInheritedQueryLoad(t *testing.T) {
	// A tail subpath must carry the query load of the classes before it:
	// zeroing Person's alpha must reduce the cost of subpath [2..4].
	ps := model.Figure7Stats()
	before, err := SubpathProcessingCost(ps, 2, 4, NIX)
	if err != nil {
		t.Fatal(err)
	}
	ps2 := model.Figure7Stats()
	if err := ps2.SetLoad(1, "Person", model.Load{Alpha: 0, Beta: 0.1, Gamma: 0.1}); err != nil {
		t.Fatal(err)
	}
	after, err := SubpathProcessingCost(ps2, 2, 4, NIX)
	if err != nil {
		t.Fatal(err)
	}
	if after.Query >= before.Query {
		t.Errorf("inherited load not applied: before=%g after=%g", before.Query, after.Query)
	}
}

func TestProcessingCostBoundaryCharge(t *testing.T) {
	// Subpath [1..2] must be charged CMD for deletions on level 3 (Company).
	ps := model.Figure7Stats()
	sc, err := SubpathProcessingCost(ps, 1, 2, MX)
	if err != nil {
		t.Fatal(err)
	}
	if sc.CMD <= 0 {
		t.Errorf("CMD part = %g, want > 0", sc.CMD)
	}
	// Zeroing Company deletions removes the charge.
	ps2 := model.Figure7Stats()
	if err := ps2.SetLoad(3, "Company", model.Load{Alpha: 0.1, Beta: 0.1, Gamma: 0}); err != nil {
		t.Fatal(err)
	}
	sc2, err := SubpathProcessingCost(ps2, 1, 2, MX)
	if err != nil {
		t.Fatal(err)
	}
	if sc2.CMD != 0 {
		t.Errorf("CMD with zero deletions = %g, want 0", sc2.CMD)
	}
}
