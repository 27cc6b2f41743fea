package spec

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/model"
)

func TestExampleRoundTrip(t *testing.T) {
	ex := Example()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ex); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ps, orgs, err := parsed.Build()
	if err != nil {
		t.Fatal(err)
	}
	if orgs != nil {
		t.Errorf("orgs = %v, want default nil", orgs)
	}
	if ps.Len() != 4 || ps.Path.String() != "Person.owns.man.divs.name" {
		t.Errorf("path = %s", ps.Path)
	}
	// The built stats must reproduce the Figure 8 selection.
	res, _, err := core.Select(ps, orgs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Degree() != 2 || res.Best.Assignments[0].Org != cost.NIX {
		t.Errorf("selection from spec = %v", res.Best)
	}
	if math.Abs(res.Best.Cost-24.83) > 0.1 {
		t.Errorf("cost = %g, want ~24.83", res.Best.Cost)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"bogus": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Parse(strings.NewReader(`{`)); err == nil {
		t.Error("broken JSON accepted")
	}
}

func TestBuildErrors(t *testing.T) {
	base := func() *Spec { return Example() }

	s := base()
	s.Classes[0].Attrs[0].Kind = "weird"
	if _, _, err := s.Build(); err == nil {
		t.Error("unknown attr kind accepted")
	}

	s = base()
	s.Classes = append(s.Classes, Class{Name: "Person"})
	if _, _, err := s.Build(); err == nil {
		t.Error("duplicate class accepted")
	}

	s = base()
	s.Path.Start = "Ghost"
	if _, _, err := s.Build(); err == nil {
		t.Error("unknown starting class accepted")
	}

	s = base()
	s.Levels = s.Levels[:2]
	if _, _, err := s.Build(); err == nil {
		t.Error("level count mismatch accepted")
	}

	s = base()
	s.Levels[0][0].Class = "Vehicle"
	if _, _, err := s.Build(); err == nil {
		t.Error("wrong level class accepted")
	}

	s = base()
	s.Organizations = []string{"WAT"}
	if _, _, err := s.Build(); err == nil {
		t.Error("unknown organization accepted")
	}

	s = base()
	s.Selectivity = 3
	if _, _, err := s.Build(); err == nil {
		t.Error("invalid selectivity accepted")
	}

	s = base()
	s.Classes[1].Super = "Nope"
	if _, _, err := s.Build(); err == nil {
		t.Error("unknown superclass accepted")
	}
}

func TestCustomParamsAndOrgs(t *testing.T) {
	s := Example()
	s.Params = &Params{PageSize: 4096, OidLen: 8, KeyLen: 8, PtrLen: 8, CountLen: 4, OffsetLen: 12, RecHeader: 16}
	s.Organizations = []string{"MX", "NIX", "NONE", "PX", "NX"}
	ps, orgs, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ps.Params.PageSize != 4096 {
		t.Errorf("page size = %d", ps.Params.PageSize)
	}
	if len(orgs) != 5 || orgs[3] != cost.PX || orgs[4] != cost.NX {
		t.Errorf("orgs = %v", orgs)
	}
	if _, _, err := core.Select(ps, orgs); err != nil {
		t.Fatalf("selection with extended columns: %v", err)
	}
}

func TestSelectivityFlowsThrough(t *testing.T) {
	s := Example()
	s.Selectivity = 0.1
	ps, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ps.Selectivity != 0.1 {
		t.Errorf("selectivity = %g", ps.Selectivity)
	}
}

// TestRhoFlowsThrough gives every class of the template a range-query
// frequency, as the golden table's Rho path does: the built statistics
// must price every cell of every column bit for bit like Figure 7's with
// the same Rho.
func TestRhoFlowsThrough(t *testing.T) {
	s := Example()
	want := model.Figure7Stats()
	for l := range s.Levels {
		for x := range s.Levels[l] {
			rho := 0.01 * float64(1+l+x)
			s.Levels[l][x].Rho = rho
			want.Levels[l].Loads[x].Rho = rho
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"rho":0.01}`) {
		t.Fatalf("encoded spec carries no rho: %s", buf.String())
	}
	parsed, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ps, _, err := parsed.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.NewMatrixFromStats(ps, cost.OrganizationsExtended)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewMatrixFromStats(want, cost.OrganizationsExtended)
	if err != nil {
		t.Fatal(err)
	}
	for _, ab := range ref.Rows() {
		for _, org := range ref.Orgs {
			g, _ := got.Entry(ab[0], ab[1], org)
			w, _ := ref.Entry(ab[0], ab[1], org)
			if bits(g.SC) != bits(w.SC) {
				t.Errorf("[%d,%d] %v: spec prices %+v, Figure 7 %+v", ab[0], ab[1], org, g.SC, w.SC)
			}
		}
	}
}

// bits are the bits of a cell's three costs.
func bits(sc cost.SubpathCost) [3]uint64 {
	return [3]uint64{math.Float64bits(sc.Query), math.Float64bits(sc.Maint), math.Float64bits(sc.CMD)}
}

func TestConfigurationCodec(t *testing.T) {
	ex := Example()
	ps, _, err := ex.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := core.Configuration{
		Cost: 12.5,
		Assignments: []core.Assignment{
			{A: 1, B: 2, Org: cost.NIX},
			{A: 3, B: 4, Org: cost.MX},
		},
	}
	cj := EncodeConfiguration(in, ps.Path)
	if cj.Assignments[0].Subpath != "Person.owns.man" {
		t.Errorf("subpath name = %q", cj.Assignments[0].Subpath)
	}
	out, err := DecodeConfiguration(cj)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost != in.Cost || len(out.Assignments) != 2 || out.Assignments[1] != in.Assignments[1] {
		t.Errorf("round trip = %+v", out)
	}
	// Unknown organization on decode.
	cj.Assignments[0].Organization = "ZZZ"
	if _, err := DecodeConfiguration(cj); err == nil {
		t.Error("unknown organization decoded")
	}
	// Encode without a path omits names.
	cj2 := EncodeConfiguration(in, nil)
	if cj2.Assignments[0].Subpath != "" {
		t.Error("subpath name without path")
	}
}
