package spec

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
)

// FuzzSpecBuild feeds arbitrary bytes through the ixselect pipeline —
// Parse, Build and core.Select — and requires each step to return an
// error or a finite, valid answer, never to panic: a built spec validates,
// and a selected configuration covers the path at a finite cost that is
// the sum of its cells.
func FuzzSpecBuild(f *testing.F) {
	for _, s := range specSeeds() {
		raw, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"bogus": 1}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Parse(bytes.NewReader(raw))
		if err != nil {
			return
		}
		ps, orgs, err := s.Build()
		if err != nil {
			return
		}
		if err := ps.Validate(); err != nil {
			t.Fatalf("Build returned statistics that do not validate: %v", err)
		}
		res, m, err := core.Select(ps, orgs)
		if err != nil {
			return
		}
		if err := res.Best.Validate(ps.Len()); err != nil {
			t.Fatalf("selected %v: %v", res.Best, err)
		}
		if math.IsInf(res.Best.Cost, 0) || math.IsNaN(res.Best.Cost) {
			t.Fatalf("selected %v at cost %v", res.Best, res.Best.Cost)
		}
		if sum, err := m.ConfigurationCost(res.Best); err != nil || sum != res.Best.Cost {
			t.Fatalf("selected %v at cost %v, its cells sum to %v (%v)", res.Best, res.Best.Cost, sum, err)
		}
	})
}

// specSeeds are the example spec and the variants the table tests build
// from it.
func specSeeds() []*Spec {
	seeds := []*Spec{Example()}
	add := func(mut func(s *Spec)) {
		s := Example()
		mut(s)
		seeds = append(seeds, s)
	}
	add(func(s *Spec) { s.Classes[0].Attrs[0].Kind = "weird" })
	add(func(s *Spec) { s.Classes = append(s.Classes, Class{Name: "Person"}) })
	add(func(s *Spec) { s.Path.Start = "Ghost" })
	add(func(s *Spec) { s.Levels = s.Levels[:2] })
	add(func(s *Spec) { s.Levels[0][0].Class = "Vehicle" })
	add(func(s *Spec) { s.Organizations = []string{"WAT"} })
	add(func(s *Spec) { s.Selectivity = 3 })
	add(func(s *Spec) { s.Selectivity = 0.1 })
	add(func(s *Spec) {
		for l := range s.Levels {
			for x := range s.Levels[l] {
				s.Levels[l][x].Rho = 0.01 * float64(1+l+x)
			}
		}
	})
	add(func(s *Spec) { s.Classes[1].Super = "Nope" })
	add(func(s *Spec) {
		s.Params = &Params{PageSize: 4096, OidLen: 8, KeyLen: 8, PtrLen: 8, CountLen: 4, OffsetLen: 12, RecHeader: 16}
		s.Organizations = []string{"MX", "NIX", "NONE", "PX", "NX"}
	})
	return seeds
}
