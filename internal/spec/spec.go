// Package spec defines the JSON interchange format used by the ixselect
// CLI and by applications that persist selection inputs and results:
// schemas, paths, statistics, workloads, physical parameters, and index
// configurations.
package spec

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/model"
	"repro/internal/schema"
)

// Spec is the top-level JSON input: a schema, a path over it, per-level
// statistics and workload, and optional physical parameters and
// organization columns.
type Spec struct {
	// Params are optional physical parameters; nil takes the
	// paper-calibrated defaults (1 KiB pages).
	Params *Params `json:"params,omitempty"`
	// Classes define the schema.
	Classes []Class `json:"classes"`
	// Path gives the starting class and attribute chain.
	Path Path `json:"path"`
	// Levels give statistics and workload per path position; each level
	// lists its hierarchy's classes (root first).
	Levels [][]LevelClass `json:"levels"`
	// Organizations optionally restricts the matrix columns (default
	// MX,MIX,NIX); "NONE", "PX" and "NX" enable the extensions.
	Organizations []string `json:"organizations,omitempty"`
	// Selectivity, when positive, declares range-predicate queries
	// matching this fraction of the ending attribute's distinct values.
	Selectivity float64 `json:"selectivity,omitempty"`
}

// Params mirrors model.Params in JSON.
type Params struct {
	PageSize  int `json:"pageSize"`
	OidLen    int `json:"oidLen"`
	KeyLen    int `json:"keyLen"`
	PtrLen    int `json:"ptrLen"`
	CountLen  int `json:"countLen"`
	OffsetLen int `json:"offsetLen"`
	RecHeader int `json:"recHeader"`
}

// Class declares one class of the schema.
type Class struct {
	Name  string `json:"name"`
	Super string `json:"super,omitempty"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// Attr declares one attribute.
type Attr struct {
	Name        string `json:"name"`
	Kind        string `json:"kind"` // "atomic" (default) or "ref"
	Domain      string `json:"domain"`
	MultiValued bool   `json:"multiValued,omitempty"`
}

// Path declares the path.
type Path struct {
	Start string   `json:"start"`
	Attrs []string `json:"attrs"`
}

// LevelClass carries one class's statistics and workload at a level: the
// Section 3.2 triplet of query, insertion and deletion frequencies, and
// Rho, a range-query frequency priced at the spec's Selectivity (or the
// default range selectivity when it declares none) beside the Alpha
// queries (model.Load).
type LevelClass struct {
	Class string  `json:"class"`
	N     float64 `json:"n"`
	D     float64 `json:"d"`
	NIN   float64 `json:"nin,omitempty"`
	Alpha float64 `json:"alpha,omitempty"`
	Beta  float64 `json:"beta,omitempty"`
	Gamma float64 `json:"gamma,omitempty"`
	Rho   float64 `json:"rho,omitempty"`
}

// Parse decodes a Spec from JSON, rejecting unknown fields.
func Parse(r io.Reader) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return &s, nil
}

// Build materializes the spec: schema, path, statistics and organization
// columns.
func (s *Spec) Build() (*model.PathStats, []cost.Organization, error) {
	sc := schema.New()
	for _, c := range s.Classes {
		cls := &schema.Class{Name: c.Name, Super: c.Super}
		for _, a := range c.Attrs {
			kind := schema.Atomic
			switch a.Kind {
			case "ref":
				kind = schema.Ref
			case "atomic", "":
			default:
				return nil, nil, fmt.Errorf("spec: attribute %s.%s: unknown kind %q", c.Name, a.Name, a.Kind)
			}
			cls.Attrs = append(cls.Attrs, schema.Attribute{
				Name: a.Name, Kind: kind, Domain: a.Domain, MultiValued: a.MultiValued,
			})
		}
		if err := sc.AddClass(cls); err != nil {
			return nil, nil, err
		}
	}
	if err := sc.Validate(); err != nil {
		return nil, nil, err
	}
	p, err := schema.NewPath(sc, s.Path.Start, s.Path.Attrs...)
	if err != nil {
		return nil, nil, err
	}
	params := model.PaperParams()
	if s.Params != nil {
		params = model.Params{
			PageSize: s.Params.PageSize, OidLen: s.Params.OidLen,
			KeyLen: s.Params.KeyLen, PtrLen: s.Params.PtrLen,
			CountLen: s.Params.CountLen, OffsetLen: s.Params.OffsetLen,
			RecHeader: s.Params.RecHeader,
		}
	}
	ps := model.NewPathStats(p, params)
	ps.Selectivity = s.Selectivity
	if len(s.Levels) != p.Len() {
		return nil, nil, fmt.Errorf("spec: %d levels for a path of length %d", len(s.Levels), p.Len())
	}
	for li, level := range s.Levels {
		for _, lc := range level {
			nin := lc.NIN
			if nin == 0 {
				nin = 1
			}
			if err := ps.SetClass(li+1, model.ClassStats{Class: lc.Class, N: lc.N, D: lc.D, NIN: nin}); err != nil {
				return nil, nil, err
			}
			if err := ps.SetLoad(li+1, lc.Class, model.Load{Alpha: lc.Alpha, Beta: lc.Beta, Gamma: lc.Gamma, Rho: lc.Rho}); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := ps.Validate(); err != nil {
		return nil, nil, err
	}
	var orgs []cost.Organization
	for _, o := range s.Organizations {
		org, err := cost.ParseOrganization(o)
		if err != nil {
			return nil, nil, err
		}
		orgs = append(orgs, org)
	}
	return ps, orgs, nil
}

// ConfigurationJSON is the persisted form of a selection result.
type ConfigurationJSON struct {
	Cost        float64          `json:"cost"`
	Assignments []AssignmentJSON `json:"assignments"`
}

// AssignmentJSON is one subpath assignment in JSON form.
type AssignmentJSON struct {
	From         int    `json:"from"`
	To           int    `json:"to"`
	Organization string `json:"organization"`
	Subpath      string `json:"subpath,omitempty"`
}

// EncodeConfiguration renders a configuration (with optional path for
// subpath names) as JSON.
func EncodeConfiguration(c core.Configuration, p *schema.Path) ConfigurationJSON {
	out := ConfigurationJSON{Cost: c.Cost}
	for _, a := range c.Assignments {
		aj := AssignmentJSON{From: a.A, To: a.B, Organization: a.Org.String()}
		if p != nil {
			if sp, err := p.SubPath(a.A, a.B); err == nil {
				aj.Subpath = sp.String()
			}
		}
		out.Assignments = append(out.Assignments, aj)
	}
	return out
}

// DecodeConfiguration parses a persisted configuration back into core form.
func DecodeConfiguration(cj ConfigurationJSON) (core.Configuration, error) {
	c := core.Configuration{Cost: cj.Cost}
	for _, aj := range cj.Assignments {
		org, err := cost.ParseOrganization(aj.Organization)
		if err != nil {
			return c, err
		}
		c.Assignments = append(c.Assignments, core.Assignment{A: aj.From, B: aj.To, Org: org})
	}
	return c, nil
}

// Example returns the Figure 7 spec, the template the CLI prints.
func Example() *Spec {
	return &Spec{
		Classes: []Class{
			{Name: "Person", Attrs: []Attr{{Name: "owns", Kind: "ref", Domain: "Vehicle", MultiValued: true}}},
			{Name: "Vehicle", Attrs: []Attr{{Name: "man", Kind: "ref", Domain: "Company"}}},
			{Name: "Bus", Super: "Vehicle"},
			{Name: "Truck", Super: "Vehicle"},
			{Name: "Company", Attrs: []Attr{{Name: "divs", Kind: "ref", Domain: "Division", MultiValued: true}}},
			{Name: "Division", Attrs: []Attr{{Name: "name", Kind: "atomic", Domain: "string"}}},
		},
		Path: Path{Start: "Person", Attrs: []string{"owns", "man", "divs", "name"}},
		Levels: [][]LevelClass{
			{{Class: "Person", N: 200000, D: 20000, NIN: 1, Alpha: 0.3, Beta: 0.1, Gamma: 0.1}},
			{
				{Class: "Vehicle", N: 10000, D: 5000, NIN: 3, Alpha: 0.3, Gamma: 0.05},
				{Class: "Bus", N: 5000, D: 2500, NIN: 2, Alpha: 0.05, Beta: 0.05, Gamma: 0.1},
				{Class: "Truck", N: 5000, D: 2500, NIN: 2, Beta: 0.1},
			},
			{{Class: "Company", N: 1000, D: 1000, NIN: 4, Alpha: 0.1, Beta: 0.1, Gamma: 0.1}},
			{{Class: "Division", N: 1000, D: 1000, NIN: 1, Alpha: 0.2, Beta: 0.2, Gamma: 0.1}},
		},
	}
}
