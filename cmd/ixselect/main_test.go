package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/spec"
)

// TestExamplePipedThroughJSON is `ixselect -example | ixselect -json`: the
// template spec must select Example 5.1's configuration,
// {(Person.owns.man, NIX), (Company.divs.name, MX)}.
func TestExamplePipedThroughJSON(t *testing.T) {
	var spec, out bytes.Buffer
	if err := run([]string{"-example"}, strings.NewReader(""), &spec); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-json"}, &spec, &out); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Cost        float64
		Assignments []struct {
			From, To              int
			Organization, Subpath string
		}
	}
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	type assignment struct {
		from, to     int
		org, subpath string
	}
	want := []assignment{{1, 2, "NIX", "Person.owns.man"}, {3, 4, "MX", "Company.divs.name"}}
	if len(got.Assignments) != len(want) {
		t.Fatalf("got %d assignments, want %d:\n%s", len(got.Assignments), len(want), out.String())
	}
	for i, a := range got.Assignments {
		if g := (assignment{a.From, a.To, a.Organization, a.Subpath}); g != want[i] {
			t.Errorf("assignment %d = %+v, want %+v", i, g, want[i])
		}
	}
	if got.Cost < 24.8 || got.Cost > 24.9 {
		t.Errorf("cost = %v, want Example 5.1's 24.83", got.Cost)
	}
}

// TestZeroLoadSpecReport is the template with every alpha, beta and gamma
// deleted: every configuration costs 0, and the report must say the split
// saves 0.0 %, not NaN %.
func TestZeroLoadSpecReport(t *testing.T) {
	var tmpl bytes.Buffer
	if err := run([]string{"-example"}, strings.NewReader(""), &tmpl); err != nil {
		t.Fatal(err)
	}
	var s spec.Spec
	if err := json.Unmarshal(tmpl.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	for _, level := range s.Levels {
		for x := range level {
			level[x].Alpha, level[x].Beta, level[x].Gamma = 0, 0, 0
		}
	}
	in, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(in, []byte("alpha")) || bytes.Contains(in, []byte("beta")) || bytes.Contains(in, []byte("gamma")) {
		t.Fatalf("zero-load spec still carries a load: %s", in)
	}
	var out bytes.Buffer
	if err := run(nil, bytes.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	if want := "at 0.00  (split saves 0.0%)\n"; !strings.Contains(out.String(), want) {
		t.Errorf("report lacks %q:\n%s", want, out.String())
	}
	if strings.Contains(out.String(), "NaN") {
		t.Errorf("report prints NaN:\n%s", out.String())
	}
}

// TestMalformedSpecIsAnError feeds specs that must be refused: run returns
// the error main prints before exiting 1, and writes nothing to stdout.
func TestMalformedSpecIsAnError(t *testing.T) {
	for name, in := range map[string]string{
		"empty":        "",
		"truncated":    `{"bad`,
		"not a spec":   `[1, 2, 3]`,
		"empty object": `{}`,
	} {
		var out bytes.Buffer
		err := run(nil, strings.NewReader(in), &out)
		if err == nil {
			t.Errorf("%s: accepted, printed:\n%s", name, out.String())
			continue
		}
		if err.Error() == "" || out.Len() != 0 {
			t.Errorf("%s: error %q, stdout %q", name, err, out.String())
		}
	}
}

// TestOverflowingSpecIsAnError edits one load of the template spec to a
// value no cost can be finite under, and one to a value Validate refuses:
// run must return an error naming where — it used to panic in the dynamic
// program (every configuration cost +Inf) or price a negative frequency.
func TestOverflowingSpecIsAnError(t *testing.T) {
	var spec bytes.Buffer
	if err := run([]string{"-example"}, strings.NewReader(""), &spec); err != nil {
		t.Fatal(err)
	}
	for edit, want := range map[string]string{
		`"beta": 1e308`: "subpath [1,1] Person.owns under MX",
		`"beta": -1`:    `level 1: class "Person"`,
	} {
		in := strings.Replace(spec.String(), `"beta": 0.1`, edit, 1)
		var out bytes.Buffer
		err := run([]string{"-json"}, strings.NewReader(in), &out)
		if err == nil || !strings.Contains(err.Error(), want) || out.Len() != 0 {
			t.Errorf("%s: error %v (want it to contain %q), stdout %q", edit, err, want, out.String())
		}
	}
}
