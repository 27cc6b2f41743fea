package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestRunFig6PrintsTheWalkthrough(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "fig6"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"F6 — Figure 6 walkthrough",
		"Optimal configuration: {(S1-1, MX), (S2-4, NIX)} with processing cost 8",
		"Configurations evaluated: 6 of 8 (pruned prefixes: 2)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestRunUnknownModeListsTheRegistry(t *testing.T) {
	err := run([]string{"-run", "nosuch"}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("unknown -run value accepted")
	}
	for _, e := range experiments.Registry {
		if !strings.Contains(err.Error(), e.Name) {
			t.Errorf("error %q does not list mode %q", err, e.Name)
		}
	}
}

// TestRunAppendsHistory runs a timed experiment twice into the same
// -out file: the history must hold exactly two self-describing lines,
// the second run having appended rather than overwritten.
func TestRunAppendsHistory(t *testing.T) {
	hist := filepath.Join(t.TempDir(), "history.jsonl")
	for i := 0; i < 2; i++ {
		if err := run([]string{"-run", "feedback", "-ops", "50", "-seed", "9", "-out", hist}, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(hist)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("history has %d lines after two runs, want 2", len(lines))
	}
	for _, line := range lines {
		var rep experiments.Report
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			t.Fatalf("history line is not a report: %v\n%s", err, line)
		}
		// (The commit is the build's VCS stamp, or "unknown" in a test binary.)
		if rep.ID != "E9" || rep.Seed != 9 || rep.Ops != 50 || rep.Commit == "" ||
			rep.Host.GoVersion == "" || rep.Host.NumCPU == 0 || len(rep.Cells) != 2 {
			t.Errorf("history line not self-describing: %+v", rep)
		}
	}
}
