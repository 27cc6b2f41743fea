package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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

// runMode matches an ixbench invocation in prose, across a line break.
var runMode = regexp.MustCompile(`ixbench\s+-run\s+(\w+)`)

// modes returns the -run modes text names, in order.
func modes(text string) []string {
	var out []string
	for _, m := range runMode.FindAllStringSubmatch(text, -1) {
		out = append(out, m[1])
	}
	return out
}

// packageDoc returns the package comment of the Go package in dir.
func packageDoc(t *testing.T, dir string) string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var doc strings.Builder
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if f.Doc != nil {
				doc.WriteString(f.Doc.Text())
			}
		}
	}
	return doc.String()
}

// TestRegistryIsDocumented keeps the documents and the registry in step:
// README's command block runs every mode, DESIGN.md §6's index table has
// a row for every ID, and no README, doc.go or command package comment
// names a mode the registry does not have.
func TestRegistryIsDocumented(t *testing.T) {
	read := func(name string) string {
		blob, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	readme := read("README.md")
	var block []string // the modes run in README's fenced code
	for i, chunk := range strings.Split(readme, "```") {
		if i%2 == 1 {
			block = append(block, modes(chunk)...)
		}
	}
	design := read("DESIGN.md")
	start := strings.Index(design, "\n## 6. ")
	if start < 0 {
		t.Fatal("DESIGN.md has no section 6")
	}
	index := design[start+1:]
	if end := strings.Index(index, "\n### "); end >= 0 {
		index = index[:end]
	}
	known := map[string]bool{"all": true}
	for _, e := range experiments.Registry {
		known[e.Name] = true
		if !slices.Contains(block, e.Name) {
			t.Errorf("README.md's command block does not run ixbench -run %s", e.Name)
		}
		if !strings.Contains(index, "\n| "+e.ID+" |") {
			t.Errorf("DESIGN.md §6's index table has no row for %s (%s)", e.ID, e.Name)
		}
	}
	texts := map[string]string{"README.md": readme, "doc.go": packageDoc(t, filepath.Join("..", ".."))}
	cmds, err := filepath.Glob(filepath.Join("..", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range cmds {
		texts["cmd/"+filepath.Base(dir)] = packageDoc(t, dir)
	}
	for name, text := range texts {
		for _, m := range modes(text) {
			if !known[m] {
				t.Errorf("%s names ixbench -run %s, which the registry does not have", name, m)
			}
		}
	}
}

// TestPairsHistoryParses keeps BENCH_pairs.jsonl, the history
// .github/pairs.sh appends to, readable: every line is one pair naming
// the workload, the seed, which side ran first, and for each side its
// commit and its result's failure count and metrics. It runs no benchmark.
func TestPairsHistoryParses(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "BENCH_pairs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	type side struct {
		Commit string
		Result struct {
			Failed  *int64
			Metrics map[string]struct{ Value *float64 }
		}
	}
	commit := regexp.MustCompile(`^[0-9a-f]{40}$`)
	lines := strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n")
	for i, line := range lines {
		var pair struct {
			Workload       string
			Seed           *int64
			Order          string
			Parent, Change *side
		}
		if err := json.Unmarshal([]byte(line), &pair); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if pair.Workload == "" || pair.Seed == nil || (pair.Order != "parent_first" && pair.Order != "change_first") {
			t.Errorf("line %d: workload %q, seed %v, order %q", i+1, pair.Workload, pair.Seed, pair.Order)
		}
		for name, s := range map[string]*side{"parent": pair.Parent, "change": pair.Change} {
			if s == nil || !commit.MatchString(s.Commit) || s.Result.Failed == nil || len(s.Result.Metrics) == 0 {
				t.Errorf("line %d: %s side lacks a commit, a failure count or metrics: %+v", i+1, name, s)
				continue
			}
			for m, v := range s.Result.Metrics {
				if v.Value == nil {
					t.Errorf("line %d: %s metric %s has no value", i+1, name, m)
				}
			}
		}
	}
}
