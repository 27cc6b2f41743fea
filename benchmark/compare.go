package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// host pins a run to the machine shape it ran on; runs of different
// shapes are not compared.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func hostFingerprint() host {
	return host{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// gitCommit is the checkout's HEAD, or "unknown" outside a repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fullRun is every workload of one commit on one host, untraced and
// traced: the unit of comparison and of history.
type fullRun struct {
	Host    host     `json:"host"`
	Commit  string   `json:"commit"`
	Seed    int64    `json:"seed"`
	Seconds int      `json:"seconds"`
	Results []result `json:"results"`
}

func (f fullRun) find(workload string, traced bool) *result {
	for i := range f.Results {
		if f.Results[i].Workload == workload && f.Results[i].Traced == traced {
			return &f.Results[i]
		}
	}
	return nil
}

func readRun(path string) (fullRun, error) {
	var f fullRun
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// verdict judges one metric of run b against run a. worse is the share of
// a's median by which b is worse (negative when better); a repeated
// metric whose own quartiles lie further apart than the bound cannot
// resolve a difference of that size.
func verdict(s metricSpec, a, b measured) (worse float64, v string) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
		if s.Better == "higher" {
			worse = -worse
		}
	}
	for _, m := range []measured{a, b} {
		if m.N > 1 && m.Value != 0 && (m.Q3-m.Q1)/m.Value > s.Bound {
			return worse, "UNRESOLVED"
		}
	}
	if worse > s.Bound {
		return worse, "FAIL"
	}
	return worse, "PASS"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// how much worse the second is, and the verdict against the metric's
// bound; any FAIL is an error.
func compareFiles(spec *benchSpec, pathA, pathB string) error {
	a, err := readRun(pathA)
	if err != nil {
		return err
	}
	b, err := readRun(pathB)
	if err != nil {
		return err
	}
	if a.Host != b.Host {
		return fmt.Errorf("refusing to compare runs of different hosts: %+v and %+v", a.Host, b.Host)
	}
	fmt.Printf("%-14s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", pathA, pathB, "worse", "bound", "verdict")
	fails := 0
	for _, w := range spec.Workloads {
		ra, rb := a.find(w.Name, false), b.find(w.Name, false)
		if ra == nil || rb == nil {
			return fmt.Errorf("workload %s is missing from a result file", w.Name)
		}
		for _, s := range spec.EndToEnd {
			worse, v := verdict(s, ra.Metrics[s.Name], rb.Metrics[s.Name])
			if v == "FAIL" {
				fails++
			}
			fmt.Printf("%-14s %-14s %14.4f %14.4f %8.2f%% %6.0f%%  %s\n", w.Name, s.Name, ra.Metrics[s.Name].Value, rb.Metrics[s.Name].Value, 100*worse, 100*s.Bound, v)
		}
		if ra.Failed+rb.Failed > 0 {
			fails++
			fmt.Printf("%-14s %-14s %14d %14d  FAIL (must stay 0)\n", w.Name, "failed", ra.Failed, rb.Failed)
		}
	}
	if fails > 0 {
		return fmt.Errorf("%d metrics worse than their bound", fails)
	}
	return nil
}

// appendHistory adds the run as one JSON line to history.jsonl: commit,
// host, seed and every metric of every workload.
func appendHistory(f fullRun) error {
	type line struct {
		Commit  string                        `json:"commit"`
		Host    host                          `json:"host"`
		Seed    int64                         `json:"seed"`
		Seconds int                           `json:"seconds"`
		Metrics map[string]map[string]float64 `json:"metrics"` // workload → metric → value
	}
	l := line{Commit: f.Commit, Host: f.Host, Seed: f.Seed, Seconds: f.Seconds, Metrics: map[string]map[string]float64{}}
	for _, r := range f.Results {
		if l.Metrics[r.Workload] == nil {
			l.Metrics[r.Workload] = map[string]float64{}
		}
		for n, m := range r.Metrics {
			l.Metrics[r.Workload][n] = m.Value
		}
	}
	raw, err := json.Marshal(l)
	if err != nil {
		return err
	}
	h, err := os.OpenFile("history.jsonl", os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := h.Write(append(raw, '\n')); err != nil {
		h.Close()
		return err
	}
	return h.Close()
}
