package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specPath is BENCHMARK.json as seen from the benchmark's directory, the
// working directory run.sh and `go test` both give the program. The file
// is the single list of workload and metric names; the program declares
// none of its own.
const specPath = "../BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}
	return &s, nil
}

// measured is one metric of one run: a median with its quartiles and
// sample count when it was repeated, a single reading otherwise.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// metricSet holds one run's metrics. Every declared metric starts at 0 —
// for a per-layer metric that is the true reading on a workload that
// bypasses the layer — and only declared names can be set.
type metricSet struct {
	vals map[string]measured
}

func newMetricSet(specs []metricSpec) *metricSet {
	m := &metricSet{vals: make(map[string]measured, len(specs))}
	for _, s := range specs {
		m.vals[s.Name] = measured{Unit: s.Unit}
	}
	return m
}

func (m *metricSet) declared(name string) bool {
	_, ok := m.vals[name]
	return ok
}

func (m *metricSet) set(name string, v float64) { m.setMeasured(name, measured{Value: v}) }

func (m *metricSet) setMeasured(name string, v measured) {
	old, ok := m.vals[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not declared in %s", name, specPath))
	}
	v.Unit = old.Unit
	m.vals[name] = v
}
