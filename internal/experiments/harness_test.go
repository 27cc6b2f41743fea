package experiments

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	us := func(vs ...float64) []time.Duration {
		ds := make([]time.Duration, len(vs))
		for i, v := range vs {
			ds[i] = time.Duration(v * float64(time.Microsecond))
		}
		return ds
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		name     string
		sorted   []time.Duration
		p50, p99 float64
	}{
		{"empty", nil, 0, 0},
		{"one sample", us(7), 7, 7},
		{"100 samples: nearest rank", us(hundred...), 50, 99},
		{"ties", us(3, 3, 3, 3, 9), 3, 9},
		{"sub-microsecond kept", us(0.4, 22.8), 0.4, 22.8},
	} {
		if got := Percentile(tc.sorted, 50); got != tc.p50 {
			t.Errorf("%s: p50 = %v, want %v", tc.name, got, tc.p50)
		}
		if got := Percentile(tc.sorted, 99); got != tc.p99 {
			t.Errorf("%s: p99 = %v, want %v", tc.name, got, tc.p99)
		}
	}
}

// cross returns the row-major cross product of the dimensions, each
// tuple joined by "/".
func cross(dims ...[]string) []string {
	out := []string{""}
	for _, dim := range dims {
		var next []string
		for _, prefix := range out {
			for _, v := range dim {
				next = append(next, strings.TrimPrefix(prefix+"/"+v, "/"))
			}
		}
		out = next
	}
	return out
}

// TestRegistrySmoke runs every registry entry at tiny ops. For the timed
// experiments it pins the arm × level grid (each want entry is a prefix
// of the cell's "/"-joined label values, in order), the sanity of every
// cell, the JSON round trip and one rendered row per cell, plus the
// physics each experiment's cells must obey whatever the host.
func TestRegistrySmoke(t *testing.T) {
	// Tiny everywhere; E5 needs a population larger than its 4-page pool.
	const ops, durableOps = 40, 120
	configs := []string{"optimal", "whole-path-NIX", "naive"}
	extra := func(t *testing.T, rep Report, name string, kv ...any) float64 {
		t.Helper()
		c := rep.Cell(kv...)
		if c == nil {
			t.Fatalf("no cell %v", kv)
		}
		return c.Extra(name)
	}
	timed := map[string]struct {
		cells []string
		check func(t *testing.T, rep Report)
		ops   int // 0: ops
	}{
		"maintain": {cells: cross(configs, []string{"90", "50", "10"}), check: func(t *testing.T, rep Report) {
			for _, c := range rep.Cells {
				if c.Label("config") == "naive" {
					continue // a handful of operations per pass: too few to see both kinds
				}
				if c.Extra("query_ops") == 0 || c.Extra("update_ops") == 0 {
					t.Errorf("%v: mix not mixed", c.Labels)
				}
				if c.PagesPerOp <= 0 || c.Extra("update_pages_per_op") <= 0 {
					t.Errorf("%v: indexed backend reported free updates", c.Labels)
				}
				if c.Extra("updates_recorded") == 0 {
					t.Errorf("%v: engine recorder saw no updates", c.Labels)
				}
			}
		}},
		"durable": {cells: append(append(cross([]string{"fsync-policy"}, []string{"always", "group", "never"}),
			cross([]string{"recovery"}, []string{strconv.Itoa(durableOps / 4), strconv.Itoa(durableOps), strconv.Itoa(4 * durableOps)})...),
			cross([]string{"cold-cache"}, []string{"optimal", "naive"}, []string{"cold", "warm"})...),
			check: func(t *testing.T, rep Report) {
				for _, pol := range []string{"always", "group", "never"} {
					if extra(t, rep, "wal_bytes", "policy", pol) == 0 {
						t.Errorf("policy %s appended no WAL bytes", pol)
					}
				}
				if got := extra(t, rep, "fsyncs", "policy", "always"); got < durableOps {
					t.Errorf("SyncAlways: %v fsyncs for %d ops, want at least one per op", got, durableOps)
				}
				if got := extra(t, rep, "fsyncs", "policy", "never"); got != 0 {
					t.Errorf("SyncNever: %v fsyncs, want 0", got)
				}
				for _, c := range rep.Cells {
					if w := c.Label("wal_ops"); w != "" && strconv.Itoa(int(c.Extra("replayed"))) != w {
						t.Errorf("recovery at %s ops replayed %v records", w, c.Extra("replayed"))
					}
				}
				naiveCold := extra(t, rep, "disk_reads", "backend", "naive", "phase", "cold")
				if naiveCold == 0 {
					t.Fatal("naive cold sweep read nothing from disk")
				}
				// With a pool far smaller than the population an LRU thrashes
				// under sequential scans: the pool ends each sweep holding the
				// scan's tail, the wrong content for the next sweep's head, so
				// staying open buys no real caching. (At this size the two hit
				// rates still differ by tens of percent either way; at the
				// default ops they agree to under one.) A warm sweep at half the
				// cold sweep's disk reads would mean the pool geometry no longer
				// forces the thrash this curve is about. The margin: at seed 7
				// fifty runs gave cold 266–292 and warm 265–287, never more
				// than 9 % apart (what still moves them is the map order in
				// which ScanClass visits a page's objects). Before the
				// checkpoint streamed objects in OID order (oodb.Objects) every
				// reopen restored a page layout of its own — cold 189–482,
				// warm 193–529 over fifty runs, the closest 360 against 193 —
				// and PRs 17 and 18 recorded this check failing one run in ten.
				if w := extra(t, rep, "disk_reads", "backend", "naive", "phase", "warm"); w < naiveCold/2 {
					t.Errorf("naive warm sweep read %v pages, cold read %v — expected thrash (warm ≈ cold)", w, naiveCold)
				}
				if o := extra(t, rep, "disk_reads", "backend", "optimal", "phase", "cold"); o > naiveCold {
					t.Errorf("indexed cold sweep read %v store pages, naive read %v", o, naiveCold)
				}
			}, ops: durableOps},
		"plan": {cells: append(cross([]string{"ordering"}, []string{"planner-auto", "declared-worst", "naive-scan"}),
			cross([]string{"shard-pruning"}, []string{"1", "4", "8"}, []string{"true", "false"})...),
			check: func(t *testing.T, rep Report) {
				if got := extra(t, rep, "prune_rate", "shards", 8, "pruning", true); got < 0.9 {
					t.Errorf("skewed 8-shard prune rate %v, want >= 0.9", got)
				}
				if got := extra(t, rep, "pruned", "shards", 8, "pruning", false); got != 0 {
					t.Errorf("pruning disabled yet %v descents pruned", got)
				}
			}},
		"feedback": {cells: []string{"static", "workload-fed/{(S1-4, NIX)}"}},
	}

	for _, e := range Registry {
		t.Run(e.Name, func(t *testing.T) {
			want, isTimed := timed[e.Name]
			runOps := max(want.ops, ops)
			out, err := e.Run(Params{Seed: 7, Ops: runOps, MaxN: 5, Trials: 3})
			if err != nil {
				t.Fatal(err)
			}
			text := out.Render()
			if isTimed != (e.DefaultOps > 0) {
				t.Fatalf("DefaultOps %d but timed expectations present = %v", e.DefaultOps, isTimed)
			}
			if !isTimed {
				if strings.TrimSpace(text) == "" {
					t.Fatal("empty render")
				}
				return
			}
			rep := out.(Report)
			if rep.ID != e.ID || rep.Name != e.Name || rep.Seed != 7 || rep.Ops != runOps ||
				rep.Repetitions != repetitions || rep.Commit == "" || rep.Host.NumCPU == 0 {
				t.Errorf("report not self-describing: %+v", rep)
			}
			if len(rep.Cells) != len(want.cells) {
				t.Fatalf("got %d cells, want %d", len(rep.Cells), len(want.cells))
			}
			lines := strings.Split(text, "\n")
			for i, c := range rep.Cells {
				var vals []string
				for _, l := range c.Labels {
					vals = append(vals, l.Value)
				}
				if got := strings.Join(vals, "/"); !strings.HasPrefix(got, want.cells[i]) {
					t.Errorf("cell %d is %q, want %q", i, got, want.cells[i])
				}
				if c.Ops <= 0 || c.OpsPerSec <= 0 || math.IsInf(c.OpsPerSec, 0) ||
					c.OpsPerSecMin > c.OpsPerSec || c.OpsPerSec > c.OpsPerSecMax || c.P99Micros < c.P50Micros {
					t.Errorf("degenerate cell %+v", c)
				}
				rows := 0
				for _, line := range lines {
					if reflect.DeepEqual(firstFields(line, len(vals)), vals) {
						rows++
					}
				}
				if rows != 1 {
					t.Errorf("cell %v rendered as %d rows:\n%s", vals, rows, text)
				}
			}
			blob, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var back Report
			if err := json.Unmarshal(blob, &back); err != nil || !reflect.DeepEqual(back, rep) {
				t.Errorf("JSON round trip: err %v\n got %+v\nwant %+v", err, back, rep)
			}
			if want.check != nil {
				want.check(t, rep)
			}
		})
	}
}

// firstFields splits a rendered table row on its two-space column gaps
// and returns the first n columns.
func firstFields(line string, n int) []string {
	var cols []string
	for _, col := range strings.Split(line, "  ") {
		if col = strings.TrimSpace(col); col != "" {
			cols = append(cols, col)
		}
	}
	return cols[:min(n, len(cols))]
}
