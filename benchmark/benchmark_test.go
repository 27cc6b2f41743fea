package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {100, 100}, {0, 1}, {1, 1}, {99.5, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
}

func TestSummarize(t *testing.T) {
	m := summarize([]float64{5, 1, 4, 2, 3})
	if m.Value != 3 || m.Q1 != 2 || m.Q3 != 4 || m.N != 5 {
		t.Errorf("summarize(1..5) = %+v, want median 3, quartiles 2 and 4, n 5", m)
	}
	if m := summarize([]float64{1, 2}); m.Value != 1.5 {
		t.Errorf("median of 1,2 = %v, want 1.5", m.Value)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{epoch: time.Now()}
	root := tr.root(0, "netclient.sync_query", tr.epoch, 100, 1)
	a := tr.child(root, "engine.query", 30, 1)
	tr.child(a, "index.lookup.NIX", 10, 4)
	tr.child(root, "wire.encode_resp", 50, 1)
	want := []int64{20, 20, 10, 50}
	for i, got := range selfTimes(tr.spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", tr.spans[i].Name, got, want[i])
		}
	}
	// Children are laid end to end inside the parent, in call order.
	if s := tr.spans[3]; s.Start != tr.spans[1].End {
		t.Errorf("second child starts at %d, want the first child's end %d", s.Start, tr.spans[1].End)
	}
	if got := tr.meanNS("index.lookup.NIX"); got != 2.5 {
		t.Errorf("mean per call of a 10 ns span of 4 calls = %v, want 2.5", got)
	}

	// Replays that overrun the call containing them are scaled to fit it.
	over := &tracer{epoch: time.Now()}
	root = over.root(0, "engine.query", over.epoch, 100, 1)
	b := over.child(root, "exec.chain", 150, 1)
	over.child(b, "index.lookup.MX", 75, 1)
	over.child(root, "exec.other", 50, 1)
	var sum int64
	self := selfTimes(over.spans)
	for _, s := range self {
		sum += s
	}
	if self[0] != 0 || sum < 99 || sum > 100 {
		t.Errorf("overrun: self times %v, want root 0 and a sum of the root's 100", self)
	}
}

func TestReconcileSums(t *testing.T) {
	for _, net := range []bool{true, false} {
		tr := &tracer{epoch: time.Now(), netRoot: net}
		for req := 0; req < 3; req++ {
			root := tr.root(req, "netclient.sync_query", tr.epoch, 40000, 1)
			tr.child(root, "wire.encode_req", 1000, 1)
			e := tr.child(root, "engine.query", 9000, 1)
			tr.child(e, "index.lookup.MX", 12000, 2) // overruns the engine call
		}
		rec := tr.reconcile()
		sum := rec.UnexplainedUS
		for _, v := range rec.LayerSelfUS {
			sum += v
		}
		if math.Abs(sum-rec.TotalUS) > 1e-9 || rec.TotalUS != 40 || rec.Requests != 3 {
			t.Errorf("net=%v: parts sum to %v of total %v over %d requests", net, sum, rec.TotalUS, rec.Requests)
		}
		if net && rec.UnexplainedUS != 30 {
			t.Errorf("network trace: unexplained = %v, want the root's self time 30", rec.UnexplainedUS)
		}
		if !net && rec.UnexplainedUS != 0 {
			t.Errorf("embedded trace: unexplained = %v, want 0", rec.UnexplainedUS)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(v float64) measured { return measured{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 5} }
	for _, c := range []struct {
		s    metricSpec
		a, b measured
		want string
	}{
		{lower, steady(100), steady(105), "PASS"},
		{lower, steady(100), steady(111), "FAIL"},
		{lower, steady(100), steady(50), "PASS"},
		{higher, steady(100), steady(89), "FAIL"},
		{higher, steady(100), steady(120), "PASS"},
		{lower, steady(100), measured{Value: 100, Q1: 90, Q3: 110, N: 5}, "UNRESOLVED"},
		{lower, measured{Value: 58}, measured{Value: 58}, "PASS"},
		{lower, measured{Value: 58}, measured{Value: 70}, "FAIL"},
	} {
		if _, got := verdict(c.s, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.s.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestSpecNamesTheWorkloads(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%s names %d workloads, the program runs %d", specPath, len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s names %q, the program runs %q", i, specPath, w.Name, workloads[i].name)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

// smokeParams drives every workload through the benchmark's own code path
// at a hundredth of Figure 7 with 100 ms cells.
func smokeParams(t *testing.T, seed int64) params {
	return params{seed: seed, cell: 100 * time.Millisecond, warm: 20 * time.Millisecond, setups: 1, passOps: 300, scale: 0.1, out: t.TempDir()}
}

func checkMetrics(t *testing.T, res result, specs []metricSpec) {
	t.Helper()
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: %d failed of %d attempted, want none of some", res.Workload, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics emitted, %d declared", res.Workload, len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := res.Metrics[s.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", res.Workload, s.Name)
			continue
		}
		if m.Unit != s.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v %s, want a finite number of %s", res.Workload, s.Name, m.Value, m.Unit, s.Unit)
		}
	}
}

func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			p := smokeParams(t, 1)
			res, err := runWorkload(w, spec, p, false)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, spec.EndToEnd)
			for _, s := range spec.EndToEnd {
				if res.Metrics[s.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want above 0", s.Name, res.Metrics[s.Name].Value)
				}
			}

			res, err = runWorkload(w, spec, p, true)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, spec.PerLayer)
			rec := res.Recon
			if rec == nil || rec.Requests == 0 {
				t.Fatal("no reconciliation row")
			}
			sum := rec.UnexplainedUS
			for _, v := range rec.LayerSelfUS {
				sum += v
			}
			if math.Abs(sum-rec.TotalUS) > 1e-6*rec.TotalUS {
				t.Errorf("reconciliation parts sum to %v us, total is %v us", sum, rec.TotalUS)
			}
			if _, err := os.Stat(filepath.Join(p.out, "trace-"+w.name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestCountedPassRepeats: the counted pass is one client on a seeded op
// sequence, so what it counts is the same for the same seed and differs
// across seeds. Two exceptions, both in the program and not the harness:
// net_point's op is one descent of one small tree whatever the data, and
// durable_write's page counts move by a fraction of a percent between
// identical runs, because index maintenance ranges over Go maps and
// UpdateBatch fans out over workers; its log traffic repeats exactly.
func TestCountedPassRepeats(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			counted := func(seed int64) counters {
				p := smokeParams(t, seed)
				in, err := w.setup(p)
				if err != nil {
					t.Fatal(err)
				}
				defer in.close() //nolint:errcheck // a counting run, closed for its files only
				before := readCounters(in.engines())
				var tl tally
				in.pass(p.passOps, nil, &tl)
				if tl.failed != 0 {
					t.Fatalf("%d ops failed", tl.failed)
				}
				c := readCounters(in.engines()).sub(before)
				c.mallocs = 0 // the runtime's, not the program's
				return c
			}
			a, b, c := counted(1), counted(1), counted(2)
			if w.name == "durable_write" {
				if a.walBytes != b.walBytes || a.fsyncs != b.fsyncs || a.walBytes == 0 {
					t.Errorf("same seed, different log traffic: %d B in %d fsyncs, then %d B in %d", a.walBytes, a.fsyncs, b.walBytes, b.fsyncs)
				}
				if d := math.Abs(float64(a.pages())-float64(b.pages())) / float64(a.pages()); d > 0.02 {
					t.Errorf("same seed, page counts %d and %d differ by %.1f%%, want under 2%%", a.pages(), b.pages(), 100*d)
				}
			} else if a != b {
				t.Errorf("same seed, different counts:\n%+v\n%+v", a, b)
			}
			if a == c && w.name != "net_point" {
				t.Errorf("seeds 1 and 2 count the same: %+v", a)
			}
			if a.pages() == 0 {
				t.Errorf("the counted pass touched no page")
			}
		})
	}
}
