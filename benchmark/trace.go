package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. The harness records spans from
// outside the program: it times the request end to end, then replays the
// request through the layers' exported functions in call order and nests
// the replays under the call that contains them. Spans inside the program
// are a later issue.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the request's root span
	Req    int    `json:"req"`
	Name   string `json:"name"` // "<layer>.<call>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls"` // calls the span aggregates (one per key of a hop)
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	// netRoot marks traces whose root span is the client's round trip:
	// the root's self time is then what the replays cannot explain.
	netRoot bool
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// root records the request's outermost span, which started at t0.
func (tr *tracer) root(req int, name string, t0 time.Time, d time.Duration, calls int) int {
	start := int64(t0.Sub(tr.epoch))
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Req: req, Name: name, Start: start, End: start + int64(d), Calls: calls})
	return len(tr.spans)
}

// child records a replayed call of duration d under parent. Children are
// laid end to end from the parent's start, in call order.
func (tr *tracer) child(parent int, name string, d time.Duration, calls int) int {
	p := &tr.spans[parent-1]
	start := p.Start
	for i := parent; i < len(tr.spans); i++ {
		if tr.spans[i].Parent == parent {
			start = tr.spans[i].End
		}
	}
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Req: p.Req, Name: name, Start: start, End: start + int64(d), Calls: calls})
	return len(tr.spans)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval its children cover. The timed call is the truth and its
// replays are estimates: replays that together run longer than the call
// that contains them are scaled to fit it, and their own children with
// them, so the self times under a root always sum to the root's duration.
// Spans must list a parent before its children, as the tracer does.
func selfTimes(spans []span) []int64 {
	kids := make([]float64, len(spans)) // children's raw durations, summed
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent-1] += float64(s.End - s.Start)
		}
	}
	eff := make([]float64, len(spans)) // duration after scaling
	self := make([]int64, len(spans))
	for i, s := range spans {
		d := float64(s.End - s.Start)
		eff[i] = d
		if s.Parent != 0 {
			p := s.Parent - 1
			eff[i] = d * eff[p] / max(kids[p], float64(spans[p].End-spans[p].Start))
		}
	}
	for i, s := range spans {
		covered := 0.0
		if d := float64(s.End - s.Start); d > 0 {
			covered = min(kids[i]*eff[i]/d, eff[i])
		}
		self[i] = int64(eff[i] - covered)
	}
	return self
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// meanNS is the mean duration per call of the spans called name, in
// nanoseconds; 0 when the trace holds none.
func (tr *tracer) meanNS(name string) float64 {
	var total int64
	var calls int
	for _, s := range tr.spans {
		if s.Name == name {
			total += s.End - s.Start
			calls += s.Calls
		}
	}
	if calls == 0 {
		return 0
	}
	return float64(total) / float64(calls)
}

// meanInto sets, for every span name, the per-call metric the
// specification declares for it: "<name>_ns", "<name>_us" or "<name>_s".
func (tr *tracer) meanInto(m *metricSet) {
	seen := map[string]bool{}
	for _, s := range tr.spans {
		if seen[s.Name] {
			continue
		}
		seen[s.Name] = true
		ns := tr.meanNS(s.Name)
		for _, u := range []struct {
			suffix string
			div    float64
		}{{"_ns", 1}, {"_us", 1e3}, {"_s", 1e9}} {
			if m.declared(s.Name + u.suffix) {
				m.set(s.Name+u.suffix, ns/u.div)
			}
		}
	}
}

// reconciliation is one workload's row: the request's mean latency split
// into the self time of each layer plus what no replay explains.
type reconciliation struct {
	Requests      int                `json:"requests"`
	TotalUS       float64            `json:"total_us"`
	LayerSelfUS   map[string]float64 `json:"layer_self_us"`
	UnexplainedUS float64            `json:"unexplained_us"`
}

// reconcile sums self times per layer over the whole trace and divides by
// the request count. For a network trace the root's self time is the
// unexplained part (sockets, goroutine hand-off, queue wait); for an
// embedded trace the root is the engine call itself and unexplained is
// what is left when replays overrun the call that contains them.
func (tr *tracer) reconcile() reconciliation {
	rec := reconciliation{LayerSelfUS: map[string]float64{}}
	self := selfTimes(tr.spans)
	var total int64
	for i, s := range tr.spans {
		if s.Parent == 0 {
			rec.Requests++
			total += s.End - s.Start
			if tr.netRoot {
				continue
			}
		}
		rec.LayerSelfUS[layerOf(s.Name)] += float64(self[i])
	}
	if rec.Requests == 0 {
		return rec
	}
	n := float64(rec.Requests) * 1e3
	rec.TotalUS = float64(total) / n
	var sum float64
	for l := range rec.LayerSelfUS {
		rec.LayerSelfUS[l] /= n
		sum += rec.LayerSelfUS[l]
	}
	rec.UnexplainedUS = rec.TotalUS - sum
	return rec
}

func (r reconciliation) String() string {
	layers := make([]string, 0, len(r.LayerSelfUS))
	for l := range r.LayerSelfUS {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var b strings.Builder
	fmt.Fprintf(&b, "per-request %.3f us =", r.TotalUS)
	for _, l := range layers {
		fmt.Fprintf(&b, " %s %.3f +", l, r.LayerSelfUS[l])
	}
	fmt.Fprintf(&b, " unexplained %.3f (%d requests)", r.UnexplainedUS, r.Requests)
	return b.String()
}

// write stores the spans as one JSON document.
func (tr *tracer) write(path string) error {
	raw, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
