package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// The harness is the one place that knows how a cell of a timed
// experiment (E2–E9) is measured and reported. An experiment file
// declares arms — labels, worker count, iterations and how to stand the
// system under test up — and the ratios it headlines; everything
// between the first operation and the JSON line is here.
//
// A cell is one warm-up pass of a quarter of its iterations followed by
// three measured passes over the same system. Every reported metric is
// the median of the three passes; ops/sec also carries their minimum
// and maximum, so two cells (or two commits) whose ranges overlap are
// not told apart by a single lucky run. Both are constants, not
// options: lines of the history are comparable because nobody can
// change how they were taken.
const (
	repetitions   = 3
	warmupDivisor = 4
)

// Label is one identifying dimension of a cell (config, arm, mix,
// workers, shards, conns, read %). Labels are ordered: they are the
// leading columns of the rendered table.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Metric is one named per-cell extra (fsyncs, WAL bytes, descents,
// pruned, batches, coalesced, drift).
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Ratio is one headline number of a report. Min and Max are set on a
// quotient of two cells' ops/sec: the extremes the passes of each cell
// allow (numerator min over denominator max, and the reverse).
type Ratio struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// Cell is one measured point: medians over the measured passes.
type Cell struct {
	Labels       []Label `json:"labels"`
	Ops          int     `json:"ops"`
	Elapsed      float64 `json:"elapsed_sec"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	OpsPerSecMin float64 `json:"ops_per_sec_min"`
	OpsPerSecMax float64 `json:"ops_per_sec_max"`
	// P50/P99 are over what each logical operation's caller waited: an
	// operation that rode a batch is charged the batch's wall time.
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
	// PagesPerOp is index plus store page accesses per operation; zero
	// when the arm exposes no page counter (the socket arms).
	PagesPerOp float64  `json:"pages_per_op"`
	Extras     []Metric `json:"extras,omitempty"`
}

// Label returns the value of the named label, or "".
func (c *Cell) Label(name string) string {
	for _, l := range c.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Extra returns the value of the named extra, or 0.
func (c *Cell) Extra(name string) float64 {
	for _, m := range c.Extras {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// Report is one run of one timed experiment: the unit of rendering and
// of the appended history (one JSON line per run).
type Report struct {
	ID    string `json:"id"`
	Name  string `json:"experiment"`
	Title string `json:"title"`
	// Workload describes the operation mix and fixed parameters, when the
	// labels do not already say it.
	Workload    string   `json:"workload,omitempty"`
	Host        HostInfo `json:"host"`
	Commit      string   `json:"commit"`
	Seed        int64    `json:"seed"`
	Ops         int      `json:"ops"`
	Repetitions int      `json:"repetitions"`
	Cells       []Cell   `json:"cells"`
	Ratios      []Ratio  `json:"ratios,omitempty"`
}

// labels builds a label list from alternating names and values.
func labels(kv ...any) []Label {
	ls := make([]Label, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		ls = append(ls, Label{fmt.Sprint(kv[i]), fmt.Sprint(kv[i+1])})
	}
	return ls
}

// Cell returns the first cell carrying every given label (alternating
// names and values), or nil.
func (r *Report) Cell(kv ...any) *Cell {
	want := labels(kv...)
	i := slices.IndexFunc(r.Cells, func(c Cell) bool {
		return !slices.ContainsFunc(want, func(l Label) bool { return c.Label(l.Name) != l.Value })
	})
	if i < 0 {
		return nil
	}
	return &r.Cells[i]
}

// AddRatio headlines num's ops/sec over den's.
func (r *Report) AddRatio(name string, num, den *Cell) {
	r.Ratios = append(r.Ratios, Ratio{Name: name,
		Value: num.OpsPerSec / den.OpsPerSec,
		Min:   num.OpsPerSecMin / den.OpsPerSecMax,
		Max:   num.OpsPerSecMax / den.OpsPerSecMin})
}

// AddRelative appends to every cell the extra name: the cell's ops/sec
// over that of the cell baseOf picks for it (a scaling or a
// versus-baseline column).
func (r *Report) AddRelative(name string, baseOf func(c *Cell) *Cell) {
	for i := range r.Cells {
		c := &r.Cells[i]
		c.Extras = append(c.Extras, Metric{Name: name, Value: c.OpsPerSec / baseOf(c).OpsPerSec})
	}
}

// Recorder collects one worker's per-operation latencies for one pass.
// It is handed to the operation rather than wrapped around it so a
// pipelined connection can record a request when its response settles,
// long after the iteration that sent it returned.
type Recorder struct{ lat []time.Duration }

// Done records n logical operations that completed together, each
// having waited since t0.
func (r *Recorder) Done(t0 time.Time, n int) {
	d := time.Since(t0)
	for ; n > 0; n-- {
		r.lat = append(r.lat, d)
	}
}

// Driver is one worker's side of one pass.
type Driver struct {
	// Op runs the worker's i-th iteration and records what completed. i
	// keeps counting across the warm-up and the measured passes, so an
	// update-in-place mix never rewrites a value with itself.
	Op func(i int, rec *Recorder) error
	// Finish, if set, runs inside the clock after the last iteration: it
	// settles whatever the worker still has in flight.
	Finish func(rec *Recorder) error
}

// each is the Start of a system whose workers need no per-pass set-up
// and whose every iteration is one operation, timed and recorded as one.
func each(op func(w, i int) error) func(int) (Driver, error) {
	return func(w int) (Driver, error) {
		return Driver{Op: func(i int, rec *Recorder) error {
			t0 := time.Now()
			err := op(w, i)
			rec.Done(t0, 1)
			return err
		}}, nil
	}
}

// System is an arm's system under test, opened once per cell. Only
// Start is required.
type System struct {
	// Start prepares worker w for one pass, outside the clock (dial a
	// connection, reopen a store cold, refill a log to be recovered).
	Start func(w int) (Driver, error)
	// Pages is the cumulative page-access counter (index plus store); a
	// pass's delta over its operations is pages/op.
	Pages func() uint64
	// Counters are cumulative counts, reported as per-pass deltas.
	Counters func() []Metric
	// Gauges are read once after each pass and reported as they are.
	Gauges func() []Metric
	// Close releases the system after the cell's last pass.
	Close func() error
}

// Arm declares one cell.
type Arm struct {
	Labels  []Label
	Workers int // concurrent workers; 0 means 1
	Ops     int // iterations per worker per measured pass (at least 1 is run)
	Open    func() (System, error)
}

// Measure measures each arm in order — open its system, run the
// warm-up and the measured passes — appending the cells of medians.
func (r *Report) Measure(arms ...Arm) error {
	for _, arm := range arms {
		cell, err := measure(arm)
		if err != nil {
			return fmt.Errorf("experiments: %s %v: %w", r.ID, arm.Labels, err)
		}
		r.Cells = append(r.Cells, cell)
	}
	return nil
}

func measure(arm Arm) (cell Cell, err error) {
	sys, err := arm.Open()
	if err != nil {
		return cell, err
	}
	if sys.Close != nil {
		defer func() {
			if cerr := sys.Close(); err == nil {
				err = cerr
			}
		}()
	}
	workers, ops := max(arm.Workers, 1), max(arm.Ops, 1)
	base := 0
	if warm := ops / warmupDivisor; warm > 0 {
		if _, err := runPass(sys, workers, base, warm); err != nil {
			return cell, err
		}
		base += warm
	}
	passes := make([]Cell, repetitions)
	for p := range passes {
		if passes[p], err = runPass(sys, workers, base, ops); err != nil {
			return cell, err
		}
		base += ops
	}
	cell = medianCell(passes)
	cell.Labels = arm.Labels
	return cell, nil
}

// runPass drives iterations [base, base+n) from every worker and folds
// what they recorded into one pass's cell.
func runPass(sys System, workers, base, n int) (Cell, error) {
	drivers := make([]Driver, workers)
	recs := make([]Recorder, workers)
	for w := range drivers {
		d, err := sys.Start(w)
		if err != nil {
			return Cell{}, err
		}
		drivers[w] = d
		recs[w].lat = make([]time.Duration, 0, n) // no growth inside the clock for one-op iterations
	}
	var pages0 uint64
	if sys.Pages != nil {
		pages0 = sys.Pages()
	}
	var counters0 []Metric
	if sys.Counters != nil {
		counters0 = sys.Counters()
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, rec := drivers[w], &recs[w]
			for i := base; i < base+n && errs[w] == nil; i++ {
				errs[w] = d.Op(i, rec)
			}
			if d.Finish != nil {
				if err := d.Finish(rec); errs[w] == nil {
					errs[w] = err
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for w, err := range errs {
		if err != nil {
			return Cell{}, fmt.Errorf("worker %d: %w", w, err)
		}
	}
	var all []time.Duration
	for _, rec := range recs {
		all = append(all, rec.lat...)
	}
	if len(all) == 0 {
		return Cell{}, fmt.Errorf("pass of %d iterations x %d workers recorded no operation", n, workers)
	}
	slices.Sort(all)
	c := Cell{
		Ops:       len(all),
		Elapsed:   elapsed,
		OpsPerSec: float64(len(all)) / elapsed,
		P50Micros: Percentile(all, 50),
		P99Micros: Percentile(all, 99),
	}
	if sys.Pages != nil {
		c.PagesPerOp = float64(sys.Pages()-pages0) / float64(len(all))
	}
	if sys.Counters != nil {
		for i, m := range sys.Counters() {
			c.Extras = append(c.Extras, Metric{Name: m.Name, Value: m.Value - counters0[i].Value})
		}
	}
	if sys.Gauges != nil {
		c.Extras = append(c.Extras, sys.Gauges()...)
	}
	return c, nil
}

// Percentile returns the p-th percentile (0 < p <= 100) of an ascending
// latency slice by nearest rank, in microseconds with the sub-microsecond
// part kept; 0 for an empty slice.
func Percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := max(int(math.Ceil(p*float64(len(sorted))/100)), 1)
	return float64(sorted[rank-1]) / float64(time.Microsecond)
}

// medianCell reduces the measured passes to one cell: every metric its
// own median, ops/sec also its range.
func medianCell(passes []Cell) Cell {
	med := func(get func(*Cell) float64) float64 {
		vs := make([]float64, len(passes))
		for i := range passes {
			vs[i] = get(&passes[i])
		}
		slices.Sort(vs)
		return vs[len(vs)/2]
	}
	c := Cell{
		Ops:          int(med(func(c *Cell) float64 { return float64(c.Ops) })),
		Elapsed:      med(func(c *Cell) float64 { return c.Elapsed }),
		OpsPerSec:    med(func(c *Cell) float64 { return c.OpsPerSec }),
		OpsPerSecMin: math.Inf(1),
		P50Micros:    med(func(c *Cell) float64 { return c.P50Micros }),
		P99Micros:    med(func(c *Cell) float64 { return c.P99Micros }),
		PagesPerOp:   med(func(c *Cell) float64 { return c.PagesPerOp }),
	}
	for i := range passes {
		c.OpsPerSecMin = min(c.OpsPerSecMin, passes[i].OpsPerSec)
		c.OpsPerSecMax = max(c.OpsPerSecMax, passes[i].OpsPerSec)
	}
	for k, m := range passes[0].Extras {
		c.Extras = append(c.Extras, Metric{Name: m.Name,
			Value: med(func(c *Cell) float64 { return c.Extras[k].Value })})
	}
	return c
}

// Render returns the report as text: one table per run of consecutive
// cells with the same label names, one row per cell (an extra a cell
// does not carry prints "-"), then the headline ratios.
func (r Report) Render() string {
	var b strings.Builder
	if r.Workload != "" {
		fmt.Fprintf(&b, "workload: %s\n", r.Workload)
	}
	fmt.Fprintf(&b, "seed %d, -ops %d, each cell the median of %d passes after a 1/%d warm-up; commit %s\n",
		r.Seed, r.Ops, r.Repetitions, warmupDivisor, r.Commit)
	sameNames := func(a, b Label) bool { return a.Name == b.Name }
	num := func(v float64) string { // counts as integers, the rest to four digits
		if v == math.Trunc(v) {
			return fmt.Sprintf("%.0f", v)
		}
		return fmt.Sprintf("%.4g", v)
	}
	for rest := r.Cells; len(rest) > 0; {
		n := 1
		for n < len(rest) && slices.EqualFunc(rest[n].Labels, rest[0].Labels, sameNames) {
			n++
		}
		group := rest[:n]
		rest = rest[n:]
		var header, extras []string
		for _, l := range group[0].Labels {
			header = append(header, l.Name)
		}
		header = append(header, "ops", "ops/sec", "min–max", "p50 µs", "p99 µs", "pages/op")
		for _, c := range group {
			for _, m := range c.Extras {
				if !slices.Contains(extras, m.Name) {
					extras = append(extras, m.Name)
				}
			}
		}
		t := NewTable("", append(header, extras...)...)
		for _, c := range group {
			var row []any
			for _, l := range c.Labels {
				row = append(row, l.Value)
			}
			pages := "-" // the arm exposes no page counter
			if c.PagesPerOp > 0 {
				pages = fmt.Sprintf("%.2f", c.PagesPerOp)
			}
			row = append(row, c.Ops, fmt.Sprintf("%.0f", c.OpsPerSec),
				fmt.Sprintf("%.0f–%.0f", c.OpsPerSecMin, c.OpsPerSecMax),
				fmt.Sprintf("%.1f", c.P50Micros), fmt.Sprintf("%.1f", c.P99Micros), pages)
			for _, name := range extras {
				if i := slices.IndexFunc(c.Extras, func(m Metric) bool { return m.Name == name }); i < 0 {
					row = append(row, "-")
				} else {
					row = append(row, num(c.Extras[i].Value))
				}
			}
			t.AddRow(row...)
		}
		b.WriteString("\n" + t.Render())
	}
	if len(r.Ratios) > 0 {
		b.WriteByte('\n')
	}
	for _, q := range r.Ratios {
		fmt.Fprintf(&b, "%-50s %8.3f", q.Name, q.Value)
		if q.Max > 0 {
			fmt.Fprintf(&b, "  (%.3f–%.3f)", q.Min, q.Max)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// AppendTo appends the report to the history file at path as one JSON
// line, creating the file if need be. The history is never rewritten:
// a second run of the same experiment is a second line.
func (r Report) AppendTo(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Renderer is what every experiment returns: a report that can print
// itself. The timed experiments return a Report; the paper
// reproductions keep their typed reports.
type Renderer interface{ Render() string }

// Params are the knobs an experiment run takes. Ops is per-experiment
// in meaning (operations per worker, per connection or per arm) and 0
// means the experiment's DefaultOps; MaxN and Trials size the
// complexity and path-length reproductions only.
type Params struct {
	Seed   int64
	Ops    int
	MaxN   int
	Trials int
}

// Experiment is one registry entry: a paper reproduction (repro set)
// or a timed experiment (timed set).
type Experiment struct {
	Name  string // the -run mode
	ID    string // the DESIGN.md experiment index key
	Title string
	// DefaultOps is a timed experiment's default operation count; 0 for
	// a paper reproduction, which is untimed and leaves no history line.
	DefaultOps int
	repro      func(Params) (Renderer, error)
	// timed fills in the cells and ratios of a report the registry has
	// already stamped with identity, host, commit, seed and ops.
	timed func(*Report) error
}

// Run runs the experiment; a timed one returns a Report.
func (e Experiment) Run(p Params) (Renderer, error) {
	if e.timed == nil {
		return e.repro(p)
	}
	if p.Ops <= 0 {
		p.Ops = e.DefaultOps
	}
	rep := Report{ID: e.ID, Name: e.Name, Title: e.Title, Host: CollectHost(), Commit: Commit(),
		Seed: p.Seed, Ops: p.Ops, Repetitions: repetitions}
	err := e.timed(&rep)
	return rep, err
}

func lift[T Renderer](rep T, err error) (Renderer, error) { return rep, err }

// Registry lists every experiment in display order: the paper
// reproductions, then the timed E-series.
var Registry = []Experiment{
	{Name: "fig6", ID: "F6", Title: "Figure 6 walkthrough",
		repro: func(Params) (Renderer, error) { return RunFig6(), nil }},
	{Name: "fig8", ID: "F7/F8", Title: "Example 5.1 (Figures 7 and 8)",
		repro: func(Params) (Renderer, error) { return lift(RunFig8()) }},
	{Name: "complexity", ID: "C1", Title: "Section 5 complexity claims",
		repro: func(p Params) (Renderer, error) { return RunComplexity(p.MaxN, p.Trials, p.Seed), nil }},
	{Name: "validate", ID: "V1", Title: "cost model vs working indexes",
		repro: func(p Params) (Renderer, error) { return lift(RunValidation(p.Seed)) }},
	{Name: "workload", ID: "W1", Title: "workload-mix sweep",
		repro: func(Params) (Renderer, error) { return lift(RunWorkloadSweep([]float64{0, 0.25, 0.5, 0.75, 1})) }},
	{Name: "sweep", ID: "S1", Title: "path-length sweep",
		repro: func(p Params) (Renderer, error) { return lift(RunShapeSweep(p.MaxN)) }},
	{Name: "extended", ID: "X1", Title: "extended organizations (PX/NX/NONE, Section 6)",
		repro: func(Params) (Renderer, error) { return lift(RunExtended()) }},
	{Name: "selectivity", ID: "R1", Title: "range-predicate selectivity sweep",
		repro: func(Params) (Renderer, error) {
			return lift(RunSelectivitySweep([]float64{0, 0.001, 0.01, 0.05, 0.2}))
		}},
	{Name: "buffer", ID: "B1", Title: "buffer-pool ablation",
		repro: func(Params) (Renderer, error) { return lift(RunBufferAblation(2000, 5000, []int{0, 4, 16, 64})) }},
	{Name: "reconfig", ID: "E1", Title: "online reconfiguration under workload drift",
		repro: func(p Params) (Renderer, error) { return lift(RunReconfigure(p.Seed)) }},
	{Name: "serve", ID: "E2", Title: "serving throughput under concurrency", DefaultOps: 2000, timed: runServe},
	{Name: "maintain", ID: "E3", Title: "update maintenance cost at mixed read/write ratios", DefaultOps: 4000, timed: runMaintain},
	{Name: "shard", ID: "E4", Title: "sharded serving throughput", DefaultOps: 4000, timed: runShard},
	{Name: "durable", ID: "E5", Title: "durability cost (fsync policies, recovery, cold cache)", DefaultOps: 3000, timed: runDurable},
	{Name: "plan", ID: "E6", Title: "conjunctive planner: ordering and shard pruning", DefaultOps: 2000, timed: runPlan},
	{Name: "net", ID: "E7", Title: "networked serving: pipelining and request coalescing", DefaultOps: 2000, timed: runNet},
	{Name: "netplan", ID: "E8", Title: "predicate dispatch over the wire", DefaultOps: 1000, timed: runNetPlan},
	{Name: "feedback", ID: "E9", Title: "workload-fed vs static selection", DefaultOps: 2000, timed: runFeedback},
}
