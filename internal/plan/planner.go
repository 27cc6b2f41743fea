package plan

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Source answers indexed single-path probes: any executor that returns
// sorted duplicate-free OID runs for equality and range predicates along
// one registered path. engine.Engine and shard.DB both satisfy it.
type Source interface {
	Query(value oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error)
	QueryRange(lo, hi oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error)
}

// PredicateSink is implemented by sources that want the planner's
// per-leaf traffic forwarded into their own workload accounting
// (engine.Engine and shard.DB do); registration detects it by type
// assertion.
type PredicateSink interface {
	RecordPredicate(path string, kind stats.PredKind)
}

// ewma smoothing for observed leaf result sizes: new estimates move 1/4
// of the way toward each observation, so a handful of probes settles the
// estimate while one outlier cannot capsize the ordering.
const ewmaAlpha = 0.25

// sourceEntry is one registered path: its probe source, optional model
// statistics for cold estimates, and live observed result sizes per
// operator (atomic float bits; zero means no observation yet — a real
// observed zero is stored as a denormal-adjacent epsilon).
type sourceEntry struct {
	path *schema.Path
	key  string
	src  Source
	sink PredicateSink
	ps   *model.PathStats
	obs  [2]atomic.Uint64 // indexed by leaf Kind - wire.PredEq
}

func (e *sourceEntry) observe(kind byte, n int) {
	obs := &e.obs[kind-wire.PredEq]
	v := float64(n)
	if v == 0 {
		v = 0.5 // distinguish "observed empty" from "never observed"
	}
	for {
		oldBits := obs.Load()
		old := math.Float64frombits(oldBits)
		next := v
		if oldBits != 0 {
			next = old + ewmaAlpha*(v-old)
		}
		if obs.CompareAndSwap(oldBits, math.Float64bits(next)) {
			return
		}
	}
}

// estimate returns the expected result cardinality of one probe through
// this entry: the live EWMA when the operator has been seen, a
// PathStats-derived figure otherwise (N_target/D_ending for equality,
// N_target/10 for ranges), and +Inf with no information at all — an
// unknown probe is ordered last, never first.
func (e *sourceEntry) estimate(kind byte, targetLevel int) float64 {
	if bits := e.obs[kind-wire.PredEq].Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	if e.ps == nil {
		return math.Inf(1)
	}
	n := e.ps.Level(targetLevel).NTotal()
	if kind == wire.PredEq {
		d := e.ps.Level(e.ps.Len()).DMax()
		if d < 1 {
			d = 1
		}
		return n / d
	}
	return n * 0.1
}

// Planner registers path sources and compiles predicates into
// cost-ordered physical plans over them. The registration table is
// guarded by an RWMutex (registration is rare, planning is concurrent);
// per-path observed cardinalities are atomic, so concurrent Executes
// never serialize on the planner.
type Planner struct {
	store *oodb.Store
	preds *stats.PredRecorder

	mu      sync.RWMutex
	sources map[string]*sourceEntry
}

// NewPlanner returns a planner over the store. The store serves residual
// post-filters and value projection; sources supply indexed probes.
func NewPlanner(st *oodb.Store) *Planner {
	return &Planner{
		store:   st,
		preds:   stats.NewPredRecorder(),
		sources: make(map[string]*sourceEntry),
	}
}

// Register adds (or replaces) the probe source for a path. ps, when
// non-nil, seeds cold cardinality estimates until live observations take
// over; pass the statistics the source's configuration was selected
// from. Sources implementing PredicateSink additionally receive the
// planner's per-leaf traffic for the path.
func (pl *Planner) Register(p *schema.Path, src Source, ps *model.PathStats) error {
	if p == nil {
		return fmt.Errorf("plan: register with nil path")
	}
	if src == nil {
		return fmt.Errorf("plan: register %s with nil source", p)
	}
	e := &sourceEntry{path: p, key: p.String(), src: src, ps: ps}
	e.sink, _ = src.(PredicateSink)
	pl.mu.Lock()
	pl.sources[e.key] = e
	pl.mu.Unlock()
	return nil
}

// Predicates snapshots the per-path predicate mix the planner has
// evaluated: every leaf of every executed plan, classified as indexed
// equality, indexed range, or residual store navigation. A probe leaf is
// also forwarded to its source when the source is a PredicateSink, and
// that source's workload snapshot already holds it; only residual leaves
// and probes through sources that are not sinks live here alone. Merging
// this mix with a sink's snapshot would count every forwarded leaf twice.
func (pl *Planner) Predicates() []stats.PredLoad { return pl.preds.Snapshot() }

// Plan is a compiled physical plan: an ordered probe/filter tree bound
// to the planner's sources. Compile once with Planner.Plan, execute any
// number of times; each execution re-reads the sources, so results track
// live data.
type Plan struct {
	pl        *Planner
	target    string
	hierarchy bool
	root      pnode
}

// pnode is a physical plan node.
type pnode interface {
	est() float64
	explain(b *strings.Builder, depth int)
}

// probeNode answers one leaf through an index source.
type probeNode struct {
	leaf  *Predicate
	entry *sourceEntry
	card  float64
}

func (n *probeNode) est() float64 { return n.card }

// scanNode answers one leaf by naive store navigation — a leaf with no
// registered source that could not be attached to indexed siblings as a
// post-filter (e.g. a lone disjunct).
type scanNode struct {
	leaf *Predicate
}

func (n *scanNode) est() float64 { return math.Inf(1) }

// filterStep is one residual conjunct: verified per candidate by forward
// navigation from the target level of its own path.
type filterStep struct {
	leaf  *Predicate
	level int
}

// andPlan intersects its probes cheapest-first, then post-filters the
// survivors through the residual steps.
type andPlan struct {
	probes    []pnode
	residuals []filterStep
	card      float64
}

func (n *andPlan) est() float64 { return n.card }

// orPlan unions its branches through the k-way merge.
type orPlan struct {
	kids []pnode
	card float64
}

func (n *orPlan) est() float64 { return n.card }

// Plan compiles pred into a physical plan answering "which objects of
// targetClass (optionally including subclasses) satisfy pred". Every
// leaf's path must contain targetClass in its scope; conjuncts over
// unregistered paths become residual post-filters, a fully unindexed
// conjunction or lone disjunct falls back to a store scan.
func (pl *Planner) Plan(pred Predicate, targetClass string, hierarchy bool) (*Plan, error) {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	root, err := pl.compile(&pred, targetClass)
	if err != nil {
		return nil, err
	}
	return &Plan{pl: pl, target: targetClass, hierarchy: hierarchy, root: root}, nil
}

// compile lowers one tree node; the plan points into the tree. Called
// with pl.mu read-held.
func (pl *Planner) compile(n *Predicate, target string) (pnode, error) {
	switch n.Kind {
	case wire.PredEq, wire.PredRange:
		if err := validateLeaf(n); err != nil {
			return nil, err
		}
		level, err := exec.PathLevel(n.Path, target)
		if err != nil {
			return nil, err
		}
		if e, ok := pl.sources[n.Path.String()]; ok {
			return &probeNode{leaf: n, entry: e, card: e.estimate(n.Kind, level)}, nil
		}
		if pl.store == nil {
			return nil, fmt.Errorf("plan: no source for %s and no store for naive fallback", n.Path)
		}
		return &scanNode{leaf: n}, nil
	case wire.PredAnd:
		if len(n.Kids) == 0 {
			return nil, fmt.Errorf("plan: empty conjunction")
		}
		ap := &andPlan{}
		for i := range n.Kids {
			kid, err := pl.compile(&n.Kids[i], target)
			if err != nil {
				return nil, err
			}
			if sn, ok := kid.(*scanNode); ok {
				// An unindexed conjunct never scans: it rides the indexed
				// siblings as a per-candidate post-filter.
				level, err := exec.PathLevel(sn.leaf.Path, target)
				if err != nil {
					return nil, err
				}
				ap.residuals = append(ap.residuals, filterStep{leaf: sn.leaf, level: level})
				continue
			}
			ap.probes = append(ap.probes, kid)
		}
		if len(ap.probes) == 0 {
			// Fully unindexed conjunction: the cheapest residual is
			// promoted to a driving scan, the rest stay post-filters.
			ap.probes = append(ap.probes, &scanNode{leaf: ap.residuals[0].leaf})
			ap.residuals = ap.residuals[1:]
		}
		sort.SliceStable(ap.probes, func(i, j int) bool {
			return ap.probes[i].est() < ap.probes[j].est()
		})
		ap.card = math.Inf(1)
		for _, p := range ap.probes {
			ap.card = math.Min(ap.card, p.est())
		}
		return ap, nil
	case wire.PredOr:
		if len(n.Kids) == 0 {
			return nil, fmt.Errorf("plan: empty disjunction")
		}
		op := &orPlan{}
		for i := range n.Kids {
			kid, err := pl.compile(&n.Kids[i], target)
			if err != nil {
				return nil, err
			}
			if sn, ok := kid.(*scanNode); ok && pl.store == nil {
				return nil, fmt.Errorf("plan: no source for %s under disjunction", sn.leaf.Path)
			}
			op.kids = append(op.kids, kid)
			op.card += kid.est()
		}
		return op, nil
	}
	return nil, fmt.Errorf("plan: unknown predicate kind %d", n.Kind)
}

// Execute runs the plan and returns the matching OIDs, sorted and
// duplicate-free — bit-identical to NaiveEval of the same predicate.
func (p *Plan) Execute() ([]oodb.OID, error) {
	return p.pl.eval(p.root, p.target, p.hierarchy)
}

func (pl *Planner) eval(n pnode, target string, hierarchy bool) ([]oodb.OID, error) {
	switch n := n.(type) {
	case *probeNode:
		return pl.evalProbe(n, target, hierarchy)
	case *scanNode:
		return pl.evalScan(n.leaf, target, hierarchy)
	case *andPlan:
		return pl.evalAnd(n, target, hierarchy)
	case *orPlan:
		runs := make([][]oodb.OID, len(n.kids))
		total := 0
		for i, k := range n.kids {
			r, err := pl.eval(k, target, hierarchy)
			if err != nil {
				return nil, err
			}
			runs[i] = r
			total += len(r)
		}
		return exec.MergeKSortedOIDs(make([]oodb.OID, 0, total), runs...), nil
	}
	return nil, fmt.Errorf("plan: unknown plan node %T", n)
}

func (pl *Planner) evalProbe(n *probeNode, target string, hierarchy bool) ([]oodb.OID, error) {
	var (
		res []oodb.OID
		err error
	)
	if n.leaf.Kind == wire.PredEq {
		res, err = n.entry.src.Query(n.leaf.Value, target, hierarchy)
		pl.record(n.entry, n.entry.key, stats.PredEq)
	} else {
		res, err = n.entry.src.QueryRange(n.leaf.Lo, n.leaf.Hi, target, hierarchy)
		pl.record(n.entry, n.entry.key, stats.PredRange)
	}
	if err != nil {
		return nil, err
	}
	n.entry.observe(n.leaf.Kind, len(res))
	return res, nil
}

func (pl *Planner) evalScan(l *Predicate, target string, hierarchy bool) ([]oodb.OID, error) {
	pl.record(nil, l.Path.String(), stats.PredResidual)
	if l.Kind == wire.PredEq {
		return exec.NaiveQuery(pl.store, l.Path, l.Value, target, hierarchy)
	}
	return exec.NaiveQueryRange(pl.store, l.Path, l.Lo, l.Hi, target, hierarchy)
}

func (pl *Planner) evalAnd(n *andPlan, target string, hierarchy bool) ([]oodb.OID, error) {
	cur, err := pl.eval(n.probes[0], target, hierarchy)
	if err != nil {
		return nil, err
	}
	for _, p := range n.probes[1:] {
		if len(cur) == 0 {
			// Empty intermediate: the conjunction is decided, skip the
			// remaining probes entirely.
			return cur, nil
		}
		r, err := pl.eval(p, target, hierarchy)
		if err != nil {
			return nil, err
		}
		cur = exec.IntersectSortedOIDs(cur[:0], cur, r)
	}
	if len(n.residuals) == 0 || len(cur) == 0 {
		return cur, nil
	}
	for _, rs := range n.residuals {
		pl.record(nil, rs.leaf.Path.String(), stats.PredResidual)
	}
	// Post-filter: verify each surviving candidate by forward navigation
	// along every residual path. Store pages are paid only for the
	// candidates the indexed probes left alive.
	out := cur[:0]
	for _, oid := range cur {
		obj, err := pl.store.Get(oid)
		if err != nil {
			return nil, err
		}
		keep := true
		for _, rs := range n.residuals {
			ok, err := exec.Reaches(pl.store, rs.leaf.Path, obj, rs.level, valueTest(rs.leaf))
			if err != nil {
				return nil, err
			}
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, oid)
		}
	}
	return out, nil
}

// record counts one leaf evaluation in the planner's recorder and, for
// probes, forwards it to the source's own accounting.
func (pl *Planner) record(e *sourceEntry, path string, kind stats.PredKind) {
	pl.preds.Record(path, kind)
	if e != nil && e.sink != nil {
		e.sink.RecordPredicate(path, kind)
	}
}

// ExecuteValues runs the plan and projects the given attribute of each
// matching object, in OID order (multi-valued attributes contribute all
// their values). Requires the planner's store.
func (p *Plan) ExecuteValues(attr string) ([]oodb.Value, error) {
	if p.pl.store == nil {
		return nil, fmt.Errorf("plan: value projection requires a store")
	}
	oids, err := p.Execute()
	if err != nil {
		return nil, err
	}
	var out []oodb.Value
	for _, oid := range oids {
		obj, err := p.pl.store.Get(oid)
		if err != nil {
			return nil, err
		}
		out = append(out, obj.Values(attr)...)
	}
	return out, nil
}

// Explain renders the physical plan: probe order, estimated
// cardinalities, and which conjuncts became residual post-filters.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan for %q (hierarchy=%v)\n", p.target, p.hierarchy)
	p.root.explain(&b, 1)
	return b.String()
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func estStr(v float64) string {
	if math.IsInf(v, 1) {
		return "?"
	}
	return fmt.Sprintf("%.1f", v)
}

func (n *probeNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "probe %s (est %s)\n", n.leaf, estStr(n.card))
}

func (n *scanNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "scan %s (unindexed)\n", n.leaf)
}

func (n *andPlan) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "intersect (est %s)\n", estStr(n.card))
	for _, p := range n.probes {
		p.explain(b, depth+1)
	}
	for _, r := range n.residuals {
		indent(b, depth+1)
		fmt.Fprintf(b, "filter %s (residual)\n", r.leaf)
	}
}

func (n *orPlan) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "union (est %s)\n", estStr(n.card))
	for _, k := range n.kids {
		k.explain(b, depth+1)
	}
}

// Query compiles and executes in one step — the common path for ad-hoc
// predicates.
func (pl *Planner) Query(pred Predicate, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	p, err := pl.Plan(pred, targetClass, hierarchy)
	if err != nil {
		return nil, err
	}
	return p.Execute()
}
