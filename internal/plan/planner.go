package plan

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

// Source answers a probe group along one registered path: the
// disjunction of its first hops — equality and range leaves alike — as one
// Proposition 4.1 chain, whose later hops run once, on the union. When
// within is non-nil, a sorted duplicate-free candidate set, the answer is
// restricted to it. The answer, a sorted duplicate-free run, is appended
// to dst and dst returned: nothing before len(dst) changes, and on error
// dst comes back as it was passed. A nil dst gets a fresh answer of its
// exact size, nil when empty; a reused one is what makes a served probe
// allocation-free. produced is the answer's length for an unrestricted
// probe; within candidates it is the number of OIDs the chain's last hop
// yielded before the restriction, duplicates included, so that a filtered
// probe still learns its size. It is the serving stack's one read
// primitive — the network server answers point and range requests through
// it as one-hop probes. engine.Engine and shard.DB both satisfy it.
type Source interface {
	QueryHops(dst []oodb.OID, hops []exec.Hop, within []oodb.OID, targetClass string, hierarchy bool) (answer []oodb.OID, produced int, err error)
}

// Partitioned is a Source whose answer to every probe is the disjoint
// union of its parts' answers — shard.DB, one part per shard. Because no
// object's answer spans two parts, And and Or distribute over them: a
// tree whose probe leaves all use one Partitioned source runs once per
// part, and the parts' answers merge once, at the root.
type Partitioned interface {
	Source
	Parts() []Source
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
// (operator, target level) (atomic float bits; zero means no observation
// yet — a real observed zero is stored as 0.5).
type sourceEntry struct {
	path  *schema.Path
	key   string
	src   Source
	parts []Source // a Partitioned source's parts; nil for any other
	sink  PredicateSink
	ps    *model.PathStats
	obs   []atomic.Uint64 // indexed by cell(kind, target level)
}

// cell returns the observed-size cell of one operator at one target
// level: a Division-target range answers a different question from a
// Person-target one on the same path.
func (e *sourceEntry) cell(kind byte, targetLevel int) *atomic.Uint64 {
	return &e.obs[int(kind-wire.PredEq)*e.path.Len()+targetLevel-1]
}

func observe(obs *atomic.Uint64, v float64) {
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
// this entry: the live EWMA when the operator has been seen at this
// target level, a PathStats-derived figure otherwise (N_target/D_ending
// for equality, N_target/10 for ranges), and +Inf with no information at
// all — an unknown probe is ordered last, never first.
func (e *sourceEntry) estimate(kind byte, targetLevel int) float64 {
	if bits := e.cell(kind, targetLevel).Load(); bits != 0 {
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
// planner's per-leaf traffic for the path; a Partitioned source's parts
// are read once, here.
func (pl *Planner) Register(p *schema.Path, src Source, ps *model.PathStats) error {
	if p == nil {
		return fmt.Errorf("plan: register with nil path")
	}
	if src == nil {
		return fmt.Errorf("plan: register %s with nil source", p)
	}
	e := &sourceEntry{path: p, key: p.String(), src: src, ps: ps, obs: make([]atomic.Uint64, 2*p.Len())}
	if pt, ok := src.(Partitioned); ok {
		if e.parts = pt.Parts(); len(e.parts) == 0 {
			return fmt.Errorf("plan: register %s with a partitioned source of no parts", p)
		}
	}
	e.sink, _ = src.(PredicateSink)
	pl.mu.Lock()
	pl.sources[e.key] = e
	pl.mu.Unlock()
	return nil
}

// Predicates snapshots the per-path predicate mix the planner has
// evaluated: every leaf of every executed plan, once per execution,
// classified as indexed equality, indexed range, or residual store
// navigation (see Plan.Execute for when a leaf counts). A probe leaf is
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
	parts     int // how many times Execute evaluates the tree (see partition)
	leaves    int // leaf nodes, numbered by their slots
}

// pnode is a physical plan node.
type pnode interface {
	est() float64
	explain(b *strings.Builder, depth int)
}

// estimated is a plan node's estimated answer cardinality, which the
// probe, intersect and union nodes embed.
type estimated struct{ card float64 }

func (e estimated) est() float64 { return e.card }

// probeNode is one indexed leaf, a member of a probe group.
type probeNode struct {
	leaf *Predicate
	kind stats.PredKind
	obs  *atomic.Uint64 // the observed-size cell this probe feeds
	slot int
	card float64
}

// groupNode is a probe group: the disjunction of indexed leaves that share
// one registered source, answered through it — the whole source, or in a
// plan run per part the part being evaluated — as one chain entered
// through every member's first hop. A lone leaf is a group of one. A group
// after the first conjunct of an And runs within the running candidates
// (within), so its chain's last hop drops every OID outside them.
type groupNode struct {
	entry     *sourceEntry
	members   []*probeNode
	hops      []exec.Hop // one per member, in member order
	within    bool
	estimated // the members' estimates summed
}

// join adds g's members to n, which uses the same source.
func (n *groupNode) join(g *groupNode) {
	n.members = append(n.members, g.members...)
	n.hops = append(n.hops, g.hops...)
	n.card += g.card
}

// scanNode answers one leaf by naive store navigation — a leaf with no
// registered source that could not be attached to indexed siblings as a
// post-filter (e.g. a lone disjunct).
type scanNode struct {
	leaf *Predicate
	slot int
}

func (n *scanNode) est() float64 { return math.Inf(1) }

// filterStep is one residual conjunct: verified per candidate by forward
// navigation from the target level of its own path.
type filterStep struct {
	leaf  *Predicate
	level int
	slot  int
}

// andPlan narrows its probes cheapest-first — a probe group within the
// running candidates, any other conjunct by intersection — then
// post-filters the survivors through the residual steps.
type andPlan struct {
	probes    []pnode
	residuals []filterStep
	estimated
}

// orPlan unions its branches through the k-way merge; its leaves on one
// source have become one probe group among them.
type orPlan struct {
	kids []pnode
	estimated
}

// Plan compiles pred into a physical plan answering "which objects of
// targetClass (optionally including subclasses) satisfy pred". Every
// leaf's path must contain targetClass in its scope; conjuncts over
// unregistered paths become residual post-filters, a fully unindexed
// conjunction or lone disjunct falls back to a store scan.
func (pl *Planner) Plan(pred Predicate, targetClass string, hierarchy bool) (*Plan, error) {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	c := compiler{pl: pl, target: targetClass}
	root, err := c.compile(&pred)
	if err != nil {
		return nil, err
	}
	return &Plan{pl: pl, target: targetClass, hierarchy: hierarchy, root: root,
		parts: c.partition(hasScan(root)), leaves: c.leaves}, nil
}

// compiler lowers one predicate tree and numbers its leaves.
type compiler struct {
	pl     *Planner
	target string
	leaves int
	entry  *sourceEntry // the first probe leaf's source
	mixed  bool         // a probe leaf uses another source
}

// slot numbers one leaf for an execution's tally.
func (c *compiler) slot() int {
	c.leaves++
	return c.leaves - 1
}

// partition returns the number of parts the plan runs over. The tree runs
// per part only when every probe leaf uses one registered Partitioned
// source and no leaf scans the store — a store scan is not partitioned.
// Any other tree runs once, over its leaves' whole sources: a plain
// source is its own single part.
func (c *compiler) partition(scans bool) int {
	if scans || c.mixed || c.entry == nil || len(c.entry.parts) < 2 {
		return 1
	}
	return len(c.entry.parts)
}

// hasScan reports whether any leaf of the tree is driven by a store scan.
func hasScan(n pnode) bool {
	switch n := n.(type) {
	case *scanNode:
		return true
	case *andPlan:
		return slices.ContainsFunc(n.probes, hasScan)
	case *orPlan:
		return slices.ContainsFunc(n.kids, hasScan)
	}
	return false
}

// compile lowers one tree node; the plan points into the tree. Called
// with pl.mu read-held.
func (c *compiler) compile(n *Predicate) (pnode, error) {
	switch n.Kind {
	case wire.PredEq, wire.PredRange:
		if err := validateLeaf(n); err != nil {
			return nil, err
		}
		level, err := exec.PathLevel(n.Path, c.target)
		if err != nil {
			return nil, err
		}
		if e, ok := c.pl.sources[n.Path.String()]; ok {
			if c.entry == nil {
				c.entry = e
			}
			c.mixed = c.mixed || e != c.entry
			kind, hop := stats.PredEq, exec.Hop{Lo: n.Value}
			if n.Kind == wire.PredRange {
				kind, hop = stats.PredRange, exec.Hop{Lo: n.Lo, Hi: n.Hi, Ranged: true}
			}
			m := &probeNode{leaf: n, kind: kind, obs: e.cell(n.Kind, level),
				slot: c.slot(), card: e.estimate(n.Kind, level)}
			return &groupNode{entry: e, members: []*probeNode{m}, hops: []exec.Hop{hop}, estimated: estimated{m.card}}, nil
		}
		if c.pl.store == nil {
			return nil, fmt.Errorf("plan: no source for %s and no store for naive fallback", n.Path)
		}
		return &scanNode{leaf: n, slot: c.slot()}, nil
	case wire.PredAnd:
		if len(n.Kids) == 0 {
			return nil, fmt.Errorf("plan: empty conjunction")
		}
		ap := &andPlan{}
		for i := range n.Kids {
			kid, err := c.compile(&n.Kids[i])
			if err != nil {
				return nil, err
			}
			if sn, ok := kid.(*scanNode); ok {
				// An unindexed conjunct never scans: it rides the indexed
				// siblings as a per-candidate post-filter.
				level, err := exec.PathLevel(sn.leaf.Path, c.target)
				if err != nil {
					return nil, err
				}
				ap.residuals = append(ap.residuals, filterStep{leaf: sn.leaf, level: level, slot: sn.slot})
				continue
			}
			ap.probes = append(ap.probes, kid)
		}
		if len(ap.probes) == 0 {
			// Fully unindexed conjunction: the cheapest residual is
			// promoted to a driving scan, the rest stay post-filters.
			ap.probes = append(ap.probes, &scanNode{leaf: ap.residuals[0].leaf, slot: ap.residuals[0].slot})
			ap.residuals = ap.residuals[1:]
		}
		slices.SortStableFunc(ap.probes, func(a, b pnode) int { return cmp.Compare(a.est(), b.est()) })
		ap.card = math.Inf(1)
		for i, p := range ap.probes {
			ap.card = math.Min(ap.card, p.est())
			if g, ok := p.(*groupNode); ok && i > 0 {
				g.within = true
			}
		}
		return ap, nil
	case wire.PredOr:
		if len(n.Kids) == 0 {
			return nil, fmt.Errorf("plan: empty disjunction")
		}
		op := &orPlan{}
		for i := range n.Kids {
			kid, err := c.compile(&n.Kids[i])
			if err != nil {
				return nil, err
			}
			if sn, ok := kid.(*scanNode); ok && c.pl.store == nil {
				return nil, fmt.Errorf("plan: no source for %s under disjunction", sn.leaf.Path)
			}
			op.card += kid.est()
			if g, ok := kid.(*groupNode); ok {
				// Disjuncts on one source share a chain: join the group
				// an earlier disjunct started.
				if i := slices.IndexFunc(op.kids, func(k pnode) bool {
					h, ok := k.(*groupNode)
					return ok && h.entry == g.entry
				}); i >= 0 {
					op.kids[i].(*groupNode).join(g)
					continue
				}
			}
			op.kids = append(op.kids, kid)
		}
		if len(op.kids) == 1 {
			return op.kids[0], nil
		}
		return op, nil
	}
	return nil, fmt.Errorf("plan: unknown predicate kind %d", n.Kind)
}

// Execute runs the plan and returns the matching OIDs, sorted and
// duplicate-free — bit-identical to NaiveEval of the same predicate. It
// is ExecuteInto with no buffer of the caller's: the answer is fresh, nil
// when empty.
func (p *Plan) Execute() ([]oodb.OID, error) { return p.ExecuteInto(nil) }

// ExecuteInto runs the plan and appends the matching OIDs, sorted and
// duplicate-free, to dst, and returns it; nothing before len(dst)
// changes. The appended answer is the caller's alone: every intermediate
// answer of the execution lives in a pooled arena, and only the final
// answer is copied out of it, into dst. A failed execution returns nil.
//
// A plan over k parts evaluates the whole tree once per part, in part
// order on the calling goroutine, and unions the parts' answers — sorted
// runs that interleave OID by OID — once, into dst, by
// exec.MergeKSortedOIDs; one part's answer is copied. Each part's
// conjunctions short-circuit on their own: a part whose cheapest conjunct
// is empty never probes the rest. The execution is accounted for once: a
// leaf that at least one part ran is recorded, in the planner's mix and
// in its source's sink (a part whose summary pruned a probe ran it — its
// answer is known to be empty). A probe that every part ran feeds its
// summed answer size to the cardinality estimate; a sum with a part
// missing would bias the estimate low.
func (p *Plan) ExecuteInto(dst []oodb.OID) ([]oodb.OID, error) {
	x := execution{Plan: p, arena: arenas.Get().(*arena)}
	defer x.release()
	x.ran = slices.Grow(x.ran[:0], p.leaves)[:p.leaves]
	clear(x.ran)
	for x.part = 0; x.part < p.parts; x.part++ {
		r, err := x.eval(p.root)
		if err != nil {
			x.settle(p.root, false)
			return nil, err
		}
		x.runs = append(x.runs, r)
	}
	x.settle(p.root, true)
	return exec.MergeKSortedOIDs(dst, x.runs...), nil
}

// arena is one execution's pooled memory. Every answer a source gives the
// execution — a leaf's, a probe's within the candidates — and every Or's
// union is appended to oids and carved from it as a capacity-clipped
// region, so nothing after it can write into it; an And narrows its
// candidates inside their own region. runs is a stack of the runs an Or
// or the parts are about to union, ran the execution's tally per leaf
// slot. An arena whose oids grew past keptArena is not kept.
type arena struct {
	oids []oodb.OID
	runs [][]oodb.OID
	ran  []leafRun
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

// keptArena is the most OIDs a pooled arena keeps room for: every
// intermediate answer of an execution lives in it, so it holds a few
// answers' worth (net_pred's executions peak at about 10K OIDs at seed 42
// and 17K at seed 2026).
const keptArena = 4 * exec.KeptOIDs

// release returns the arena to the pool, holding no run.
func (a *arena) release() {
	clear(a.runs[:cap(a.runs)])
	a.runs = a.runs[:0]
	if a.oids = a.oids[:0]; cap(a.oids) > keptArena {
		a.oids = nil
	}
	arenas.Put(a)
}

// carve returns the arena's OIDs from base on as a region of their own.
func (a *arena) carve(base int) []oodb.OID {
	return a.oids[base:len(a.oids):len(a.oids)]
}

// execution is one Execute's state: the part being evaluated and its
// arena, which holds per leaf slot how many parts ran the leaf and how
// many OIDs they answered.
type execution struct {
	*Plan
	*arena
	part int
}

type leafRun struct{ parts, oids int }

// settle records and observes the leaves under n (see Execute); ok is
// false for a failed execution.
func (x *execution) settle(n pnode, ok bool) {
	switch n := n.(type) {
	case *groupNode:
		// Each member observes an equal share of what the group produced,
		// so the group's estimate — the members' sum — tracks its answer.
		k := float64(len(n.members))
		for _, m := range n.members {
			if r := x.ran[m.slot]; r.parts > 0 {
				x.pl.record(n.entry, n.entry.key, m.kind)
				if ok && r.parts == x.parts {
					observe(m.obs, float64(r.oids)/k)
				}
			}
		}
	case *scanNode:
		x.settleResidual(n.leaf, n.slot)
	case *andPlan:
		for _, p := range n.probes {
			x.settle(p, ok)
		}
		for _, rs := range n.residuals {
			x.settleResidual(rs.leaf, rs.slot)
		}
	case *orPlan:
		for _, k := range n.kids {
			x.settle(k, ok)
		}
	}
}

func (x *execution) settleResidual(l *Predicate, slot int) {
	if x.ran[slot].parts > 0 {
		x.pl.record(nil, l.Path.String(), stats.PredResidual)
	}
}

func (x *execution) eval(n pnode) ([]oodb.OID, error) {
	switch n := n.(type) {
	case *groupNode:
		return x.evalGroup(n, nil)
	case *scanNode:
		return x.evalScan(n)
	case *andPlan:
		return x.evalAnd(n)
	case *orPlan:
		mark := len(x.runs)
		for _, k := range n.kids {
			r, err := x.eval(k)
			if err != nil {
				return nil, err
			}
			x.runs = append(x.runs, r)
		}
		base := len(x.oids)
		x.oids = exec.MergeKSortedOIDs(x.oids, x.runs[mark:]...)
		x.runs = x.runs[:mark]
		return x.carve(base), nil
	}
	return nil, fmt.Errorf("plan: unknown plan node %T", n)
}

// evalGroup runs a probe group as one chain, within the candidates when
// within is non-nil, and tallies every member as run with the group's
// produced count.
func (x *execution) evalGroup(n *groupNode, within []oodb.OID) ([]oodb.OID, error) {
	src := n.entry.src
	if x.parts > 1 {
		src = n.entry.parts[x.part]
	}
	base := len(x.oids)
	out, produced, err := src.QueryHops(x.oids, n.hops, within, x.target, x.hierarchy)
	for _, m := range n.members {
		r := &x.ran[m.slot]
		r.parts++
		r.oids += produced
	}
	if err != nil {
		return nil, err
	}
	x.oids = out
	return x.carve(base), nil
}

// evalScan answers a store-scan leaf with the fresh slice the naive
// evaluator returns; it is not in the arena, and the execution owns it.
func (x *execution) evalScan(n *scanNode) ([]oodb.OID, error) {
	x.ran[n.slot].parts++
	l := n.leaf
	if l.Kind == wire.PredEq {
		return exec.NaiveQuery(x.pl.store, l.Path, l.Value, x.target, x.hierarchy)
	}
	return exec.NaiveQueryRange(x.pl.store, l.Path, l.Lo, l.Hi, x.target, x.hierarchy)
}

func (x *execution) evalAnd(n *andPlan) ([]oodb.OID, error) {
	cur, err := x.eval(n.probes[0])
	if err != nil {
		return nil, err
	}
	for _, p := range n.probes[1:] {
		if len(cur) == 0 {
			// Empty intermediate: the conjunction is decided, skip the
			// remaining probes entirely.
			return cur, nil
		}
		if g, ok := p.(*groupNode); ok && g.within {
			if cur, err = x.evalGroup(g, cur); err != nil {
				return nil, err
			}
			continue
		}
		r, err := x.eval(p)
		if err != nil {
			return nil, err
		}
		cur = exec.IntersectSortedOIDs(cur[:0], cur, r)
	}
	if len(n.residuals) == 0 || len(cur) == 0 {
		return cur, nil
	}
	for _, rs := range n.residuals {
		x.ran[rs.slot].parts++
	}
	// Post-filter: verify each surviving candidate by forward navigation
	// along every residual path. Store pages are paid only for the
	// candidates the indexed probes left alive.
	out := cur[:0]
	for _, oid := range cur {
		obj, err := x.pl.store.Get(oid)
		if err != nil {
			return nil, err
		}
		keep := true
		for _, rs := range n.residuals {
			ok, err := exec.Reaches(x.pl.store, rs.leaf.Path, obj, rs.level, valueTest(rs.leaf))
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
// cardinalities, which conjuncts became residual post-filters, and — on
// the header line, for a plan run per part — how many parts it runs over.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan for %q (hierarchy=%v)", p.target, p.hierarchy)
	if p.parts > 1 {
		fmt.Fprintf(&b, ", per part ×%d, merged once", p.parts)
	}
	b.WriteByte('\n')
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

// explain prints a group of one as its probe, a larger group as a header
// over its members' probes; a group run within candidates says so.
func (n *groupNode) explain(b *strings.Builder, depth int) {
	within := ""
	if n.within {
		within = "within candidates "
	}
	indent(b, depth)
	if len(n.members) == 1 {
		fmt.Fprintf(b, "probe %s %s(est %s)\n", n.members[0].leaf, within, estStr(n.card))
		return
	}
	fmt.Fprintf(b, "union as one chain %s(est %s)\n", within, estStr(n.card))
	for _, m := range n.members {
		indent(b, depth+1)
		fmt.Fprintf(b, "probe %s (est %s)\n", m.leaf, estStr(m.card))
	}
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
