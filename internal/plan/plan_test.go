package plan

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/wire"
)

// testWorld is a randomly populated paper-schema store plus the four
// paths the planner tests predicate over, all containing Person at
// level 1.
type testWorld struct {
	st    *oodb.Store
	paths []*schema.Path
	// value pools per path index, for generating mostly-hitting operands
	pools [][]oodb.Value
}

var paperOrgs = []cost.Organization{cost.MX, cost.MIX, cost.NIX, cost.PX}

func buildWorld(t *testing.T, seed int64) *testWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := schema.PaperSchema()
	st, err := oodb.NewStore(s, 2048)
	if err != nil {
		t.Fatal(err)
	}
	ins := func(class string, attrs map[string][]oodb.Value) oodb.OID {
		oid, err := st.Insert(class, attrs)
		if err != nil {
			t.Fatalf("insert %s: %v", class, err)
		}
		return oid
	}
	divNames := make([]oodb.Value, 10)
	for i := range divNames {
		divNames[i] = oodb.StrV(fmt.Sprintf("dv-%02d", i))
	}
	compNames := make([]oodb.Value, 8)
	for i := range compNames {
		compNames[i] = oodb.StrV(fmt.Sprintf("co-%02d", i))
	}
	colors := []oodb.Value{oodb.StrV("red"), oodb.StrV("blue"), oodb.StrV("green"), oodb.StrV("grey")}

	var divs, comps, vehs []oodb.OID
	for i := 0; i < 25+rng.Intn(15); i++ {
		divs = append(divs, ins("Division", map[string][]oodb.Value{
			"name": {divNames[rng.Intn(len(divNames))]},
		}))
	}
	for i := 0; i < 12+rng.Intn(8); i++ {
		refs := []oodb.Value{}
		for _, di := range rng.Perm(len(divs))[:1+rng.Intn(3)] {
			refs = append(refs, oodb.RefV(divs[di]))
		}
		comps = append(comps, ins("Company", map[string][]oodb.Value{
			"name": {compNames[rng.Intn(len(compNames))]},
			"divs": refs,
		}))
	}
	for i := 0; i < 40+rng.Intn(20); i++ {
		cls := []string{"Vehicle", "Bus", "Truck"}[rng.Intn(3)]
		vehs = append(vehs, ins(cls, map[string][]oodb.Value{
			"color": {colors[rng.Intn(len(colors))]},
			"man":   {oodb.RefV(comps[rng.Intn(len(comps))])},
		}))
	}
	ages := make([]oodb.Value, 0, 8)
	for a := int64(20); a < 60; a += 5 {
		ages = append(ages, oodb.IntV(a))
	}
	for i := 0; i < 60+rng.Intn(30); i++ {
		owns := []oodb.Value{}
		for _, vi := range rng.Perm(len(vehs))[:rng.Intn(3)] {
			owns = append(owns, oodb.RefV(vehs[vi]))
		}
		ins("Person", map[string][]oodb.Value{
			"age":  {ages[rng.Intn(len(ages))]},
			"owns": owns,
		})
	}
	return &testWorld{
		st: st,
		paths: []*schema.Path{
			schema.MustNewPath(s, "Person", "age"),
			schema.MustNewPath(s, "Person", "owns", "color"),
			schema.MustNewPath(s, "Person", "owns", "man", "name"),
			schema.MustNewPath(s, "Person", "owns", "man", "divs", "name"),
		},
		pools: [][]oodb.Value{ages, colors, compNames, divNames},
	}
}

// randomConfig covers [1..n] with one or two subpath assignments of
// random supported organizations.
func randomConfig(rng *rand.Rand, n int) core.Configuration {
	org := func() cost.Organization { return paperOrgs[rng.Intn(len(paperOrgs))] }
	if n >= 2 && rng.Intn(2) == 0 {
		cut := 1 + rng.Intn(n-1)
		return core.Configuration{Assignments: []core.Assignment{
			{A: 1, B: cut, Org: org()},
			{A: cut + 1, B: n, Org: org()},
		}}
	}
	return core.Configuration{Assignments: []core.Assignment{{A: 1, B: n, Org: org()}}}
}

// randomPlanner registers a random subset of the world's paths (each
// with probability 3/4, at least one) behind randomly configured
// executors, leaving the rest unindexed so residual and scan fallbacks
// are exercised.
func randomPlanner(t *testing.T, w *testWorld, rng *rand.Rand) *Planner {
	t.Helper()
	pl := NewPlanner(w.st)
	registered := 0
	for _, p := range w.paths {
		if rng.Intn(4) == 0 && registered > 0 {
			continue
		}
		cfg := randomConfig(rng, p.Len())
		c, err := engine.New(w.st, p, cfg, 2048, engine.Options{})
		if err != nil {
			t.Fatalf("configure %s with %v: %v", p, cfg, err)
		}
		if err := pl.Register(p, c, nil); err != nil {
			t.Fatal(err)
		}
		registered++
	}
	return pl
}

// randomPred builds a random predicate tree of bounded depth over the
// world's paths. Operands mostly hit the live value pools, sometimes
// miss deliberately.
func (w *testWorld) randomPred(rng *rand.Rand, depth int) Predicate {
	if depth <= 0 || rng.Intn(3) == 0 {
		pi := rng.Intn(len(w.paths))
		p, pool := w.paths[pi], w.pools[pi]
		if rng.Intn(3) == 0 { // range leaf
			a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			if a.Compare(b) > 0 {
				a, b = b, a
			}
			return Range(p, a, b)
		}
		v := pool[rng.Intn(len(pool))]
		if rng.Intn(6) == 0 {
			v = oodb.StrV("no-such-value")
		}
		return Eq(p, v)
	}
	n := 2 + rng.Intn(2)
	kids := make([]Predicate, n)
	for i := range kids {
		kids[i] = w.randomPred(rng, depth-1)
	}
	if rng.Intn(2) == 0 {
		return And(kids...)
	}
	return Or(kids...)
}

// TestPlannerDifferential is the tentpole gate: across randomized data,
// index configurations and predicate trees, the planner's answer is
// bit-identical to naive evaluation of the same predicate by store
// scans.
func TestPlannerDifferential(t *testing.T) {
	for trial := int64(0); trial < 4; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial-%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1000 + trial))
			w := buildWorld(t, 500+trial)
			pl := randomPlanner(t, w, rng)
			for q := 0; q < 40; q++ {
				pred := w.randomPred(rng, 2)
				hier := rng.Intn(2) == 0
				p, err := pl.Plan(pred, "Person", hier)
				if err != nil {
					t.Fatalf("plan %s: %v", pred, err)
				}
				got, err := p.Execute()
				if err != nil {
					t.Fatalf("execute %s: %v", pred, err)
				}
				want, err := NaiveEval(w.st, pred, "Person", hier)
				if err != nil {
					t.Fatalf("naive %s: %v", pred, err)
				}
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("divergence on %s (hier=%v):\nplanner: %v\nnaive:   %v\nplan:\n%s",
						pred, hier, got, want, p.Explain())
				}
			}
		})
	}
}

// TestPlannerDeepTarget checks targets below level 1: the same predicate
// answered for Company and for Vehicle (with subclasses) stays
// bit-identical to naive evaluation.
func TestPlannerDeepTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := buildWorld(t, 7)
	pl := randomPlanner(t, w, rng)
	pComp, pDiv := w.paths[2], w.paths[3]
	preds := []Predicate{
		Eq(pComp, w.pools[2][0]),
		And(Eq(pComp, w.pools[2][1]), Eq(pDiv, w.pools[3][2])),
		Or(Eq(pDiv, w.pools[3][0]), Range(pDiv, w.pools[3][1], w.pools[3][5])),
	}
	for _, target := range []string{"Company", "Vehicle"} {
		for _, hier := range []bool{false, true} {
			for _, pred := range preds {
				got, err := pl.Query(pred, target, hier)
				if err != nil {
					t.Fatalf("%s for %s: %v", pred, target, err)
				}
				want, err := NaiveEval(w.st, pred, target, hier)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(oodb.SortUnique(got), want) {
					t.Fatalf("divergence on %s for %s (hier=%v): got %v want %v", pred, target, hier, got, want)
				}
			}
		}
	}
}

// TestSelectivityOrdering checks that observed cardinalities reorder the
// conjunct probes: after traffic, the selective company-name probe must
// run before the unselective age probe.
func TestSelectivityOrdering(t *testing.T) {
	w := buildWorld(t, 11)
	pl := NewPlanner(w.st)
	pAge, pComp := w.paths[0], w.paths[2]
	for _, p := range []*schema.Path{pAge, pComp} {
		c, err := engine.New(w.st, p, core.Configuration{
			Assignments: []core.Assignment{{A: 1, B: p.Len(), Org: cost.NIX}},
		}, 2048, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.Register(p, c, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the observed cardinalities: age is ~N/8, company name is far
	// more selective on this data.
	warm := And(Eq(pAge, w.pools[0][0]), Eq(pComp, w.pools[2][0]))
	for i := 0; i < 5; i++ {
		if _, err := pl.Query(warm, "Person", false); err != nil {
			t.Fatal(err)
		}
	}
	// Declare the unselective probe first; selectivity ordering must
	// still probe company name first.
	p, err := pl.Plan(And(Eq(pAge, w.pools[0][1]), Eq(pComp, w.pools[2][1])), "Person", false)
	if err != nil {
		t.Fatal(err)
	}
	ex := p.Explain()
	iComp := strings.Index(ex, "owns.man.name")
	iAge := strings.Index(ex, "Person.age")
	if iComp < 0 || iAge < 0 {
		t.Fatalf("explain missing probes:\n%s", ex)
	}
	if iComp > iAge {
		t.Fatalf("expected selective company probe ordered first:\n%s", ex)
	}
}

// probeEstimates plans pred for target and returns the estimate Explain
// prints for each probe, keyed "eq" or "range".
func probeEstimates(t *testing.T, pl *Planner, pred Predicate, target string) map[string]string {
	t.Helper()
	p, err := pl.Plan(pred, target, false)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(p.Explain(), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "probe ") {
			continue
		}
		kind := "eq"
		if strings.Contains(line, " in [") {
			kind = "range"
		}
		i := strings.LastIndex(line, "(est ")
		out[kind] = strings.TrimSuffix(line[i+len("(est "):], ")")
	}
	return out
}

// TestObservedCardinalityPerTarget checks that observed cardinalities
// are kept per target level: Person-target observations on a path never
// stand in for a Division-target estimate on it, which comes from
// Division observations or from the cold estimate.
func TestObservedCardinalityPerTarget(t *testing.T) {
	w := buildWorld(t, 29)
	pDiv := w.paths[3] // Person.owns.man.divs.name: Division is level 4
	c, err := engine.New(w.st, pDiv, core.Configuration{
		Assignments: []core.Assignment{{A: 1, B: pDiv.Len(), Org: cost.NIX}},
	}, 2048, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(w.st)
	if err := pl.Register(pDiv, c, nil); err != nil {
		t.Fatal(err)
	}
	eq := Eq(pDiv, w.pools[3][0])
	rg := Range(pDiv, w.pools[3][1], w.pools[3][6])
	for i := 0; i < 4; i++ {
		for _, pred := range []Predicate{eq, rg} {
			if _, err := pl.Query(pred, "Person", false); err != nil {
				t.Fatal(err)
			}
		}
	}
	both := And(eq, rg)
	if got := probeEstimates(t, pl, both, "Person"); got["eq"] == "?" || got["range"] == "?" {
		t.Fatalf("Person-target estimates %v after Person traffic, want observed sizes", got)
	}
	// No Division observation and no statistics: both probes are unknown.
	if got := probeEstimates(t, pl, both, "Division"); got["eq"] != "?" || got["range"] != "?" {
		t.Fatalf("Division-target estimates %v before any Division traffic, want cold (?)", got)
	}
	// One Division-target equality: its estimate is that answer's size;
	// the range is still cold.
	oids, err := pl.Query(eq, "Division", false)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(len(oids))
	if n == 0 {
		n = 0.5 // observed empty
	}
	want := map[string]string{"eq": fmt.Sprintf("%.1f", n), "range": "?"}
	if got := probeEstimates(t, pl, both, "Division"); !reflect.DeepEqual(got, want) {
		t.Fatalf("Division-target estimates %v after one Division equality, want %v", got, want)
	}
}

// TestResidualPostFilter checks that a conjunct over an unregistered
// path is planned as a post-filter (not a scan) and recorded as residual
// traffic.
func TestResidualPostFilter(t *testing.T) {
	w := buildWorld(t, 13)
	pl := NewPlanner(w.st)
	pComp, pColor := w.paths[2], w.paths[1]
	c, err := engine.New(w.st, pComp, core.Configuration{
		Assignments: []core.Assignment{{A: 1, B: pComp.Len(), Org: cost.NIX}},
	}, 2048, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Register(pComp, c, nil); err != nil {
		t.Fatal(err)
	}
	pred := And(Eq(pColor, w.pools[1][0]), Eq(pComp, w.pools[2][0]))
	p, err := pl.Plan(pred, "Person", false)
	if err != nil {
		t.Fatal(err)
	}
	if ex := p.Explain(); !strings.Contains(ex, "filter") || !strings.Contains(ex, "residual") {
		t.Fatalf("expected residual filter in plan:\n%s", ex)
	}
	got, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	want, err := NaiveEval(w.st, pred, "Person", false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(oodb.SortUnique(append([]oodb.OID(nil), got...)), want) {
		t.Fatalf("residual divergence: got %v want %v", got, want)
	}
	loads := pl.Predicates()
	var sawResidual, sawEq bool
	for _, l := range loads {
		if l.Path == pColor.String() && l.Residual > 0 {
			sawResidual = true
		}
		if l.Path == pComp.String() && l.Eq > 0 {
			sawEq = true
		}
	}
	if !sawResidual || !sawEq {
		t.Fatalf("predicate mix not recorded: %+v", loads)
	}
}

// TestPlanErrors checks plan-time validation.
func TestPlanErrors(t *testing.T) {
	w := buildWorld(t, 17)
	pl := randomPlanner(t, w, rand.New(rand.NewSource(17)))
	if _, err := pl.Plan(Predicate{}, "Person", false); err == nil {
		t.Fatal("zero predicate accepted")
	}
	if _, err := pl.Plan(And(), "Person", false); err == nil {
		t.Fatal("empty conjunction accepted")
	}
	if _, err := pl.Plan(Or(), "Person", false); err == nil {
		t.Fatal("empty disjunction accepted")
	}
	if _, err := pl.Plan(Eq(w.paths[0], oodb.IntV(1)), "Division", false); err == nil {
		t.Fatal("target outside path scope accepted")
	}
	if _, err := pl.Plan(Range(w.paths[0], oodb.IntV(1), oodb.StrV("x")), "Person", false); err == nil {
		t.Fatal("mixed-kind range accepted")
	}
	if _, err := pl.Plan(Eq(nil, oodb.IntV(1)), "Person", false); err == nil {
		t.Fatal("nil-path leaf accepted")
	}
}

// TestExecuteValues checks attribute projection over the match set.
func TestExecuteValues(t *testing.T) {
	w := buildWorld(t, 19)
	pl := randomPlanner(t, w, rand.New(rand.NewSource(19)))
	p, err := pl.Plan(Range(w.paths[0], oodb.IntV(20), oodb.IntV(40)), "Person", false)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := p.ExecuteValues("age")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) == 0 {
		t.Fatal("no projected values")
	}
	for _, v := range vals {
		if v.Kind != oodb.IntVal || v.Int < 20 || v.Int >= 40 {
			t.Fatalf("projected value %v outside queried range", &v)
		}
	}
}

// TestConstructorFlattening checks And/Or nesting collapse.
func TestConstructorFlattening(t *testing.T) {
	w := buildWorld(t, 23)
	a := Eq(w.paths[0], oodb.IntV(20))
	b := Eq(w.paths[1], oodb.StrV("red"))
	c := Eq(w.paths[2], oodb.StrV("co-00"))
	if got := And(a); !reflect.DeepEqual(got, a) {
		t.Fatal("And of one predicate should be that predicate")
	}
	if got := Or(b); !reflect.DeepEqual(got, b) {
		t.Fatal("Or of one predicate should be that predicate")
	}
	if n := And(And(a, b), c); n.Kind != wire.PredAnd || len(n.Kids) != 3 {
		t.Fatalf("nested And not flattened: %v", n)
	}
	if o := Or(Or(a, b), c); o.Kind != wire.PredOr || len(o.Kids) != 3 {
		t.Fatalf("nested Or not flattened: %v", o)
	}
	// Mixed nesting must not flatten across operators.
	if m := And(Or(a, b), c); m.Kind != wire.PredAnd || len(m.Kids) != 2 {
		t.Fatalf("And(Or(a,b), c) should keep the Or intact: %v", m)
	}
}

// callLog is a source that logs each call it receives: how many hops it
// was asked and whether it ran within candidates.
type callLog struct {
	Source
	hops   []int
	within []bool
}

func (c *callLog) QueryHops(dst []oodb.OID, hops []exec.Hop, within []oodb.OID, class string, hier bool) ([]oodb.OID, int, error) {
	c.hops = append(c.hops, len(hops))
	c.within = append(c.within, within != nil)
	return c.Source.QueryHops(dst, hops, within, class, hier)
}

// probeConfigs are the configurations the mechanism tests run over, every
// organization on the whole path and behind an MX head, so that a chain
// has one hop or several.
func probeConfigs(n int) []core.Configuration {
	var out []core.Configuration
	for _, org := range paperOrgs {
		out = append(out,
			core.Configuration{Assignments: []core.Assignment{{A: 1, B: n, Org: org}}},
			core.Configuration{Assignments: []core.Assignment{{A: 1, B: 1, Org: cost.MX}, {A: 2, B: n, Org: org}}})
	}
	return out
}

// loggedPlanner returns a fresh planner whose only source is e behind a
// call log. A fresh planner has no observations, so it orders every
// conjunction as declared.
func loggedPlanner(t *testing.T, w *testWorld, p *schema.Path, e *engine.Engine) (*Planner, *callLog) {
	t.Helper()
	pl, log := NewPlanner(w.st), &callLog{Source: e}
	if err := pl.Register(p, log, nil); err != nil {
		t.Fatal(err)
	}
	return pl, log
}

// pagesOf runs pred through a fresh logged planner over e and returns the
// index pages it read, its answer and the call log; the answer must be
// naive evaluation's.
func pagesOf(t *testing.T, w *testWorld, p *schema.Path, e *engine.Engine, pred Predicate) (uint64, []oodb.OID, *callLog) {
	t.Helper()
	pl, log := loggedPlanner(t, w, p, e)
	e.ResetStats()
	got, err := pl.Query(pred, "Person", false)
	if err != nil {
		t.Fatal(err)
	}
	pages := e.IndexStats().Accesses()
	want, err := NaiveEval(w.st, pred, "Person", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: planner %v, naive %v", pred, got, want)
	}
	return pages, got, log
}

// TestGroupedOrIsOneChain: an Or of same-path leaves, equality and range
// mixed, calls its source once with every leaf's hop, says so in Explain,
// and reads no more index pages than its leaves probed one by one.
func TestGroupedOrIsOneChain(t *testing.T) {
	w := buildWorld(t, 31)
	p, names := w.paths[2], w.pools[2]
	leaves := []Predicate{Eq(p, names[0]), Range(p, names[2], names[5]), Eq(p, names[6]), Eq(p, oodb.StrV("no-such-value"))}
	or := Or(leaves...)
	for _, cfg := range probeConfigs(p.Len()) {
		e, err := engine.New(w.st, p, cfg, 2048, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pages, _, log := pagesOf(t, w, p, e, or)
		if !reflect.DeepEqual(log.hops, []int{len(leaves)}) {
			t.Fatalf("%v: the Or's source saw calls of %v hops, want one call of %d", cfg, log.hops, len(leaves))
		}
		var apart uint64
		for _, l := range leaves {
			n, _, _ := pagesOf(t, w, p, e, l)
			apart += n
		}
		if pages > apart {
			t.Fatalf("%v: the grouped Or read %d index pages, its leaves one by one %d", cfg, pages, apart)
		}
		pl, _ := loggedPlanner(t, w, p, e)
		qp, err := pl.Plan(or, "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		if ex := qp.Explain(); !strings.Contains(ex, "union as one chain (est ") || strings.Count(ex, "probe ") != len(leaves) {
			t.Fatalf("%v: explain does not show one chain over %d probes:\n%s", cfg, len(leaves), ex)
		}
	}
}

// TestLaterConjunctRunsWithinCandidates: an And's second conjunct is
// probed within the candidates its first left, not intersected after; its
// chain reads exactly the index pages the same probe reads on its own,
// because filtering happens after the last hop. Explain marks it.
func TestLaterConjunctRunsWithinCandidates(t *testing.T) {
	w := buildWorld(t, 37)
	p, names := w.paths[2], w.pools[2]
	first, later := Range(p, names[0], names[6]), Or(Eq(p, names[1]), Eq(p, names[7]))
	and := And(first, later)
	for _, cfg := range probeConfigs(p.Len()) {
		e, err := engine.New(w.st, p, cfg, 2048, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pages, _, log := pagesOf(t, w, p, e, and)
		if !reflect.DeepEqual(log.within, []bool{false, true}) || !reflect.DeepEqual(log.hops, []int{1, 2}) {
			t.Fatalf("%v: calls of %v hops, within candidates %v; want the range alone, then the Or's two hops within", cfg, log.hops, log.within)
		}
		alone, cands, _ := pagesOf(t, w, p, e, first)
		if len(cands) == 0 {
			t.Fatalf("%v: the first conjunct matched nothing; the test needs candidates", cfg)
		}
		unfiltered, _, _ := pagesOf(t, w, p, e, later)
		if pages != alone+unfiltered {
			t.Fatalf("%v: the And read %d index pages, its conjuncts on their own %d + %d", cfg, pages, alone, unfiltered)
		}
		pl, _ := loggedPlanner(t, w, p, e)
		qp, err := pl.Plan(and, "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		if ex := qp.Explain(); !strings.Contains(ex, "union as one chain within candidates (est ") {
			t.Fatalf("%v: explain does not mark the later conjunct:\n%s", cfg, ex)
		}
	}
}

// parityParts is a Partitioned source over one whole source: part k
// answers the OIDs of parity k, as the two parts of a two-shard database
// answer the residues of their shards.
type parityParts struct{ Source }

func (s parityParts) Parts() []Source {
	return []Source{parityPart{s.Source, 0}, parityPart{s.Source, 1}}
}

type parityPart struct {
	src Source
	k   oodb.OID
}

func (p parityPart) QueryHops(dst []oodb.OID, hops []exec.Hop, within []oodb.OID, class string, hier bool) ([]oodb.OID, int, error) {
	base := len(dst)
	out, n, err := p.src.QueryHops(dst, hops, within, class, hier)
	if err != nil {
		return dst, 0, err
	}
	kept := out[:base]
	for _, o := range out[base:] {
		if o%2 == p.k {
			kept = append(kept, o)
		}
	}
	return kept, n, nil
}

// TestExecuteAnswersDoNotAlias: an answer handed out by Execute or
// ExecuteInto(nil) is the caller's — every intermediate answer lives in a
// pooled arena, and 100 later executions of the same plans, on this
// goroutine and on others, must not change a byte of it. The plans run
// per part over a two-part source, an And within candidates of an Or
// group and an Or merging two Ands, each execution on an arena too small
// for it, so that it grows mid-execution.
func TestExecuteAnswersDoNotAlias(t *testing.T) {
	w := buildWorld(t, 41)
	p, names := w.paths[2], w.pools[2]
	e, err := engine.New(w.st, p, core.Configuration{Assignments: []core.Assignment{{A: 1, B: p.Len(), Org: cost.NIX}}}, 2048, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(w.st)
	if err := pl.Register(p, parityParts{e}, nil); err != nil {
		t.Fatal(err)
	}
	preds := []Predicate{
		And(Range(p, names[0], names[6]), Or(Eq(p, names[1]), Eq(p, names[5]))),
		Or(And(Range(p, names[0], names[4]), Eq(p, names[2])), And(Range(p, names[3], names[7]), Eq(p, names[5]))),
	}
	plans := make([]*Plan, len(preds))
	wants := make([][]oodb.OID, len(preds))
	for i, pred := range preds {
		if plans[i], err = pl.Plan(pred, "Person", false); err != nil {
			t.Fatal(err)
		}
		if ex := plans[i].Explain(); !strings.Contains(ex, "per part ×2") {
			t.Fatalf("%s does not run per part:\n%s", pred, ex)
		}
		if wants[i], err = NaiveEval(w.st, pred, "Person", false); err != nil {
			t.Fatal(err)
		}
		if len(wants[i]) < 2 {
			t.Fatalf("%s answers %v; the test needs an answer on both parts", pred, wants[i])
		}
	}
	// run executes plan i and checks the answer; tiny puts an arena with
	// room for one OID in the pool first, which the execution most likely
	// takes and grows, otherwise it takes the arena an earlier one left.
	run := func(i int, into, tiny bool) ([]oodb.OID, error) {
		if tiny {
			arenas.Put(&arena{oids: make([]oodb.OID, 0, 1)})
		}
		var got []oodb.OID
		var err error
		if into {
			got, err = plans[i].ExecuteInto(nil)
		} else {
			got, err = plans[i].Execute()
		}
		if err == nil && !reflect.DeepEqual(got, wants[i]) {
			err = fmt.Errorf("%s: %v, naive %v", preds[i], got, wants[i])
		}
		return got, err
	}
	var held [][]oodb.OID
	for i := range plans {
		for _, into := range []bool{false, true} {
			got, err := run(i, into, true)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, got)
		}
	}
	check := func(when string) {
		t.Helper()
		for k, got := range held {
			if want := wants[k/2]; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, answer %d of %s reads %v, was %v", when, k, preds[k/2], got, want)
			}
		}
	}
	for n := 0; n < 100; n++ {
		if _, err := run(n%len(plans), n%2 == 0, n%8 == 0); err != nil {
			t.Fatal(err)
		}
	}
	check("after 100 executions on this goroutine")
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 25; n++ {
				if _, err := run((g+n)%len(plans), n%2 == 1, n%8 == 0); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	check("after 100 executions on four other goroutines")
}
