package shard_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/wire"
)

// plannerTraffic opens an n-shard database whose shards assume a
// Person-query workload, populates it, and serves a mix of equality and
// range leaves through a planner that uses the database as its source.
// It returns the database, the assumed baseline and the planner.
func plannerTraffic(t *testing.T, n int) (*shard.DB, *model.PathStats, *plan.Planner) {
	t.Helper()
	s := schema.PaperSchema()
	p := schema.PaperPathOwnsManName()
	base := model.NewPathStats(p, model.PaperParams())
	if err := base.SetLoad(1, "Person", model.Load{Alpha: 1}); err != nil {
		t.Fatal(err)
	}
	db, err := shard.New(s, p, wholeNIX(p.Len()), 1024, n, shard.Options{
		Engine: engine.Options{Params: model.PaperParams(), Assumed: base, MinOps: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	values := populate(t, db)
	pl := plan.NewPlanner(nil)
	if err := pl.Register(p, db, nil); err != nil {
		t.Fatal(err)
	}
	// The range spans every shard's values, so every shard serves it; the
	// equality leaf is pruned to the shard holding its value.
	every := plan.Range(p, oodb.StrV("maker-"), oodb.StrV("maker-~"))
	for i := 0; i < 12; i++ {
		pred := every
		if i%3 == 0 {
			pred = plan.Eq(p, values[i%n])
		}
		if _, err := pl.Query(pred, "Person", false); err != nil {
			t.Fatal(err)
		}
	}
	return db, base, pl
}

// TestPlannerLeavesReachEveryShard: with the sharded database as a
// planner source, every leaf the planner forwards is recorded on every
// shard's engine, and each shard's drift counts it — the range leaves
// reclassify the shard's recorded queries as range probes.
func TestPlannerLeavesReachEveryShard(t *testing.T) {
	db, base, pl := plannerTraffic(t, 3)
	want := pl.Predicates()
	dv := db.Drift()
	for i := 0; i < db.NumShards(); i++ {
		w := db.Shard(i).WorkloadSnapshot()
		if !reflect.DeepEqual(w.Predicates, want) {
			t.Fatalf("shard %d predicate mix %+v, want the planner's %+v", i, w.Predicates, want)
		}
		classOnly := w
		classOnly.Predicates = nil
		d := db.Shard(i).Drift()
		if d != stats.LoadDrift(base, w) || d == stats.LoadDrift(base, classOnly) {
			t.Fatalf("shard %d drift %g ignores the mix (with it %g, without %g)",
				i, d, stats.LoadDrift(base, w), stats.LoadDrift(base, classOnly))
		}
		if dv.PerShard[i] != d {
			t.Fatalf("drift view shard %d = %g, engine %g", i, dv.PerShard[i], d)
		}
	}
}

// TestAdviseCountsThePlannerMix: DB.Advise is each shard's own Advise,
// and each one selects on the shard's class counters plus the planner's
// mix — exactly what an offline MergeObserved of the shard's workload
// snapshot and core.Select give — and reports the drift that mix implies.
func TestAdviseCountsThePlannerMix(t *testing.T) {
	db, _, _ := plannerTraffic(t, 2)
	advs, err := db.Advise()
	if err != nil {
		t.Fatal(err)
	}
	for i, adv := range advs {
		e := db.Shard(i)
		ps, err := stats.Collect(db.Store(i), db.Path(), model.PaperParams())
		if err != nil {
			t.Fatal(err)
		}
		if err := stats.MergeObserved(ps, e.WorkloadSnapshot()); err != nil {
			t.Fatal(err)
		}
		res, _, err := core.Select(ps, cost.Organizations)
		if err != nil {
			t.Fatal(err)
		}
		if !adv.Config.Equal(res.Best) || !reflect.DeepEqual(adv.Stats, ps) {
			t.Fatalf("shard %d advice %v on %+v, offline %v on %+v", i, adv.Config, adv.Stats.Levels, res.Best, ps.Levels)
		}
		if adv.Drift != e.Drift() || adv.Drift == 0 {
			t.Fatalf("shard %d advice drift %g, engine drift %g", i, adv.Drift, e.Drift())
		}
	}
}

// wholeDB hides a database's parts: a planner over it sees a plain
// source and sink, and runs every tree once over the whole database.
type wholeDB struct{ db *shard.DB }

func (w wholeDB) QueryHops(dst []oodb.OID, hops []exec.Hop, within []oodb.OID, class string, hier bool) ([]oodb.OID, int, error) {
	return w.db.QueryHops(dst, hops, within, class, hier)
}

func (w wholeDB) RecordPredicate(path string, kind stats.PredKind) { w.db.RecordPredicate(path, kind) }

// partitionedDB opens a 3-shard database and populates every shard with
// companies named from a shared pool plus one name of its own, vehicles
// of all three classes and persons owning them. It returns the database
// and the value pool leaves draw from, which includes a name no shard
// holds.
func partitionedDB(tb testing.TB) (*shard.DB, []oodb.Value) {
	tb.Helper()
	p := schema.PaperPathOwnsManName()
	db, err := shard.New(schema.PaperSchema(), p, wholeNIX(p.Len()), 1024, 3, shard.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var pool []oodb.Value
	for i := 0; i < 8; i++ {
		pool = append(pool, oodb.StrV(fmt.Sprintf("maker-%d", i)))
	}
	pool = append(pool, oodb.StrV("maker-none"))
	must := func(oid oodb.OID, err error) oodb.OID {
		if err != nil {
			tb.Fatal(err)
		}
		return oid
	}
	for s := 0; s < db.NumShards(); s++ {
		own := oodb.StrV(fmt.Sprintf("only-%d", s))
		pool = append(pool, own)
		var cos, cars []oodb.OID
		for c := 0; c < 6; c++ {
			name := pool[rng.Intn(8)]
			if c == 0 {
				name = own
			}
			cos = append(cos, must(db.InsertAt(s, "Company", map[string][]oodb.Value{"name": {name}})))
		}
		for v := 0; v < 10; v++ {
			cls := []string{"Vehicle", "Bus", "Truck"}[rng.Intn(3)]
			cars = append(cars, must(db.Insert(cls, map[string][]oodb.Value{"man": {oodb.RefV(cos[rng.Intn(len(cos))])}})))
		}
		for q := 0; q < 12; q++ {
			owns := []oodb.Value{oodb.RefV(cars[rng.Intn(len(cars))])}
			if rng.Intn(2) == 0 {
				owns = append(owns, oodb.RefV(cars[rng.Intn(len(cars))]))
			}
			must(db.Insert("Person", map[string][]oodb.Value{"owns": owns}))
		}
	}
	return db, pool
}

// partitionedPlanners returns two planners over db: one registers the
// database itself and runs each tree per shard, the other registers
// wholeDB and runs it once.
func partitionedPlanners(tb testing.TB, db *shard.DB) (perPart, whole *plan.Planner) {
	tb.Helper()
	perPart, whole = plan.NewPlanner(nil), plan.NewPlanner(nil)
	if err := perPart.Register(db.Path(), db, nil); err != nil {
		tb.Fatal(err)
	}
	if err := whole.Register(db.Path(), wholeDB{db}, nil); err != nil {
		tb.Fatal(err)
	}
	return perPart, whole
}

// treeTargets are the targets a decoded tree asks for: every level of
// the path, with and without the hierarchy.
var treeTargets = []struct {
	class string
	hier  bool
}{
	{"Person", false}, {"Person", true}, {"Vehicle", false}, {"Vehicle", true},
	{"Bus", false}, {"Truck", true}, {"Company", false}, {"Company", true},
}

// treeBytes decodes a predicate tree and a target from bytes; exhausted
// input reads as zeros, which decode as leaves.
type treeBytes []byte

func (r *treeBytes) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

func (r *treeBytes) target() (string, bool) {
	tg := treeTargets[r.next()%len(treeTargets)]
	return tg.class, tg.hier
}

// tree decodes an Eq or Range leaf, or an And or Or of two or three
// subtrees, at most depth levels deep.
func (r *treeBytes) tree(p *schema.Path, pool []oodb.Value, depth int) plan.Predicate {
	b := r.next()
	if depth == 0 || b%3 == 0 {
		v := pool[r.next()%len(pool)]
		if b&4 == 0 {
			return plan.Eq(p, v)
		}
		hi := pool[r.next()%len(pool)]
		if v.Compare(hi) > 0 {
			v, hi = hi, v
		}
		return plan.Range(p, v, hi)
	}
	kids := make([]plan.Predicate, 2+b>>7)
	for i := range kids {
		kids[i] = r.tree(p, pool, depth-1)
	}
	if b%3 == 1 {
		return plan.And(kids...)
	}
	return plan.Or(kids...)
}

// naiveUnion evaluates pred naively on every shard's store and unions
// the answers.
func naiveUnion(t *testing.T, db *shard.DB, pred plan.Predicate, class string, hier bool) []oodb.OID {
	t.Helper()
	var all []oodb.OID
	for i := 0; i < db.NumShards(); i++ {
		oids, err := plan.NaiveEval(db.Store(i), pred, class, hier)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, oids...)
	}
	return oodb.SortUnique(all)
}

// wantAnswer runs pred through the named planner and requires want.
func wantAnswer(t *testing.T, name string, pl *plan.Planner, pred plan.Predicate, class string, hier bool, want []oodb.OID) {
	t.Helper()
	got, err := pl.Query(pred, class, hier)
	if err != nil {
		t.Fatalf("%s planner on %s for %s: %v", name, pred, class, err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s planner on %s for %s (hier=%v): %v, naive %v", name, pred, class, hier, got, want)
	}
}

// maxAnds returns the largest number of And nodes on one root-to-leaf
// path of the tree.
func maxAnds(n plan.Predicate) int {
	most := 0
	for _, k := range n.Kids {
		most = max(most, maxAnds(k))
	}
	if n.Kind == wire.PredAnd {
		most++
	}
	return most
}

// predMix is a predicate mix as per-path [Eq, Range, Residual] counts.
type predMix map[string][3]uint64

// predCounts sums a predicate mix per path.
func predCounts(loads []stats.PredLoad) predMix {
	out := predMix{}
	for _, l := range loads {
		c := out[l.Path]
		out[l.Path] = [3]uint64{c[0] + l.Eq, c[1] + l.Range, c[2] + l.Residual}
	}
	return out
}

// shardPreds returns every shard's recorded predicate mix.
func shardPreds(db *shard.DB) []predMix {
	out := make([]predMix, db.NumShards())
	for i, w := range db.WorkloadSnapshots() {
		out[i] = predCounts(w.Predicates)
	}
	return out
}

// predDelta returns after minus before, path by path.
func predDelta(after, before predMix) predMix {
	out := predMix{}
	for path, a := range after {
		b := before[path]
		if d := [3]uint64{a[0] - b[0], a[1] - b[1], a[2] - b[2]}; d != [3]uint64{} {
			out[path] = d
		}
	}
	return out
}

// sameLeaves reports whether the per-part planner recorded what the
// whole-database one did: the same mix, or for a tree with more than one
// And on some root-to-leaf path (deep) a part of it.
func sameLeaves(part, whole predMix, deep bool) bool {
	if !deep {
		return reflect.DeepEqual(part, whole)
	}
	for path, c := range part {
		for i := range c {
			if c[i] > whole[path][i] {
				return false
			}
		}
	}
	return true
}

// TestPartitionedPlanMatchesWhole: a tree evaluated once per shard and
// merged at the root answers exactly what the same tree evaluated once
// over the whole database answers, and what naive evaluation gives. With
// at most one And on every root-to-leaf path it records the same leaves,
// in the planner and on every shard; deeper trees may record fewer, never
// others.
func TestPartitionedPlanMatchesWhole(t *testing.T) {
	db, pool := partitionedDB(t)
	rng := rand.New(rand.NewSource(11))
	shapes := map[bool]int{} // trees by deep (more than one And on a path)
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 48)
		rng.Read(data)
		r := treeBytes(data)
		class, hier := r.target()
		pred := r.tree(db.Path(), pool, 3)
		want := naiveUnion(t, db, pred, class, hier)
		// Fresh planners hold no observations, so both order every
		// conjunction as declared and their accounting is comparable.
		perPart, whole := partitionedPlanners(t, db)
		before := shardPreds(db)
		wantAnswer(t, "per-part", perPart, pred, class, hier, want)
		mid := shardPreds(db)
		wantAnswer(t, "whole", whole, pred, class, hier, want)
		after := shardPreds(db)

		deep := maxAnds(pred) > 1
		shapes[deep]++
		if got, ref := predCounts(perPart.Predicates()), predCounts(whole.Predicates()); !sameLeaves(got, ref, deep) {
			t.Fatalf("%s for %s: per-part planner recorded %v, whole %v", pred, class, got, ref)
		}
		for i := range before {
			if got, ref := predDelta(mid[i], before[i]), predDelta(after[i], mid[i]); !sameLeaves(got, ref, deep) {
				t.Fatalf("%s for %s: shard %d recorded %v per part, %v whole", pred, class, i, got, ref)
			}
		}
	}
	if shapes[false] == 0 || shapes[true] == 0 {
		t.Fatalf("%d shallow and %d deep trees: the generator lost a shape", shapes[false], shapes[true])
	}
}

// FuzzPartitionedPlan checks the premise per-shard evaluation rests on:
// for any tree and target decoded from the input, evaluating per shard
// and merging once answers as the whole database and naive evaluation do.
func FuzzPartitionedPlan(f *testing.F) {
	db, pool := partitionedDB(f)
	perPart, whole := partitionedPlanners(f, db)
	f.Add([]byte{0, 0, 3})
	f.Add([]byte{1, 1, 0, 2, 4, 9, 10, 2, 0, 5, 0, 1})
	f.Add([]byte{6, 130, 0, 8, 4, 1, 7, 2, 3, 9, 4, 0, 11, 1, 0, 10, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := treeBytes(data)
		class, hier := r.target()
		pred := r.tree(db.Path(), pool, 3)
		want := naiveUnion(t, db, pred, class, hier)
		wantAnswer(t, "per-part", perPart, pred, class, hier, want)
		wantAnswer(t, "whole", whole, pred, class, hier, want)
	})
}

// TestExplainSaysHowAPlanRuns pins Explain's header: a plan run per shard
// says so and how many parts it merges, a plan run once prints the plain
// header, and the plan below the header is the same.
func TestExplainSaysHowAPlanRuns(t *testing.T) {
	db, pool := partitionedDB(t)
	perPart, whole := partitionedPlanners(t, db)
	p := db.Path()
	pred := plan.And(plan.Range(p, pool[0], pool[5]), plan.Or(plan.Eq(p, pool[1]), plan.Eq(p, pool[2])))
	explain := func(pl *plan.Planner) (string, string) {
		qp, err := pl.Plan(pred, "Person", false)
		if err != nil {
			t.Fatal(err)
		}
		head, body, _ := strings.Cut(qp.Explain(), "\n")
		return head, body
	}
	partHead, partBody := explain(perPart)
	wholeHead, wholeBody := explain(whole)
	if want := `plan for "Person" (hierarchy=false), per part ×3, merged once`; partHead != want {
		t.Fatalf("per-part header %q, want %q", partHead, want)
	}
	if want := `plan for "Person" (hierarchy=false)`; wholeHead != want {
		t.Fatalf("whole header %q, want %q", wholeHead, want)
	}
	if partBody != wholeBody {
		t.Fatalf("plans differ below the header:\n%s\n---\n%s", partBody, wholeBody)
	}
}

// countedPart is one part of a database that counts the calls it
// receives.
type countedPart struct {
	plan.Source
	calls int
}

func (p *countedPart) QueryHops(dst []oodb.OID, hops []exec.Hop, within []oodb.OID, class string, hier bool) ([]oodb.OID, int, error) {
	p.calls++
	return p.Source.QueryHops(dst, hops, within, class, hier)
}

// countedDB is the database as a partitioned source whose parts count
// their calls.
type countedDB struct {
	*shard.DB
	parts []*countedPart
}

func (c countedDB) Parts() []plan.Source {
	out := make([]plan.Source, len(c.parts))
	for i, p := range c.parts {
		out[i] = p
	}
	return out
}

// TestGroupedOrCallsEachPartOnce: an Or of same-path leaves, equality
// and range mixed, runs per shard as one probe group — one call of each
// part — and answers as naive evaluation does.
func TestGroupedOrCallsEachPartOnce(t *testing.T) {
	db, pool := partitionedDB(t)
	p := db.Path()
	c := countedDB{DB: db}
	for _, part := range db.Parts() {
		c.parts = append(c.parts, &countedPart{Source: part})
	}
	pl := plan.NewPlanner(nil)
	if err := pl.Register(p, c, nil); err != nil {
		t.Fatal(err)
	}
	pred := plan.Or(plan.Eq(p, pool[0]), plan.Range(p, pool[2], pool[6]), plan.Eq(p, pool[len(pool)-1]), plan.Eq(p, pool[8]))
	for _, tg := range treeTargets {
		for _, part := range c.parts {
			part.calls = 0
		}
		wantAnswer(t, "grouped", pl, pred, tg.class, tg.hier, naiveUnion(t, db, pred, tg.class, tg.hier))
		for i, part := range c.parts {
			if part.calls != 1 {
				t.Fatalf("%s for %s: part %d called %d times, want once", pred, tg.class, i, part.calls)
			}
		}
	}
}
