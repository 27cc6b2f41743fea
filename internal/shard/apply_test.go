package shard_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/shard"
)

// The stream below is internal/exec's (apply_test.go), over exec.Write.

// writeStream draws seeded batches of mixed writes over
// Person.owns.man.divs.name: inserts at every level, each referencing a
// live object of the next level, re-links and renames, deletes, missing
// OIDs, and an object updated then deleted, or updated twice, within one
// batch.
type writeStream struct {
	rng   *rand.Rand
	live  map[string][]oodb.OID // by class
	names []oodb.Value          // the ending values renames draw from
}

// links names each referencing class's path attribute and the classes
// it may point at.
var links = map[string]struct {
	attr string
	to   []string
}{
	"Person":  {"owns", []string{"Vehicle", "Bus", "Truck"}},
	"Vehicle": {"man", []string{"Company"}},
	"Bus":     {"man", []string{"Company"}},
	"Truck":   {"man", []string{"Company"}},
	"Company": {"divs", []string{"Division"}},
}

var writeClasses = []string{"Person", "Vehicle", "Bus", "Truck", "Company", "Division"}

func (s *writeStream) pick(classes ...string) (oodb.OID, bool) {
	pool := s.live[classes[s.rng.Intn(len(classes))]]
	if len(pool) == 0 {
		return 0, false
	}
	return pool[s.rng.Intn(len(pool))], true
}

// attrs draws class's path attribute: a reference to a live object of
// the next level (none when there is none), or a Division's name.
func (s *writeStream) attrs(class string) map[string][]oodb.Value {
	if l, ok := links[class]; ok {
		if oid, ok := s.pick(l.to...); ok {
			return map[string][]oodb.Value{l.attr: {oodb.RefV(oid)}}
		}
		return nil
	}
	return map[string][]oodb.Value{"name": {s.names[s.rng.Intn(len(s.names))]}}
}

func (s *writeStream) batch(n int) []exec.Write {
	var ws []exec.Write
	for len(ws) < n {
		cls := writeClasses[s.rng.Intn(len(writeClasses))]
		oid, ok := s.pick(cls)
		switch r := s.rng.Intn(10); {
		case r < 3 || !ok:
			ws = append(ws, exec.Write{Kind: exec.WriteInsert, Class: cls, Attrs: s.attrs(cls)})
		case r == 3:
			ws = append(ws, exec.Write{Kind: exec.WriteDelete, OID: oid})
		case r == 4:
			ws = append(ws, exec.Write{OID: 1 << 40, Attrs: s.attrs(cls)}, exec.Write{Kind: exec.WriteDelete, OID: 1<<40 + 1})
		case r == 5:
			ws = append(ws, exec.Write{OID: oid, Attrs: s.attrs(cls)}, exec.Write{Kind: exec.WriteDelete, OID: oid})
		case r == 6:
			ws = append(ws, exec.Write{OID: oid, Attrs: s.attrs(cls)}, exec.Write{OID: oid, Attrs: s.attrs(cls)})
		default:
			ws = append(ws, exec.Write{OID: oid, Attrs: s.attrs(cls)})
		}
	}
	return ws
}

// settle takes an applied batch's inserts and deletes into the live set.
func (s *writeStream) settle(ws []exec.Write, errs []error) {
	for i, w := range ws {
		switch {
		case errs[i] != nil:
		case w.Kind == exec.WriteInsert:
			s.live[w.Class] = append(s.live[w.Class], w.OID)
		case w.Kind == exec.WriteDelete:
			for cls, pool := range s.live {
				s.live[cls] = slices.DeleteFunc(pool, func(o oodb.OID) bool { return o == w.OID })
			}
		}
	}
}

func newWriteStream(seed int64) *writeStream {
	s := &writeStream{rng: rand.New(rand.NewSource(seed)), live: map[string][]oodb.OID{}}
	for i := 0; i < 8; i++ {
		s.names = append(s.names, oodb.StrV(fmt.Sprintf("v%d", i)))
	}
	return s
}

// sameOutcome fails unless entry i failed or succeeded alike on both
// sides, with the same OID.
func sameOutcome(t *testing.T, b, i int, w, twin exec.Write, err, twinErr error) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(twinErr) || w.OID != twin.OID {
		t.Fatalf("batch %d entry %d %+v: batch (%d, %v), one by one (%d, %v)", b, i, w, w.OID, err, twin.OID, twinErr)
	}
}

// TestApplyMatchesOneByOne sends a seeded stream of mixed write batches
// through Apply and, one entry at a time, through a twin's single-entry
// path — on a durable engine against an in-memory twin, and on three
// shards against three. Every entry must fail or succeed alike, every
// insert get the same OID, and the final states be equal: the durable
// engine's after a close and reopen, with no batch condemning it; the
// shards' store by store and query by query.
func TestApplyMatchesOneByOne(t *testing.T) {
	s, p := schema.PaperSchema(), schema.PaperPathOwnsManDivsName()
	cfg := core.Configuration{Assignments: []core.Assignment{{A: 1, B: 2, Org: cost.NIX}, {A: 3, B: 4, Org: cost.MX}}}
	t.Run("durable-engine", func(t *testing.T) {
		dir := t.TempDir()
		e, err := engine.OpenDurable(dir, s, p, cfg, 1024, engine.DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := oodb.NewStore(s, 1024)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := engine.New(st, p, cfg, 1024, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		one := func(w exec.Write) (oodb.OID, error) {
			switch w.Kind {
			case exec.WriteInsert:
				return twin.Insert(w.Class, w.Attrs)
			case exec.WriteDelete:
				return w.OID, twin.Delete(w.OID)
			}
			return w.OID, twin.Update(w.OID, w.Attrs)
		}
		ws := newWriteStream(7)
		for b := 0; b < 80; b++ {
			batch := ws.batch(1 + ws.rng.Intn(12))
			orig := slices.Clone(batch)
			errs := e.Apply(batch)
			if err := e.DurabilityErr(); err != nil {
				t.Fatalf("batch %d %+v condemned the engine: %v", b, orig, err)
			}
			for i, w := range orig {
				var err error
				w.OID, err = one(w)
				sameOutcome(t, b, i, batch[i], w, errs[i], err)
			}
			ws.settle(batch, errs)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		e, err = engine.OpenDurable(dir, s, p, cfg, 1024, engine.DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if e.Store().Len() == 0 || e.Store().Fingerprint() != st.Fingerprint() {
			t.Fatalf("reopened store (%d objects) differs from the one-by-one twin's (%d)", e.Store().Len(), st.Len())
		}
	})
	t.Run("3-shards", func(t *testing.T) {
		open := func() *shard.DB {
			db, err := shard.New(s, p, cfg, 1024, 3, shard.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return db
		}
		db, twin := open(), open()
		ws := newWriteStream(11)
		crossed := 0
		for b := 0; b < 80; b++ {
			batch := ws.batch(1 + ws.rng.Intn(12))
			orig := slices.Clone(batch)
			errs := db.Apply(batch)
			for i := range orig {
				err := twin.Apply(orig[i : i+1])[0]
				sameOutcome(t, b, i, batch[i], orig[i], errs[i], err)
				if errors.Is(err, shard.ErrCrossShard) {
					crossed++
				}
			}
			ws.settle(batch, errs)
		}
		if crossed == 0 {
			t.Fatal("no entry tried to cross shards")
		}
		for i := 0; i < 3; i++ {
			if db.Store(i).Fingerprint() != twin.Store(i).Fingerprint() {
				t.Fatalf("shard %d: batch and one-by-one stores diverged", i)
			}
		}
		for _, v := range ws.names {
			for _, class := range []string{"Person", "Vehicle", "Company", "Division"} {
				got, err := db.Query(v, class, true)
				if err != nil {
					t.Fatal(err)
				}
				want, err := twin.Query(v, class, true)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("Query(%v, %s): batch %v, one by one %v", v, class, got, want)
				}
			}
		}
	})
}
