package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/wal"
)

// The crash-recovery differential gate. Each trial runs a randomized
// Insert/Update/Delete workload through a durable engine whose files sit
// behind fault injectors sharing one write-byte budget — the process "dies"
// mid-write at a random point, possibly inside a checkpoint or an index
// rebuild. The trial then reopens the directory with clean files and
// compares the recovered store, bit for bit (canonical fingerprint, OID
// sequence, object count), against a reference store that applied exactly
// the acknowledged prefix of the workload. An acknowledged operation must
// survive; an unacknowledged one must not half-apply.

// refOp is one acknowledged operation, replayable into a reference store.
type refOp struct {
	kind  byte // 'i', 'u', 'd'
	class string
	oid   oodb.OID
	attrs map[string][]oodb.Value
}

// wlDriver generates a valid randomized workload over a path's schema:
// inserts build the levels bottom-up so references always target live
// objects, updates re-value leaves and re-link references, deletes may
// leave dangling references (the model permits them).
type wlDriver struct {
	rng     *rand.Rand
	path    *schema.Path
	n       int
	vals    []oodb.Value
	byLevel [][]oodb.OID
	level   map[oodb.OID]int
	acked   []refOp
	failed  *refOp // the operation the engine refused, if any
}

func newDriver(p *schema.Path, seed int64) *wlDriver {
	d := &wlDriver{
		rng:     rand.New(rand.NewSource(seed)),
		path:    p,
		n:       p.Len(),
		byLevel: make([][]oodb.OID, p.Len()+2),
		level:   make(map[oodb.OID]int),
	}
	for i := 0; i < 40; i++ {
		d.vals = append(d.vals, oodb.StrV("crash-val-"+string(rune('a'+i%26))+string(rune('0'+i/26))))
	}
	return d
}

func (d *wlDriver) live() int { return len(d.level) }

// pick returns a random element of s.
func pick[T any](rng *rand.Rand, s []T) T { return s[rng.Intn(len(s))] }

// step issues one operation against e, returning the engine's error (a
// non-nil error is the crash; every generated operation is otherwise
// valid). Acknowledged operations are recorded for the reference replay.
func (d *wlDriver) step(e *Engine) error {
	r := d.rng.Float64()
	switch {
	case r < 0.55 || d.live() == 0:
		return d.insert(e)
	case r < 0.82:
		return d.update(e)
	default:
		return d.delete(e)
	}
}

func (d *wlDriver) insert(e *Engine) error {
	levels := []int{d.n}
	for l := d.n - 1; l >= 1; l-- {
		if len(d.byLevel[l+1]) > 0 {
			levels = append(levels, l)
		}
	}
	l := pick(d.rng, levels)
	class := pick(d.rng, d.path.HierarchyAt(l))
	attrs := map[string][]oodb.Value{}
	if l == d.n {
		attrs[d.path.Attr(l)] = []oodb.Value{pick(d.rng, d.vals)}
	} else {
		attrs[d.path.Attr(l)] = []oodb.Value{oodb.RefV(pick(d.rng, d.byLevel[l+1]))}
	}
	oid, err := e.Insert(class, attrs)
	if err != nil {
		d.failed = &refOp{kind: 'i', class: class, oid: oid, attrs: attrs}
		return err
	}
	d.byLevel[l] = append(d.byLevel[l], oid)
	d.level[oid] = l
	d.acked = append(d.acked, refOp{kind: 'i', class: class, oid: oid, attrs: attrs})
	return nil
}

func (d *wlDriver) update(e *Engine) error {
	// Candidates: leaf objects always; reference levels only while their
	// target level still has live objects.
	var cands []oodb.OID
	for l := 1; l <= d.n; l++ {
		if l == d.n || len(d.byLevel[l+1]) > 0 {
			cands = append(cands, d.byLevel[l]...)
		}
	}
	if len(cands) == 0 {
		return d.insert(e)
	}
	oid := pick(d.rng, cands)
	l := d.level[oid]
	attrs := map[string][]oodb.Value{}
	if l == d.n {
		attrs[d.path.Attr(l)] = []oodb.Value{pick(d.rng, d.vals)}
	} else {
		attrs[d.path.Attr(l)] = []oodb.Value{oodb.RefV(pick(d.rng, d.byLevel[l+1]))}
	}
	if err := e.Update(oid, attrs); err != nil {
		d.failed = &refOp{kind: 'u', oid: oid, attrs: attrs}
		return err
	}
	d.acked = append(d.acked, refOp{kind: 'u', oid: oid, attrs: attrs})
	return nil
}

func (d *wlDriver) delete(e *Engine) error {
	var cands []oodb.OID
	for l := 1; l <= d.n; l++ {
		cands = append(cands, d.byLevel[l]...)
	}
	if len(cands) == 0 {
		return d.insert(e)
	}
	oid := pick(d.rng, cands)
	if err := e.Delete(oid); err != nil {
		d.failed = &refOp{kind: 'd', oid: oid}
		return err
	}
	l := d.level[oid]
	for i, o := range d.byLevel[l] {
		if o == oid {
			d.byLevel[l] = append(d.byLevel[l][:i], d.byLevel[l][i+1:]...)
			break
		}
	}
	delete(d.level, oid)
	d.acked = append(d.acked, refOp{kind: 'd', oid: oid})
	return nil
}

// applyRef replays acknowledged operations into a fresh reference store.
// Inserts must mint the same OIDs the engine did — both sides walk the
// same sequence.
func applyRef(t *testing.T, s *schema.Schema, pageSize int, acked []refOp) *oodb.Store {
	t.Helper()
	st, err := oodb.NewStore(s, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range acked {
		switch op.kind {
		case 'i':
			oid, err := st.Insert(op.class, op.attrs)
			if err != nil {
				t.Fatalf("reference op %d: %v", i, err)
			}
			if oid != op.oid {
				t.Fatalf("reference op %d minted OID %d, engine minted %d", i, oid, op.oid)
			}
		case 'u':
			if _, _, err := st.Update(op.oid, op.attrs); err != nil {
				t.Fatalf("reference op %d: %v", i, err)
			}
		case 'd':
			if err := st.Delete(op.oid); err != nil {
				t.Fatalf("reference op %d: %v", i, err)
			}
		}
	}
	return st
}

// faultOpen returns an OpenFile putting every file of the engine behind a
// FaultFile sharing one crash budget.
func faultOpen(budget *storage.CrashBudget) func(string) (storage.File, error) {
	return func(path string) (storage.File, error) {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		ff := storage.NewFaultFile(f)
		ff.Budget = budget
		return ff, nil
	}
}

// assertRecovered compares a recovered engine against the reference store
// applying exactly the acknowledged prefix.
func assertRecovered(t *testing.T, trial int, e *Engine, ref *oodb.Store) {
	t.Helper()
	st := e.Store()
	if got, want := st.Len(), ref.Len(); got != want {
		t.Fatalf("trial %d: recovered %d objects, reference has %d", trial, got, want)
	}
	gn, gs := st.OIDSeq()
	wn, ws := ref.OIDSeq()
	if gn != wn || gs != ws {
		t.Fatalf("trial %d: recovered OID sequence (%d,%d), reference (%d,%d)", trial, gn, gs, wn, ws)
	}
	if got, want := st.Fingerprint(), ref.Fingerprint(); got != want {
		t.Fatalf("trial %d: recovered fingerprint %x, reference %x (%d acked ops)", trial, got, want, ref.Len())
	}
}

// assertIndexesConsistent checks the rebuilt indexes answer like a naive
// scan of the recovered store, for a sample of values.
func assertIndexesConsistent(t *testing.T, trial int, e *Engine, vals []oodb.Value) {
	t.Helper()
	p := e.Path()
	root := p.HierarchyAt(1)[0]
	for _, v := range vals {
		got, err := e.Query(v, root, true)
		if err != nil {
			t.Fatalf("trial %d: query: %v", trial, err)
		}
		want, err := exec.NaiveQuery(e.Store(), p, v, root, true)
		if err != nil {
			t.Fatalf("trial %d: naive: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: rebuilt index answers %v, store holds %v", trial, got, want)
		}
	}
}

func TestCrashRecoveryDifferential(t *testing.T) {
	trials := 220
	if testing.Short() {
		trials = 36
	}
	ps := model.Figure7Stats()
	p := ps.Path
	s := p.Schema()
	const pageSize = 1024

	var killedAfterAck int
	defer func() { t.Logf("%d of %d trials killed after at least one acknowledged op", killedAfterAck, trials) }()
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		dir := filepath.Join(t.TempDir(), "db")
		budget := storage.NewCrashBudget(int64(20 + rng.Intn(12000)))
		opts := DurableOptions{
			Policy:          wal.SyncAlways,
			CheckpointBytes: 2048, // frequent checkpoints: kill points land inside them
			PoolPages:       8,    // force evictions: page write-backs spend budget too
			OpenFile:        faultOpen(budget),
		}
		d := newDriver(p, int64(trial))

		e, err := OpenDurable(dir, s, p, cfgSplit, pageSize, opts)
		if err == nil {
			maxOps := 150 + rng.Intn(250)
			for i := 0; i < maxOps; i++ {
				if err = d.step(e); err != nil {
					break
				}
				// A third of the trials swap configurations mid-workload,
				// so kills land inside the rebuild-and-checkpoint of
				// ApplyConfiguration; another quarter checkpoint manually.
				if err == nil && trial%3 == 0 && i > 0 && i%60 == 0 {
					cfg := cfgWhole
					if e.Config().Equal(cfgWhole) {
						cfg = cfgSplit
					}
					if _, err = e.ApplyConfiguration(cfg); err != nil {
						break
					}
				}
				if err == nil && trial%4 == 1 && i > 0 && i%50 == 0 {
					if err = e.Checkpoint(); err != nil {
						break
					}
				}
			}
			if err == nil {
				err = e.Close() // may itself die mid-checkpoint
			}
			if err != nil && !errors.Is(err, storage.ErrCrashed) {
				t.Fatalf("trial %d: workload failed with a non-crash error: %v", trial, err)
			}
		} else if !errors.Is(err, storage.ErrCrashed) {
			t.Fatalf("trial %d: open failed with a non-crash error: %v", trial, err)
		}
		if budget.Crashed() && len(d.acked) > 0 {
			killedAfterAck++
		}

		// Recover with clean files and compare against the acknowledged
		// prefix.
		e2, err := OpenDurable(dir, s, p, cfgSplit, pageSize, DurableOptions{Policy: wal.SyncAlways})
		if err != nil {
			t.Fatalf("trial %d: recovery failed: %v (budget crashed: %v, %d acked)", trial, err, budget.Crashed(), len(d.acked))
		}
		ref := applyRef(t, s, pageSize, d.acked)
		assertRecovered(t, trial, e2, ref)
		if trial%10 == 0 {
			assertIndexesConsistent(t, trial, e2, d.vals[:5])
		}
		if err := e2.Close(); err != nil {
			t.Fatalf("trial %d: closing recovered engine: %v", trial, err)
		}
	}
}

// TestCrashRecoveryCorruptTail pins the torn-tail contract directly: a
// corrupted final WAL record is truncated, never replayed — recovery
// lands on the longest clean prefix — and trailing garbage after valid
// records is discarded without losing any of them.
func TestCrashRecoveryCorruptTail(t *testing.T) {
	ps := model.Figure7Stats()
	p := ps.Path
	s := p.Schema()
	const pageSize = 1024

	for trial := 0; trial < 8; trial++ {
		dir := filepath.Join(t.TempDir(), "db")
		// Huge checkpoint threshold: everything stays in the WAL.
		opts := DurableOptions{Policy: wal.SyncAlways, CheckpointBytes: 1 << 30}
		e, err := OpenDurable(dir, s, p, cfgSplit, pageSize, opts)
		if err != nil {
			t.Fatal(err)
		}
		d := newDriver(p, int64(100+trial))
		for i := 0; i < 80; i++ {
			if err := d.step(e); err != nil {
				t.Fatalf("trial %d: op %d: %v", trial, i, err)
			}
		}
		// Abandon without Close: the WAL holds every acked op. The file
		// runs past the log (it is extended ahead of the appends), so the
		// tail is damaged at the log's end.
		end := e.WALSize()

		walPath := filepath.Join(dir, "wal.log")
		raw, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		acked := d.acked
		if trial%2 == 0 {
			// Flip a byte in the final record's payload: recovery must
			// truncate exactly that record.
			raw[end-1] ^= 0xff
			acked = acked[:len(acked)-1]
		} else {
			// Append garbage: recovery must keep every record and drop
			// the garbage.
			raw = append(raw[:end], 0xde, 0xad, 0xbe, 0xef, 0x01)
		}
		if err := os.WriteFile(walPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		e2, err := OpenDurable(dir, s, p, cfgSplit, pageSize, opts)
		if err != nil {
			t.Fatalf("trial %d: recovery over corrupt tail: %v", trial, err)
		}
		if got, want := int(e2.Replayed()), len(acked); got != want {
			t.Fatalf("trial %d: replayed %d records, want %d", trial, got, want)
		}
		ref := applyRef(t, s, pageSize, acked)
		assertRecovered(t, trial, e2, ref)
		if err := e2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashRecoveryConcurrent: four writers, each on its own objects,
// commit through one durable engine at once — their records appended
// under writeMu, their fsyncs outside it and shared — until a crash
// budget over all the engine's files kills the process. One trial in
// three also swaps configurations mid-run, so kills land in checkpoints
// that race in-flight commits. After a clean reopen every acknowledged
// write is present, or superseded by the one later write of the same
// writer that the crash interrupted; nothing else appears.
func TestCrashRecoveryConcurrent(t *testing.T) {
	const writers, pageSize = 4, 1024
	trials := 40
	if testing.Short() {
		trials = 10
	}
	ps := model.Figure7Stats()
	p := ps.Path
	s := p.Schema()

	var killedAfterAck int
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		dir := filepath.Join(t.TempDir(), "db")
		budget := storage.NewCrashBudget(int64(2000 + rng.Intn(30000)))
		opts := DurableOptions{
			Policy:          wal.SyncAlways,
			CheckpointBytes: 2048,
			PoolPages:       8,
			OpenFile:        faultOpen(budget),
		}
		e, err := OpenDurable(dir, s, p, cfgSplit, pageSize, opts)
		if err != nil {
			if !errors.Is(err, storage.ErrCrashed) {
				t.Fatalf("trial %d: open failed with a non-crash error: %v", trial, err)
			}
			continue
		}
		maxOps := 100 + rng.Intn(150)
		drivers := make([]*wlDriver, writers)
		errs := make([]error, writers)
		var wg sync.WaitGroup
		for w := range drivers {
			drivers[w] = newDriver(p, int64(trial*writers+w))
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				d := drivers[w]
				for i := 0; i < maxOps && errs[w] == nil; i++ {
					errs[w] = d.step(e)
					if errs[w] == nil && w == 0 && trial%3 == 0 && i > 0 && i%40 == 0 {
						cfg := cfgWhole
						if e.Config().Equal(cfgWhole) {
							cfg = cfgSplit
						}
						_, errs[w] = e.ApplyConfiguration(cfg)
					}
				}
			}(w)
		}
		wg.Wait()
		acked := 0
		for w, err := range errs {
			if err != nil && !errors.Is(err, storage.ErrCrashed) {
				t.Fatalf("trial %d: writer %d failed with a non-crash error: %v", trial, w, err)
			}
			acked += len(drivers[w].acked)
		}
		if !budget.Crashed() {
			if err := e.Close(); err != nil && !errors.Is(err, storage.ErrCrashed) {
				t.Fatalf("trial %d: close: %v", trial, err)
			}
		}
		if budget.Crashed() && acked > 0 {
			killedAfterAck++
		}

		e2, err := OpenDurable(dir, s, p, cfgSplit, pageSize, DurableOptions{Policy: wal.SyncAlways})
		if err != nil {
			t.Fatalf("trial %d: recovery failed: %v", trial, err)
		}
		assertConcurrentRecovered(t, trial, e2.Store(), drivers)
		if trial%10 == 0 {
			assertIndexesConsistent(t, trial, e2, drivers[0].vals[:5])
		}
		if err := e2.Close(); err != nil {
			t.Fatalf("trial %d: closing recovered engine: %v", trial, err)
		}
	}
	t.Logf("%d of %d trials killed after at least one acknowledged op", killedAfterAck, trials)
	if killedAfterAck < trials/2 {
		t.Fatalf("only %d of %d kills landed inside the workload", killedAfterAck, trials)
	}
}

// objState is what an object's path attribute holds after a sequence of
// operations; nil attrs means deleted.
type objState struct {
	class string
	attrs map[string][]oodb.Value
}

func (o objState) matches(got *oodb.Object, ok bool) bool {
	if o.attrs == nil || !ok {
		return o.attrs == nil && !ok
	}
	if got.Class != o.class {
		return false
	}
	for a, vals := range o.attrs {
		if !oodb.ValuesEqual(got.Values(a), vals) {
			return false
		}
	}
	return true
}

// assertConcurrentRecovered checks a store recovered after a concurrent
// crash: each writer's acknowledged operations are replayed into the
// state every object it wrote must hold, and the writer's interrupted
// operation, if any, gives the one alternative its object may hold.
func assertConcurrentRecovered(t *testing.T, trial int, st *oodb.Store, drivers []*wlDriver) {
	t.Helper()
	want := map[oodb.OID]objState{}
	alt := map[oodb.OID]objState{}
	apply := func(into map[oodb.OID]objState, op refOp) {
		switch op.kind {
		case 'i':
			into[op.oid] = objState{class: op.class, attrs: op.attrs}
		case 'u':
			into[op.oid] = objState{class: want[op.oid].class, attrs: op.attrs}
		case 'd':
			into[op.oid] = objState{}
		}
	}
	for _, d := range drivers {
		for _, op := range d.acked {
			apply(want, op)
		}
	}
	for _, d := range drivers {
		if f := d.failed; f != nil && f.oid != 0 {
			apply(alt, *f)
		}
	}
	for oid, w := range want {
		got, ok := st.Peek(oid)
		if w.matches(got, ok) {
			continue
		}
		if a, interrupted := alt[oid]; interrupted && a.matches(got, ok) {
			continue
		}
		t.Fatalf("trial %d: object %d recovered as %v (present %v), acknowledged %v", trial, oid, got, ok, w.attrs)
	}
	err := st.Objects(func(o *oodb.Object) error {
		if _, known := want[o.OID]; known {
			return nil
		}
		if a, interrupted := alt[o.OID]; interrupted && a.matches(o, true) {
			return nil
		}
		return fmt.Errorf("object %d (%s) was never written", o.OID, o.Class)
	})
	if err != nil {
		t.Fatalf("trial %d: %v", trial, err)
	}
}
