package engine

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/wal"
)

func openTestDurable(t *testing.T, dir string, opts DurableOptions) *Engine {
	t.Helper()
	ps := model.Figure7Stats()
	e, err := OpenDurable(dir, ps.Path.Schema(), ps.Path, cfgSplit, 1024, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDurableReopenCounts is the reopen-and-count contract after a clean
// shutdown: object count, OID sequence, logical fingerprint and index
// probe results all survive, and the close-time checkpoint leaves nothing
// to replay.
func TestDurableReopenCounts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e := openTestDurable(t, dir, DurableOptions{})
	d := newDriver(e.Path(), 1)
	for i := 0; i < 200; i++ {
		if err := d.step(e); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	wantLen := e.Store().Len()
	wantFP := e.Store().Fingerprint()
	wantNext, wantStride := e.Store().OIDSeq()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openTestDurable(t, dir, DurableOptions{})
	defer e2.Close()
	if got := e2.Replayed(); got != 0 {
		t.Fatalf("clean close left %d WAL records to replay", got)
	}
	if got := e2.Store().Len(); got != wantLen {
		t.Fatalf("reopened with %d objects, want %d", got, wantLen)
	}
	if next, stride := e2.Store().OIDSeq(); next != wantNext || stride != wantStride {
		t.Fatalf("reopened OID sequence (%d,%d), want (%d,%d)", next, stride, wantNext, wantStride)
	}
	if got := e2.Store().Fingerprint(); got != wantFP {
		t.Fatalf("reopened fingerprint %x, want %x", got, wantFP)
	}
	assertIndexesConsistent(t, 0, e2, d.vals[:5])

	// The OID sequence must actually continue, not restart: a fresh insert
	// mints past everything recovered.
	oid, err := e2.Insert(e2.Path().HierarchyAt(e2.Path().Len())[0],
		map[string][]oodb.Value{e2.Path().Attr(e2.Path().Len()): {d.vals[0]}})
	if err != nil {
		t.Fatal(err)
	}
	if oid != wantNext {
		t.Fatalf("post-recovery insert minted OID %d, want %d", oid, wantNext)
	}
}

// TestDurableReopenWithoutClose is the same contract when the process
// simply vanishes (no Close, no checkpoint): the WAL alone carries the
// state back.
func TestDurableReopenWithoutClose(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e := openTestDurable(t, dir, DurableOptions{CheckpointBytes: -1})
	d := newDriver(e.Path(), 2)
	for i := 0; i < 150; i++ {
		if err := d.step(e); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	wantFP := e.Store().Fingerprint()
	// No Close: abandon the engine, as a kill would.

	e2 := openTestDurable(t, dir, DurableOptions{})
	defer e2.Close()
	if got, want := int(e2.Replayed()), len(d.acked); got != want {
		t.Fatalf("replayed %d WAL records, want %d", got, want)
	}
	if got := e2.Store().Fingerprint(); got != wantFP {
		t.Fatalf("recovered fingerprint %x, want %x", got, wantFP)
	}
}

// TestDurableConfigSurvivesReopen pins that ApplyConfiguration's
// checkpoint persists the new configuration: the reopened engine runs the
// swapped-to configuration even though the caller passed the original.
func TestDurableConfigSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e := openTestDurable(t, dir, DurableOptions{})
	d := newDriver(e.Path(), 3)
	for i := 0; i < 60; i++ {
		if err := d.step(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.ApplyConfiguration(cfgWhole); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openTestDurable(t, dir, DurableOptions{}) // passes cfgSplit
	defer e2.Close()
	if !e2.Config().Equal(cfgWhole) {
		t.Fatalf("reopened with config %v, want the applied %v", e2.Config(), cfgWhole)
	}
}

// TestDurableCheckpointTruncatesWAL drives enough traffic through a small
// checkpoint threshold that automatic checkpoints fire and keep the log
// bounded.
func TestDurableCheckpointTruncatesWAL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e := openTestDurable(t, dir, DurableOptions{CheckpointBytes: 1024})
	defer e.Close()
	d := newDriver(e.Path(), 4)
	for i := 0; i < 300; i++ {
		if err := d.step(e); err != nil {
			t.Fatal(err)
		}
	}
	if e.Checkpoints() == 0 {
		t.Fatal("no automatic checkpoint fired")
	}
	if sz := e.WALSize(); sz > 4096 {
		t.Fatalf("WAL grew to %d bytes despite a 1 KiB checkpoint threshold", sz)
	}
	if fi, err := os.Stat(filepath.Join(dir, "snap.ckpt")); err != nil || fi.Size() == 0 {
		t.Fatalf("checkpoint snapshot missing or empty (err=%v)", err)
	}
}

// TestDurableGeometryMismatchRejected: reopening with a different page
// size or OID sequence is refused rather than silently misread.
func TestDurableGeometryMismatchRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e := openTestDurable(t, dir, DurableOptions{})
	d := newDriver(e.Path(), 5)
	for i := 0; i < 10; i++ {
		if err := d.step(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	ps := model.Figure7Stats()
	if _, err := OpenDurable(dir, ps.Path.Schema(), ps.Path, cfgSplit, 2048, DurableOptions{}); err == nil {
		t.Fatal("page-size mismatch not rejected")
	}
	if _, err := OpenDurable(dir, ps.Path.Schema(), ps.Path, cfgSplit, 1024, DurableOptions{FirstOID: 2, OIDStride: 4}); err == nil {
		t.Fatal("OID-sequence mismatch not rejected")
	}
}

// TestDurableIOErrorPosture is the I/O-error regression gate: a failed
// WAL fsync fails the operation that needed it, the engine latches the
// error and refuses subsequent writes with it, and reads keep serving the
// in-memory state.
func TestDurableIOErrorPosture(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	var walFault *storage.FaultFile
	opts := DurableOptions{
		Policy: wal.SyncAlways,
		OpenFile: func(path string) (storage.File, error) {
			f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				return nil, err
			}
			if filepath.Base(path) == "wal.log" {
				walFault = storage.NewFaultFile(f)
				return walFault, nil
			}
			return storage.NewFaultFile(f), nil
		},
	}
	e := openTestDurable(t, dir, opts)
	d := newDriver(e.Path(), 6)
	for i := 0; i < 20; i++ {
		if err := d.step(e); err != nil {
			t.Fatal(err)
		}
	}

	// Arm: the next WAL fsync fails.
	walFault.FailSync = walFault.Syncs() + 1
	leaf := e.Path().HierarchyAt(e.Path().Len())[0]
	attr := e.Path().Attr(e.Path().Len())
	if _, err := e.Insert(leaf, map[string][]oodb.Value{attr: {d.vals[0]}}); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("insert over failed fsync returned %v, want ErrInjected", err)
	}
	if err := e.DurabilityErr(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("DurabilityErr = %v, want latched ErrInjected", err)
	}
	// The engine is condemned: later writes refuse with the same error,
	// even though the fault itself was single-shot.
	if _, err := e.Insert(leaf, map[string][]oodb.Value{attr: {d.vals[1]}}); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("write after latched error returned %v, want ErrInjected", err)
	}
	// Reads still serve the coherent in-memory state.
	if _, err := e.Query(d.vals[0], e.Path().HierarchyAt(1)[0], true); err != nil {
		t.Fatalf("read after latched error: %v", err)
	}
}

// TestDurableCondemnedEngineRefusesSwap: an insert whose page write-back
// fails leaves its object half-placed in the store — listed under its
// class, absent from the catalog — so a configuration swap on the
// condemned engine refuses with the latched error rather than bulk-load
// from that store.
func TestDurableCondemnedEngineRefusesSwap(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	var pages *storage.FaultFile
	opts := DurableOptions{
		PoolPages: 2,
		OpenFile: func(path string) (storage.File, error) {
			f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				return nil, err
			}
			ff := storage.NewFaultFile(f)
			if filepath.Base(path) == "pages.db" {
				pages = ff
			}
			return ff, nil
		},
	}
	e := openTestDurable(t, dir, opts)
	pages.FailWrite = pages.Writes() + 1
	d := newDriver(e.Path(), 8)
	var err error
	for i := 0; i < 500 && err == nil; i++ {
		err = d.insert(e)
	}
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("inserts over a failed page write returned %v, want ErrInjected", err)
	}
	if _, err := e.ApplyConfiguration(cfgWhole); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("swap on a condemned engine returned %v, want ErrInjected", err)
	}
	if !e.Config().Equal(cfgSplit) {
		t.Fatalf("condemned engine swapped to %v", e.Config())
	}
}

// TestDurabilityStatsCarryDurabilityCost: DurabilityStats is where the
// durability cost of the traffic — fsyncs and WAL bytes — is read.
func TestDurabilityStatsCarryDurabilityCost(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e := openTestDurable(t, dir, DurableOptions{Policy: wal.SyncAlways})
	defer e.Close()
	d := newDriver(e.Path(), 7)
	for i := 0; i < 50; i++ {
		if err := d.step(e); err != nil {
			t.Fatal(err)
		}
	}
	if ds := e.DurabilityStats(); ds.Fsyncs == 0 || ds.WALBytes == 0 {
		t.Fatalf("durability stats report fsyncs=%d walBytes=%d, want both positive", ds.Fsyncs, ds.WALBytes)
	}
}

// TestDurablePredicateMixSurvivesReopen pins the persistence of the
// observed predicate mix: the residual/range counts that feed the
// selection loop (stats.MergeObserved's predicate refinements) must
// survive Close → OpenDurable, because residual leaves never reach the
// class recorder and would otherwise vanish from the feedback loop on
// every restart.
func TestDurablePredicateMixSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e := openTestDurable(t, dir, DurableOptions{})
	pathName := e.Path().String()
	for i := 0; i < 40; i++ {
		e.RecordPredicate(pathName, stats.PredEq)
	}
	for i := 0; i < 25; i++ {
		e.RecordPredicate(pathName, stats.PredRange)
	}
	for i := 0; i < 90; i++ {
		e.RecordPredicate(pathName, stats.PredResidual)
	}
	e.RecordPredicate("other.path", stats.PredResidual)
	want := e.WorkloadSnapshot().Predicates
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openTestDurable(t, dir, DurableOptions{})
	got := e2.WorkloadSnapshot().Predicates
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened predicate mix %+v, want %+v", got, want)
	}
	// The restored counts are live evidence, not an archive: recording
	// continues on top of them.
	e2.RecordPredicate(pathName, stats.PredResidual)
	after := e2.WorkloadSnapshot().Predicates
	var res, wantRes uint64
	for _, p := range after {
		if p.Path == pathName {
			res = p.Residual
		}
	}
	for _, p := range want {
		if p.Path == pathName {
			wantRes = p.Residual
		}
	}
	if res != wantRes+1 {
		t.Fatalf("post-reopen residual count %d, want %d", res, wantRes+1)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	// A second reopen must carry the accumulated mix — the close-time
	// checkpoint re-persists what recording added.
	e3 := openTestDurable(t, dir, DurableOptions{})
	defer e3.Close()
	if got := e3.WorkloadSnapshot().Predicates; !reflect.DeepEqual(got, after) {
		t.Fatalf("second reopen predicate mix %+v, want %+v", got, after)
	}
}

// TestDurableValueCountLimit: the codec writes an attribute's value count
// in 16 bits, so a write of 65,536 values is refused with the limit's
// error instead of being acknowledged and logged wrapped — a record no
// later open could replay.
func TestDurableValueCountLimit(t *testing.T) {
	s := schema.New()
	s.MustAddClass(&schema.Class{Name: "Doc", Attrs: []schema.Attribute{
		{Name: "tags", Kind: schema.Atomic, Domain: "string", MultiValued: true},
	}})
	p := schema.MustNewPath(s, "Doc", "tags")
	cfg := core.Configuration{Assignments: []core.Assignment{{A: 1, B: 1, Org: cost.MX}}}
	dir := filepath.Join(t.TempDir(), "db")
	open := func() *Engine {
		e, err := OpenDurable(dir, s, p, cfg, 1024, DurableOptions{CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := open()
	oid, err := e.Insert("Doc", map[string][]oodb.Value{"tags": {oodb.StrV("a")}})
	if err != nil {
		t.Fatal(err)
	}
	tags := make([]oodb.Value, 1<<16)
	for i := range tags {
		tags[i] = oodb.StrV("t")
	}
	if _, err := e.Insert("Doc", map[string][]oodb.Value{"tags": tags}); err == nil || !strings.Contains(err.Error(), "65535") {
		t.Fatalf("insert of %d values: %v, want the limit's error", len(tags), err)
	}
	if err := e.Update(oid, map[string][]oodb.Value{"tags": tags}); err == nil || !strings.Contains(err.Error(), "65535") {
		t.Fatalf("update to %d values: %v, want the limit's error", len(tags), err)
	}
	// Abandoned without Close: the reopen replays the log.
	e2 := open()
	defer e2.Close()
	if got := e2.Store().Len(); got != 1 {
		t.Fatalf("reopened with %d objects, want 1", got)
	}
}

// pagesFaultSeam is an OpenFile seam that puts every file behind a
// FaultFile and hands the test pages.db's.
func pagesFaultSeam(pages **storage.FaultFile) func(string) (storage.File, error) {
	return func(path string) (storage.File, error) {
		ff, err := storage.OpenFaultFile(path)
		if err == nil && filepath.Base(path) == pagesName {
			*pages = ff
		}
		return ff, err
	}
}

// TestDurableCheckpointLeavesPagesAlone: no recovery reads pages.db, so a
// checkpoint neither writes nor fsyncs it — a dirty resident page waits
// for its eviction — and a reopen recovers the same store from snap.ckpt
// and wal.log alone.
func TestDurableCheckpointLeavesPagesAlone(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	var pages *storage.FaultFile
	e := openTestDurable(t, dir, DurableOptions{PoolPages: 4, OpenFile: pagesFaultSeam(&pages)})
	d := newDriver(e.Path(), 9)
	for i := 0; i < 200; i++ {
		if err := d.step(e); err != nil {
			t.Fatal(err)
		}
	}
	// An insert leaves the page it wrote resident and dirty.
	if err := d.insert(e); err != nil {
		t.Fatal(err)
	}
	writes, syncs := pages.Writes(), pages.Syncs()
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if pages.Writes() != writes || pages.Syncs() != syncs {
		t.Fatalf("checkpoint wrote %d and fsynced %d times to pages.db, want 0 and 0",
			pages.Writes()-writes, pages.Syncs()-syncs)
	}
	want := e.Store().Fingerprint()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTestDurable(t, dir, DurableOptions{PoolPages: 4})
	defer r.Close()
	if got := r.Store().Fingerprint(); got != want {
		t.Fatalf("reopened fingerprint %x, want %x", got, want)
	}
}

// TestDurableCondemnedEngineRefusesCheckpoint: a page write-back can fail
// outside any write — an eviction while a read pages an object in — and
// latch in the pager alone. The engine is condemned all the same, so
// Checkpoint and Close return that error and leave snap.ckpt and wal.log
// byte for byte as they were.
func TestDurableCondemnedEngineRefusesCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	var pages *storage.FaultFile
	e := openTestDurable(t, dir, DurableOptions{PoolPages: 2, OpenFile: pagesFaultSeam(&pages)})
	d := newDriver(e.Path(), 8)
	for i := 0; i < 100; i++ {
		if err := d.insert(e); err != nil {
			t.Fatal(err)
		}
	}
	pages.FailWrite = pages.Writes() + 1
	for oid := range d.level {
		e.Store().Get(oid) //nolint:errcheck // the latched error is read below
		if e.DurabilityErr() != nil {
			break
		}
	}
	if err := e.DurabilityErr(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("DurabilityErr = %v after reads over a failed write-back, want ErrInjected", err)
	}
	e.writeMu.Lock()
	werr := e.dur.err
	e.writeMu.Unlock()
	if werr != nil {
		t.Fatalf("the write path latched %v; the failure must be the pager's alone", werr)
	}
	read := func() (snap, log []byte) {
		var err error
		if snap, err = os.ReadFile(filepath.Join(dir, snapName)); err != nil {
			t.Fatal(err)
		}
		if log, err = os.ReadFile(filepath.Join(dir, walName)); err != nil {
			t.Fatal(err)
		}
		return snap, log
	}
	snap, log := read()
	ckpts := e.Checkpoints()
	if err := e.Checkpoint(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("Checkpoint on a condemned engine returned %v, want ErrInjected", err)
	}
	if err := e.Close(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("Close on a condemned engine returned %v, want ErrInjected", err)
	}
	if e.Checkpoints() != ckpts {
		t.Fatalf("a condemned engine completed %d checkpoints", e.Checkpoints()-ckpts)
	}
	if s, l := read(); !bytes.Equal(s, snap) || !bytes.Equal(l, log) {
		t.Fatal("a condemned engine rewrote snap.ckpt or wal.log")
	}
}
