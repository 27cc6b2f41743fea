package shard_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/wal"
)

func openTestDurableDB(t *testing.T, dir string, nShards int) *shard.DB {
	t.Helper()
	s := schema.PaperSchema()
	p := schema.PaperPathOwnsManName()
	db, err := shard.OpenShardedDurable(dir, s, p, wholeNIX(p.Len()), 1024, nShards, engine.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestShardedDurableReopenCounts is the sharded reopen-and-count
// contract: after populating, updating and deleting across shards and
// closing cleanly, a reopen recovers every shard — object counts, OID
// sequences, per-shard fingerprints, fan-out query answers — and fresh
// inserts keep minting in the right residue classes.
func TestShardedDurableReopenCounts(t *testing.T) {
	const nShards = 3
	dir := filepath.Join(t.TempDir(), "db")
	db := openTestDurableDB(t, dir, nShards)
	values := populate(t, db)
	// Churn: one more tree on shard 1, then delete its person so reopen
	// has deletions to carry too.
	co, err := db.InsertAt(1, "Company", map[string][]oodb.Value{"name": {oodb.StrV("churn-co")}})
	if err != nil {
		t.Fatal(err)
	}
	car, err := db.Insert("Vehicle", map[string][]oodb.Value{"man": {oodb.RefV(co)}})
	if err != nil {
		t.Fatal(err)
	}
	vic, err := db.Insert("Person", map[string][]oodb.Value{"owns": {oodb.RefV(car)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Apply([]exec.Write{{Kind: exec.WriteDelete, OID: vic}})[0]; err != nil {
		t.Fatal(err)
	}

	wantLen := db.Len()
	wantFP := make([]uint64, nShards)
	wantNext := make([]oodb.OID, nShards)
	for i := 0; i < nShards; i++ {
		wantFP[i] = db.Store(i).Fingerprint()
		wantNext[i], _ = db.Store(i).OIDSeq()
	}
	wantHits := make([][]oodb.OID, len(values))
	for i, v := range values {
		if wantHits[i], err = db.Query(v, "Person", true); err != nil {
			t.Fatal(err)
		}
		if len(wantHits[i]) == 0 {
			t.Fatalf("no owners found for %v before close", v)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openTestDurableDB(t, dir, nShards)
	defer db2.Close()
	if got := db2.Len(); got != wantLen {
		t.Fatalf("reopened with %d objects, want %d", got, wantLen)
	}
	for i := 0; i < nShards; i++ {
		if got := db2.Shard(i).Replayed(); got != 0 {
			t.Fatalf("shard %d: clean close left %d WAL records", i, got)
		}
		if got := db2.Store(i).Fingerprint(); got != wantFP[i] {
			t.Fatalf("shard %d: fingerprint %x, want %x", i, got, wantFP[i])
		}
		if next, stride := db2.Store(i).OIDSeq(); next != wantNext[i] || stride != nShards {
			t.Fatalf("shard %d: OID sequence (%d,%d), want (%d,%d)", i, next, stride, wantNext[i], nShards)
		}
	}
	for i, v := range values {
		hits, err := db2.Query(v, "Person", true)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(hits) != fmt.Sprint(wantHits[i]) {
			t.Fatalf("query %v after reopen = %v, want %v", v, hits, wantHits[i])
		}
	}
	// The strided sequences continue where they left off.
	for i := 0; i < nShards; i++ {
		oid, err := db2.InsertAt(i, "Company", map[string][]oodb.Value{"name": {oodb.StrV("post")}})
		if err != nil {
			t.Fatal(err)
		}
		if oid != wantNext[i] {
			t.Fatalf("shard %d: post-recovery insert minted %d, want %d", i, oid, wantNext[i])
		}
	}
}

// TestShardedDurableReopenWithoutClose: the per-shard WALs alone carry
// the partitioned state back when the process vanishes.
func TestShardedDurableReopenWithoutClose(t *testing.T) {
	const nShards = 2
	dir := filepath.Join(t.TempDir(), "db")
	db := openTestDurableDB(t, dir, nShards)
	populate(t, db)
	wantLen := db.Len()
	wantFP := []uint64{db.Store(0).Fingerprint(), db.Store(1).Fingerprint()}
	// No Close: abandon, as a kill would.

	db2 := openTestDurableDB(t, dir, nShards)
	defer db2.Close()
	var replayed uint64
	for i := 0; i < nShards; i++ {
		replayed += db2.Shard(i).Replayed()
	}
	if replayed == 0 {
		t.Fatal("no WAL records replayed after an unclean shutdown")
	}
	if got := db2.Len(); got != wantLen {
		t.Fatalf("recovered %d objects, want %d", got, wantLen)
	}
	for i := range wantFP {
		if got := db2.Store(i).Fingerprint(); got != wantFP[i] {
			t.Fatalf("shard %d: recovered fingerprint %x, want %x", i, got, wantFP[i])
		}
	}
}

// TestShardedDurablePredicateMixSurvivesReopen: the planner mix recorded
// through the facade lives in every shard's engine, so each shard's
// checkpoint persists it and Close → OpenShardedDurable keeps it.
func TestShardedDurablePredicateMixSurvivesReopen(t *testing.T) {
	const nShards = 3
	dir := filepath.Join(t.TempDir(), "db")
	db := openTestDurableDB(t, dir, nShards)
	populate(t, db)
	key := db.Path().String()
	for i := 0; i < 5; i++ {
		db.RecordPredicate(key, stats.PredRange)
	}
	db.RecordPredicate(key, stats.PredResidual)
	want := db.WorkloadSnapshot().Predicates
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openTestDurableDB(t, dir, nShards)
	defer db2.Close()
	if got := db2.WorkloadSnapshot().Predicates; !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened fleet predicate mix %+v, want %+v", got, want)
	}
	perShard := []stats.PredLoad{{Path: key, Range: 5, Residual: 1}}
	for i := 0; i < nShards; i++ {
		if got := db2.Shard(i).WorkloadSnapshot().Predicates; !reflect.DeepEqual(got, perShard) {
			t.Fatalf("shard %d reopened with predicate mix %+v, want %+v", i, got, perShard)
		}
	}
}

// TestShardedDurableGeometryMismatchRejected: reopening with a different
// shard count or page size is refused — OID routing depends on both — and
// a refused open creates no shard directory.
func TestShardedDurableGeometryMismatchRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openTestDurableDB(t, dir, 3)
	populate(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	s := schema.PaperSchema()
	p := schema.PaperPathOwnsManName()
	if _, err := shard.OpenShardedDurable(dir, s, p, wholeNIX(p.Len()), 1024, 4, engine.DurableOptions{}); err == nil {
		t.Fatal("shard-count mismatch not rejected")
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-0003")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused 4-shard open created shard-0003 (stat: %v)", err)
	}
	if _, err := shard.OpenShardedDurable(dir, s, p, wholeNIX(p.Len()), 2048, 3, engine.DurableOptions{}); err == nil {
		t.Fatal("page-size mismatch not rejected")
	}
	if _, err := shard.OpenShardedDurable(dir, s, p, wholeNIX(p.Len()), 1024, 3,
		engine.DurableOptions{FirstOID: 7}); err == nil {
		t.Fatal("caller-set FirstOID not rejected")
	}
}

// TestShardedDurableFreshOpenKillPoints kills a fresh sharded open at
// every write byte from the first one — shard 0's open, whose checkpoint
// is written first and alone, then the other shards' — through the same
// OpenFile seam the engines write everything with. Whatever
// shard-0000/snap.ckpt a kill leaves behind is complete and carries the
// geometry (it is renamed into place only after its fsync), a torn
// snap.ckpt.tmp is ignored, and the directory reopens clean and usable
// either way.
func TestShardedDurableFreshOpenKillPoints(t *testing.T) {
	const nShards, pageSize = 3, 1024
	s := schema.PaperSchema()
	p := schema.PaperPathOwnsManName()
	var sawNone, sawPublished bool
	for kill := int64(0); kill <= 80; kill++ {
		dir := filepath.Join(t.TempDir(), "db")
		budget := storage.NewCrashBudget(kill)
		open := func(path string) (storage.File, error) {
			ff, err := storage.OpenFaultFile(path)
			if err != nil {
				return nil, err
			}
			ff.Budget = budget
			return ff, nil
		}
		db, err := shard.OpenShardedDurable(dir, s, p, wholeNIX(p.Len()), pageSize, nShards,
			engine.DurableOptions{OpenFile: open})
		switch {
		case err == nil:
			db.Close() //nolint:errcheck // the closing checkpoint may hit the kill point
		case !budget.Crashed():
			t.Fatalf("kill at byte %d: open failed without the kill: %v", kill, err)
		}

		ckpt := filepath.Join(dir, "shard-0000", "snap.ckpt")
		switch geom, err := readGeometry(ckpt); {
		case errors.Is(err, os.ErrNotExist):
			sawNone = true
		case err != nil:
			t.Fatalf("kill at byte %d published a torn checkpoint: %v", kill, err)
		default:
			sawPublished = true
			if want := [3]uint64{pageSize, nShards, nShards}; geom != want {
				t.Fatalf("kill at byte %d: checkpoint geometry (page size, first OID, stride) %v, want %v", kill, geom, want)
			}
		}
		// A killed process runs no deferred clean-up: its torn temporary
		// stays behind.
		if err := os.WriteFile(ckpt+".tmp", []byte{0, 0, 0, 9, 1, 2}, 0o644); err != nil {
			t.Fatal(err)
		}
		db2 := openTestDurableDB(t, dir, nShards)
		for _, v := range populate(t, db2) {
			if got, err := db2.Query(v, "Person", true); err != nil || len(got) != 1 {
				t.Fatalf("kill at byte %d: reopened directory answers %v, %v", kill, got, err)
			}
		}
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !sawNone || !sawPublished {
		t.Fatalf("sweep did not straddle the rename: no checkpoint seen %v, published seen %v", sawNone, sawPublished)
	}
}

// readGeometry reads a checkpoint with the log's scan and returns the
// page size, OID base and stride its trailer leads with. Anything but
// whole frames ending in a trailer is an error.
func readGeometry(path string) (geom [3]uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return geom, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return geom, err
	}
	var last []byte
	end, err := wal.Scan(f, func(rec []byte) error { last = rec; return nil })
	if err != nil {
		return geom, err
	}
	if end != fi.Size() || len(last) == 0 || last[0] != 4 {
		return geom, fmt.Errorf("%d of %d bytes in whole frames, last record %x", end, fi.Size(), last)
	}
	b := last[1:]
	for i := range geom {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return geom, fmt.Errorf("short trailer %x", last)
		}
		geom[i], b = v, b[n:]
	}
	return geom, nil
}

// TestShardedDurabilityStatsSumShards: the fleet's durability cost is the
// sum of the shards' DurabilityStats, and Checkpoint fans out to every
// shard.
func TestShardedDurabilityStatsSumShards(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openTestDurableDB(t, dir, 2)
	defer db.Close()
	populate(t, db)
	ds := db.DurabilityStats()
	if ds.Fsyncs == 0 || ds.WALBytes == 0 {
		t.Fatalf("durability stats report fsyncs=%d walBytes=%d, want both positive", ds.Fsyncs, ds.WALBytes)
	}
	var sum storage.Stats
	for i := 0; i < db.NumShards(); i++ {
		s := db.Shard(i).DurabilityStats()
		sum.Fsyncs += s.Fsyncs
		sum.WALBytes += s.WALBytes
	}
	if ds != sum {
		t.Fatalf("fleet durability stats %+v, shards sum to %+v", ds, sum)
	}
	if err := db.DurabilityErr(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < db.NumShards(); i++ {
		if db.Shard(i).Checkpoints() == 0 {
			t.Fatalf("shard %d: fan-out checkpoint did not run", i)
		}
	}
}
