package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Durability layer. A durable engine keeps three files in its directory:
//
//	wal.log    — write-ahead log of committed operations since the last
//	             checkpoint (length-prefixed, CRC-framed; see package wal)
//	snap.ckpt  — the checkpoint, a compacted log in the same frames: an
//	             insert record per live object in OID order, then a trailer
//	             (geometry, OID sequence position, configuration, predicate
//	             mix, record count). Published by fsync, rename and
//	             directory fsync; a fresh directory gets a trailer-only one
//	             at its first open.
//	pages.db   — the disk-backed pager's page file. Deliberately NOT a
//	             recovery source: objects live in the store's in-memory
//	             catalog, so pages.db exists to make buffer-pool misses and
//	             dirty write-backs cost real, checksummed I/O. It is
//	             truncated at every open and written only by evictions.
//
// Recovery on open is checkpoint-then-replay: the records of snap.ckpt,
// then those of wal.log, each through applyOpRecord, then the indexes of
// the trailer's configuration rebuilt from the recovered store. Replay is
// idempotent over an "ahead" base (see internal/oodb restore helpers),
// which covers every crash point of the checkpoint protocol: a crash
// between the snapshot rename and the WAL reset replays logged effects
// the snapshot already holds, and converges.
//
// Write path: Apply appends a batch's records through logLocked inside
// its writeMu hold and commits through settle after releasing it.
// Lock order: writeMu, then the log's sync mutex, then its append mutex;
// the commit path never takes writeMu while the log holds its sync mutex
// for it.

const (
	walName   = "wal.log"
	pagesName = "pages.db"
	snapName  = "snap.ckpt"
)

// Record kinds (first payload byte). Insert and update both carry the
// full post-image of the object — that is what makes replay an idempotent
// upsert — and differ only for accounting and debugging. A trailer ends a
// checkpoint and never appears in the log.
const (
	opInsert  byte = 1
	opUpdate  byte = 2
	opDelete  byte = 3
	opTrailer byte = 4
)

// DurableOptions extends Options with the durability knobs.
type DurableOptions struct {
	Options

	// Policy is the WAL commit policy (default SyncAlways). SyncGroup
	// fsyncs once per wal.DefaultGroupWindow.
	Policy wal.Policy
	// CheckpointBytes is the WAL size that triggers an automatic
	// checkpoint. Zero means 4 MiB; negative disables automatic
	// checkpoints (explicit Checkpoint, configuration swaps and Close
	// still checkpoint).
	CheckpointBytes int64
	// PoolPages is the disk-backed pager's buffer-pool capacity in pages.
	// Zero means 256.
	PoolPages int
	// FirstOID and OIDStride set the store's OID sequence (shard slot);
	// zero means 1 and 1. A reopened directory must be given the same
	// values it was created with.
	FirstOID  uint64
	OIDStride uint64
	// OpenFile opens the engine's files — the fault-injection seam. Nil
	// means the real filesystem; the crash gate supplies one returning
	// storage.FaultFiles sharing a write budget.
	OpenFile func(path string) (storage.File, error)
}

func (o DurableOptions) withDefaults() DurableOptions {
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 4 << 20
	}
	if o.PoolPages == 0 {
		o.PoolPages = 256
	}
	if o.FirstOID == 0 {
		o.FirstOID = 1
	}
	if o.OIDStride == 0 {
		o.OIDStride = 1
	}
	if o.OpenFile == nil {
		o.OpenFile = func(path string) (storage.File, error) {
			return os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		}
	}
	return o
}

// trailer is a checkpoint's last record.
type trailer struct {
	PageSize            int
	FirstOID, OIDStride uint64
	NextOID             uint64 // the OID sequence position
	Records             uint64 // records before the trailer
	Config              core.Configuration
	// Predicates is the observed predicate mix: selection evidence for
	// traffic no index absorbed, which reopen seeds the recorder with.
	Predicates []stats.PredLoad
}

// appendTrailer appends t's record to buf: the kind byte, then uvarints —
// page size, OID base, stride and position, record count, the
// configuration's cost (float64 bits) and assignments, and the predicate
// mix, each path length-prefixed.
func appendTrailer(buf []byte, t trailer) []byte {
	buf = append(buf, opTrailer)
	put := func(vs ...uint64) {
		for _, v := range vs {
			buf = binary.AppendUvarint(buf, v)
		}
	}
	put(uint64(t.PageSize), t.FirstOID, t.OIDStride, t.NextOID, t.Records,
		math.Float64bits(t.Config.Cost), uint64(len(t.Config.Assignments)))
	for _, a := range t.Config.Assignments {
		put(uint64(a.A), uint64(a.B), uint64(a.Org))
	}
	put(uint64(len(t.Predicates)))
	for _, p := range t.Predicates {
		put(uint64(len(p.Path)))
		buf = append(buf, p.Path...)
		put(p.Eq, p.Range, p.Residual)
	}
	return buf
}

// decodeTrailer decodes the body of a trailer record (after its kind).
func decodeTrailer(b []byte) (t trailer, err error) {
	get := func() uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			err = errors.New("truncated trailer")
			return 0
		}
		b = b[n:]
		return v
	}
	t.PageSize = int(get())
	t.FirstOID, t.OIDStride, t.NextOID, t.Records = get(), get(), get(), get()
	t.Config.Cost = math.Float64frombits(get())
	for n := get(); n > 0 && err == nil; n-- {
		t.Config.Assignments = append(t.Config.Assignments,
			core.Assignment{A: int(get()), B: int(get()), Org: cost.Organization(get())})
	}
	for n := get(); n > 0 && err == nil; n-- {
		l := get()
		if l > uint64(len(b)) {
			return t, errors.New("truncated trailer")
		}
		p := stats.PredLoad{Path: string(b[:l])}
		b = b[l:]
		p.Eq, p.Range, p.Residual = get(), get(), get()
		t.Predicates = append(t.Predicates, p)
	}
	if err == nil && len(b) != 0 {
		err = fmt.Errorf("trailer has %d trailing bytes", len(b))
	}
	return t, err
}

// durable is the engine's durability state. All mutable fields are
// guarded by the engine's writeMu.
type durable struct {
	dir           string
	log           *wal.Log
	openFile      func(string) (storage.File, error)
	first, stride uint64 // the OID sequence the engine was opened with
	ckpt          int64  // auto-checkpoint threshold; <= 0 disables
	err           error  // first durability failure; condemns the engine's write path
	buf           []byte
	ckpts         uint64
	replayed      uint64 // WAL records replayed at open
}

// OpenDurable opens (or creates) a durable engine in dir. A fresh
// directory starts empty with the given configuration; an existing one
// recovers — checkpoint, then WAL replay, then index rebuild — and the
// checkpoint's configuration wins over cfg. The page size and OID
// sequence of an existing directory must match the caller's; a mismatch
// is refused before the log is opened.
func OpenDurable(dir string, s *schema.Schema, p *schema.Path, cfg core.Configuration, pageSize int, opts DurableOptions) (*Engine, error) {
	opts = opts.withDefaults()
	if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
		// A new directory's own entry is durable before anything in it.
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := storage.SyncDir(filepath.Dir(dir)); err != nil {
			return nil, err
		}
	}
	// Crash leftover: a temporary never renamed into place is garbage.
	os.Remove(filepath.Join(dir, snapName+".tmp"))

	// pages.db is rebuilt by traffic, never recovered from: truncate away
	// the previous incarnation's images so a stale slot can never satisfy
	// a read.
	pf, err := opts.OpenFile(filepath.Join(dir, pagesName))
	if err != nil {
		return nil, err
	}
	if err := pf.Truncate(0); err != nil {
		pf.Close()
		return nil, err
	}
	be, err := storage.NewFileBackend(pf, pageSize)
	if err != nil {
		pf.Close()
		return nil, err
	}
	d := &durable{dir: dir, openFile: opts.OpenFile, first: opts.FirstOID, stride: opts.OIDStride, ckpt: opts.CheckpointBytes}
	fail := func(err error) (*Engine, error) {
		if d.log != nil {
			d.log.Close()
		}
		be.Close()
		return nil, err
	}
	pager, err := storage.NewPagerBacked(pageSize, opts.PoolPages, be)
	if err != nil {
		return fail(err)
	}
	st, err := oodb.NewStoreWithPager(s, pager, oodb.OID(opts.FirstOID), opts.OIDStride)
	if err != nil {
		return fail(err)
	}

	t, found, err := d.loadCheckpoint(st)
	if err != nil {
		return fail(err)
	}
	if found {
		if t.PageSize != pageSize || t.FirstOID != d.first || t.OIDStride != d.stride {
			return fail(fmt.Errorf("engine: %s was created with page size %d and OID sequence (%d,%d), opened with %d and (%d,%d)",
				dir, t.PageSize, t.FirstOID, t.OIDStride, pageSize, d.first, d.stride))
		}
		st.SetOIDSeq(oodb.OID(t.NextOID))
		cfg = t.Config
	}
	f, err := opts.OpenFile(filepath.Join(dir, walName))
	if err != nil {
		return fail(err)
	}
	if d.log, err = wal.Open(f, opts.Policy, wal.DefaultGroupWindow, func(rec []byte) error {
		d.replayed++
		return applyOpRecord(st, rec)
	}); err != nil {
		f.Close()
		return fail(err)
	}

	e, err := New(st, p, cfg, pageSize, opts.Options)
	if err != nil {
		return fail(err)
	}
	e.dur = d
	if !found {
		// Birth: the geometry goes on disk before the first write can be
		// acknowledged; its directory sync also covers the entries of
		// wal.log and pages.db. Not a checkpoint: no log reset, not counted.
		if err := e.writeCheckpoint(); err != nil {
			return fail(err)
		}
	}
	// The checkpointed predicate mix survives the restart: re-selection
	// evidence for traffic no index absorbed must not vanish with the
	// process (the class recorder's counters are cheap to re-earn; the
	// residual signal is precisely the traffic a restart would otherwise
	// erase from the feedback loop).
	e.preds.Merge(t.Predicates)
	// Recovery and index-build page traffic is not served workload: start
	// the cost counters clean.
	st.Pager().ResetStats()
	e.ResetStats()
	return e, nil
}

// applyOpRecord applies one operation record — of the log or of a
// checkpoint — to the store.
func applyOpRecord(st *oodb.Store, rec []byte) error {
	if len(rec) < 1 {
		return fmt.Errorf("engine: empty WAL record")
	}
	switch rec[0] {
	case opInsert, opUpdate:
		oid, class, attrs, rest, err := oodb.DecodeObject(rec[1:])
		if err != nil {
			return fmt.Errorf("engine: WAL record: %w", err)
		}
		if len(rest) != 0 {
			return fmt.Errorf("engine: WAL record has %d trailing bytes", len(rest))
		}
		return st.RestoreObject(oid, class, attrs)
	case opDelete:
		if len(rec) != 9 {
			return fmt.Errorf("engine: delete record is %d bytes, want 9", len(rec))
		}
		return st.RestoreDelete(oodb.OID(binary.BigEndian.Uint64(rec[1:])))
	default:
		return fmt.Errorf("engine: unknown WAL record kind %d", rec[0])
	}
}

// logLocked is a durable write's first half, run under writeMu for an
// entry the store and the indexes took: it appends the entry's record —
// obj, the object the entry stored, for an insert or an update; the OID
// for a delete. It returns the log position the record ends at and the
// failure that kept it from the log.
func (e *Engine) logLocked(w *exec.Write, obj *oodb.Object) (uint64, error) {
	d := e.dur
	// A latched error — the log's, or the pager's from a failed write-back
	// during the store phase — condemns the operation before its record is
	// appended: an appended record is a durability promise.
	if err := e.durabilityErrLocked(); err != nil {
		d.err = err
		return 0, err
	}
	switch w.Kind {
	case exec.WriteDelete:
		d.buf = binary.BigEndian.AppendUint64(append(d.buf[:0], opDelete), uint64(w.OID))
	case exec.WriteInsert:
		d.buf = oodb.AppendObject(append(d.buf[:0], opInsert), obj.OID, obj.Class, obj.Attrs)
	default:
		d.buf = oodb.AppendObject(append(d.buf[:0], opUpdate), obj.OID, obj.Class, obj.Attrs)
	}
	if err := d.log.Append(d.buf); err != nil {
		d.err = err
		return 0, err
	}
	return d.log.End(), nil
}

// settle is a write's second half, run after writeMu is released: unless
// err is set, it commits the write whose last record ends at pos — other
// writers apply and append during the fsync, and concurrent commits share
// one (wal.Log.Commit) — then checkpoints when the log has outgrown its
// threshold; either way it credits the auto-tuner n operations. A nil
// result acknowledges the write; a failed commit latches d.err.
func (e *Engine) settle(pos uint64, err error, n int) error {
	defer e.maybeAutoTune(uint64(n))
	d := e.dur
	if err != nil || pos == 0 {
		return err
	}
	if _, err := d.log.Commit(pos); err != nil {
		e.writeMu.Lock()
		if d.err == nil {
			d.err = err
		}
		e.writeMu.Unlock()
		return err
	}
	if d.ckpt > 0 && d.log.Size() >= d.ckpt {
		// The write is durable the moment its commit lands; a failing
		// checkpoint here condemns the engine for future writes (latched
		// in d.err, visible via DurabilityErr) but cannot retract this
		// write's acknowledgement. The size is checked again under
		// writeMu: a concurrent commit may have checkpointed meanwhile.
		e.writeMu.Lock()
		if d.log.Size() >= d.ckpt {
			e.checkpointLocked() //nolint:errcheck
		}
		e.writeMu.Unlock()
	}
	return nil
}

// Checkpoint publishes snap.ckpt (temporary, fsync, rename, directory
// fsync) and then resets the WAL. It leaves pages.db alone: no recovery
// reads it. A condemned engine (DurabilityErr non-nil) refuses with the
// latched error and writes nothing. A no-op on an in-memory engine.
func (e *Engine) Checkpoint() error {
	if e.dur == nil {
		return nil
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	return e.checkpointLocked()
}

// checkpointLocked is Checkpoint with writeMu held. Step order is what
// makes every crash point recoverable: the snapshot — data and
// configuration together — becomes visible only by its atomic rename,
// which its directory fsync makes durable, and the WAL is truncated last,
// so a crash anywhere earlier replays over a base that is at worst ahead,
// which idempotent replay converges on.
func (e *Engine) checkpointLocked() error {
	d := e.dur
	if err := e.durabilityErrLocked(); err != nil {
		return err
	}
	err := e.writeCheckpoint()
	if err == nil {
		err = d.log.Reset()
	}
	if err != nil {
		d.err = err
		return err
	}
	d.ckpts++
	return nil
}

// writeCheckpoint streams every live object into snap.ckpt.tmp as an
// insert record, one WriteAt per frame, then the trailer;
// storage.WriteFileAtomic fsyncs it, renames it into place and fsyncs the
// directory.
func (e *Engine) writeCheckpoint() error {
	d := e.dur
	err := storage.WriteFileAtomic(d.openFile, filepath.Join(d.dir, snapName), func(f storage.File) error {
		var (
			off        int64
			records    uint64
			rec, frame []byte
		)
		put := func(rec []byte) error {
			frame = wal.AppendFrame(frame[:0], rec)
			_, err := f.WriteAt(frame, off)
			off += int64(len(frame))
			return err
		}
		err := e.store.Objects(func(o *oodb.Object) error {
			records++
			rec = oodb.AppendObject(append(rec[:0], opInsert), o.OID, o.Class, o.Attrs)
			return put(rec)
		})
		if err != nil {
			return err
		}
		next, _ := e.store.OIDSeq()
		return put(appendTrailer(rec[:0], trailer{
			PageSize:   e.pageSize,
			FirstOID:   d.first,
			OIDStride:  d.stride,
			NextOID:    uint64(next),
			Records:    records,
			Config:     e.active.Load().Config(),
			Predicates: e.preds.Snapshot(),
		}))
	})
	if err != nil {
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint applies the records of snap.ckpt to st and returns its
// trailer; found is false when the directory has none yet. The file was
// made visible only by a post-fsync rename, so anything but whole frames
// ending in a trailer that counts them is corruption, reported as an
// error — unlike a torn WAL tail, it cannot be a crash artifact.
func (d *durable) loadCheckpoint(st *oodb.Store) (t trailer, found bool, err error) {
	path := filepath.Join(d.dir, snapName)
	fi, err := os.Stat(path)
	if errors.Is(err, os.ErrNotExist) {
		return t, false, nil
	} else if err != nil {
		return t, false, err
	}
	f, err := d.openFile(path)
	if err != nil {
		return t, false, err
	}
	defer f.Close()
	var records uint64
	end, err := wal.Scan(f, func(rec []byte) error {
		switch {
		case found:
			return errors.New("record after the trailer")
		case rec[0] == opTrailer:
			found = true
			t, err = decodeTrailer(rec[1:])
			return err
		}
		records++
		return applyOpRecord(st, rec)
	})
	switch {
	case err != nil:
	case end != fi.Size():
		err = fmt.Errorf("damaged frame at offset %d: %w", end, storage.ErrChecksum)
	case !found:
		err = errors.New("no trailer")
	case t.Records != records:
		err = fmt.Errorf("trailer counts %d records, file holds %d", t.Records, records)
	}
	if err != nil {
		return t, false, fmt.Errorf("engine: checkpoint %s: %w", path, err)
	}
	return t, true, nil
}

// Close quiesces background auto-tune work, checkpoints (so a clean
// shutdown reopens with an empty WAL), and releases the engine's files.
// An in-memory engine has no files but still quiesces — Close must not
// strand a drift-triggered reconfiguration goroutine, or a server
// churning through engines leaks them. Close on a condemned engine
// (DurabilityErr non-nil) skips the checkpoint, closes what it can, and
// returns the latched error.
func (e *Engine) Close() error {
	e.Quiesce()
	if e.dur == nil {
		return nil
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	err := e.checkpointLocked()
	if cerr := e.dur.log.Close(); err == nil {
		err = cerr
	}
	if cerr := e.store.Pager().Backend().Close(); err == nil {
		err = cerr
	}
	return err
}

// DurabilityErr returns the first durability failure latched by the write
// path (WAL append, fsync, checkpoint) or by the pager (a page write-back,
// during a write or a read's eviction), or nil. Once
// non-nil the engine refuses further writes with the same error; reads
// keep serving the coherent in-memory state.
func (e *Engine) DurabilityErr() error {
	if e.dur == nil {
		return nil
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	return e.durabilityErrLocked()
}

// durabilityErrLocked is DurabilityErr with writeMu held, on a durable
// engine.
func (e *Engine) durabilityErrLocked() error {
	if e.dur.err != nil {
		return e.dur.err
	}
	return e.store.Err()
}

// DurabilityStats returns the log's durability counters: WAL bytes
// appended and fsyncs. Nothing else in the engine fsyncs. Zero-valued on
// an in-memory engine.
func (e *Engine) DurabilityStats() storage.Stats {
	if e.dur == nil {
		return storage.Stats{}
	}
	return e.dur.log.Stats()
}

// WALSize returns the log's current size in bytes (zero when in-memory).
func (e *Engine) WALSize() int64 {
	if e.dur == nil {
		return 0
	}
	return e.dur.log.Size()
}

// Checkpoints returns how many checkpoints the engine has completed.
func (e *Engine) Checkpoints() uint64 {
	if e.dur == nil {
		return 0
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	return e.dur.ckpts
}

// Replayed returns how many WAL records recovery replayed at open.
func (e *Engine) Replayed() uint64 {
	if e.dur == nil {
		return 0
	}
	return e.dur.replayed
}
