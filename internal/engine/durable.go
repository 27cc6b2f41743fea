package engine

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Durability layer. A durable engine keeps four files in its directory:
//
//	wal.log    — write-ahead log of committed operations since the last
//	             checkpoint (length-prefixed, CRC-framed; see package wal)
//	snap.ckpt  — checkpoint snapshot: the full object population and OID
//	             sequence at checkpoint time, written to a temporary and
//	             atomically renamed into place
//	MANIFEST   — JSON manifest: geometry (page size, OID sequence base and
//	             stride) and the active index configuration, also written
//	             via temporary-plus-rename at each checkpoint
//	pages.db   — the disk-backed pager's page file. Deliberately NOT a
//	             recovery source: objects live in the store's in-memory
//	             catalog, so pages.db exists to make buffer-pool misses and
//	             dirty write-backs cost real, checksummed I/O. It is
//	             truncated at every open and rebuilt by traffic.
//
// Recovery on open is snapshot-then-replay: load snap.ckpt if present,
// then replay wal.log over it, then rebuild the configuration's indexes
// from the recovered store. Replay is idempotent over an "ahead" base
// (see internal/oodb restore helpers), which covers every crash point of
// the checkpoint protocol: a crash between the snapshot rename and the
// WAL reset replays logged effects the snapshot already holds, and
// converges.
//
// Write path: each Insert, Update or Delete appends one operation record
// inside the engine's writeMu hold, notes the log position the record
// ends at, releases writeMu, and only then commits — waits for that
// position to be durable per policy. The next writer's store and index
// work runs during the fsync, and concurrent commits share one fsync
// (wal.Log.Commit). A batch (UpdateBatch) appends all its records in one
// writeMu hold and commits once. Operations are logged only after they
// succeed in the store; an operation whose append or commit fails returns
// the error and is not acknowledged. Lock order: writeMu, then the log's
// sync mutex, then its append mutex; the commit path never takes writeMu
// while the log holds its sync mutex for it.

const (
	walName      = "wal.log"
	pagesName    = "pages.db"
	snapName     = "snap.ckpt"
	manifestName = "MANIFEST"
)

// Operation record kinds (first payload byte). Insert and update both
// carry the full post-image of the object — that is what makes replay an
// idempotent upsert — and differ only for accounting and debugging.
const (
	opInsert byte = 1
	opUpdate byte = 2
	opDelete byte = 3
)

var snapMagic = [4]byte{'I', 'X', 'S', 'N'}

const snapVersion = 1

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

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

// manifest is the JSON MANIFEST contents.
type manifest struct {
	Version   int                `json:"version"`
	PageSize  int                `json:"page_size"`
	FirstOID  uint64             `json:"first_oid"`
	OIDStride uint64             `json:"oid_stride"`
	Config    core.Configuration `json:"config"`
	// Predicates is the observed predicate mix at checkpoint time. The
	// class-level recorder deliberately resets on reconfiguration, but the
	// predicate mix is selection *evidence* — the feedback signal that
	// makes a residual-heavy path earn an index — so dropping it across a
	// restart would silently discard exactly the traffic that never
	// reached an index. Reopen seeds the recorder with these counts.
	// Absent (nil) in manifests from before the field existed.
	Predicates []stats.PredLoad `json:"predicates,omitempty"`
}

// durable is the engine's durability state. All mutable fields are
// guarded by the engine's writeMu.
type durable struct {
	dir      string
	log      *wal.Log
	openFile func(string) (storage.File, error)
	ckpt     int64 // auto-checkpoint threshold; <= 0 disables
	err      error // first durability failure; condemns the engine's write path
	buf      []byte
	ckpts    uint64
	replayed uint64 // WAL records replayed at open
}

// OpenDurable opens (or creates) a durable engine in dir. A fresh
// directory starts empty with the given configuration; an existing one
// recovers — checkpoint snapshot, then WAL replay, then index rebuild —
// and the manifest's persisted configuration wins over cfg. The page
// size and OID sequence of an existing directory must match the caller's.
func OpenDurable(dir string, s *schema.Schema, p *schema.Path, cfg core.Configuration, pageSize int, opts DurableOptions) (*Engine, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Crash leftovers: a temporary never renamed into place is garbage.
	os.Remove(filepath.Join(dir, snapName+".tmp"))
	os.Remove(filepath.Join(dir, manifestName+".tmp"))

	var predSeed []stats.PredLoad
	if m, ok, err := readManifest(dir); err != nil {
		return nil, err
	} else if ok {
		if m.PageSize != pageSize {
			return nil, fmt.Errorf("engine: %s was created with page size %d, opened with %d", dir, m.PageSize, pageSize)
		}
		if m.FirstOID != opts.FirstOID || m.OIDStride != opts.OIDStride {
			return nil, fmt.Errorf("engine: %s was created with OID sequence (%d,%d), opened with (%d,%d)",
				dir, m.FirstOID, m.OIDStride, opts.FirstOID, opts.OIDStride)
		}
		cfg = m.Config
		predSeed = m.Predicates
	}

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
	pager, err := storage.NewPagerBacked(pageSize, opts.PoolPages, be)
	if err != nil {
		be.Close()
		return nil, err
	}
	st, err := oodb.NewStoreWithPager(s, pager, oodb.OID(opts.FirstOID), opts.OIDStride)
	if err != nil {
		be.Close()
		return nil, err
	}

	d := &durable{dir: dir, openFile: opts.OpenFile, ckpt: opts.CheckpointBytes}
	if err := d.loadSnapshot(st); err != nil {
		be.Close()
		return nil, err
	}
	log, err := openWAL(filepath.Join(dir, walName), opts, func(rec []byte) error {
		d.replayed++
		return applyOpRecord(st, rec)
	})
	if err != nil {
		be.Close()
		return nil, err
	}
	d.log = log

	e, err := New(st, p, cfg, pageSize, opts.Options)
	if err != nil {
		log.Close()
		be.Close()
		return nil, err
	}
	e.dur = d
	// The checkpointed predicate mix survives the restart: re-selection
	// evidence for traffic no index absorbed must not vanish with the
	// process (the class recorder's counters are cheap to re-earn; the
	// residual signal is precisely the traffic a restart would otherwise
	// erase from the feedback loop).
	e.preds.Merge(predSeed)
	// Recovery and index-build page traffic is not served workload: start
	// the cost counters clean.
	st.Pager().ResetStats()
	e.ResetStats()
	return e, nil
}

func openWAL(path string, opts DurableOptions, replay func([]byte) error) (*wal.Log, error) {
	f, err := opts.OpenFile(path)
	if err != nil {
		return nil, err
	}
	l, err := wal.Open(f, opts.Policy, wal.DefaultGroupWindow, replay)
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

func readManifest(dir string) (manifest, bool, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return manifest{}, false, fmt.Errorf("engine: corrupt manifest in %s: %w", dir, err)
	}
	return m, true, nil
}

// applyOpRecord replays one WAL operation record into the store.
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

// logOp appends one operation record for an operation that already
// succeeded in the store and returns the log position the record ends at,
// for commit. Caller holds writeMu.
func (e *Engine) logOp(kind byte, oid oodb.OID) (uint64, error) {
	d := e.dur
	if d.err != nil {
		return 0, d.err
	}
	// A latched pager error (failed write-back during the store phase)
	// condemns the operation before its record is appended: an appended
	// record is a durability promise, so the health check must precede it.
	if err := e.store.Err(); err != nil {
		d.err = err
		return 0, err
	}
	d.buf = append(d.buf[:0], kind)
	if kind == opDelete {
		d.buf = binary.BigEndian.AppendUint64(d.buf, uint64(oid))
	} else {
		obj, ok := e.store.Peek(oid)
		if !ok {
			d.err = fmt.Errorf("engine: logging operation: object %d vanished", oid)
			return 0, d.err
		}
		d.buf = oodb.AppendObject(d.buf, obj.OID, obj.Class, obj.Attrs)
	}
	if err := d.log.Append(d.buf); err != nil {
		d.err = err
		return 0, err
	}
	return d.log.End(), nil
}

// commit makes the operation whose record ends at pos durable per policy,
// then checkpoints when the log has outgrown its threshold. The caller
// has released writeMu: other writers apply and append during the fsync,
// and concurrent commits share one (wal.Log.Commit). A failed commit
// latches d.err, so the engine refuses later writes.
func (e *Engine) commit(pos uint64) error {
	d := e.dur
	if _, err := d.log.Commit(pos); err != nil {
		e.writeMu.Lock()
		if d.err == nil {
			d.err = err
		}
		e.writeMu.Unlock()
		return err
	}
	if d.ckpt > 0 && d.log.Size() >= d.ckpt {
		// The operation is durable the moment its commit lands; a failing
		// checkpoint here condemns the engine for future writes (latched
		// in d.err, visible via DurabilityErr) but cannot retract this
		// operation's acknowledgement. The size is checked again under
		// writeMu: a concurrent commit may have checkpointed meanwhile.
		e.writeMu.Lock()
		if d.log.Size() >= d.ckpt {
			e.checkpointLocked() //nolint:errcheck
		}
		e.writeMu.Unlock()
	}
	return nil
}

// Checkpoint flushes dirty pages, writes the snapshot and manifest
// (each via temporary-plus-rename), and truncates the WAL. A no-op on an
// in-memory engine.
func (e *Engine) Checkpoint() error {
	if e.dur == nil {
		return nil
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	return e.checkpointLocked()
}

// checkpointLocked is Checkpoint with writeMu held. Step order is what
// makes every crash point recoverable: the snapshot becomes visible only
// by its atomic rename; the manifest flips the configuration only after
// the snapshot it describes is in place; the WAL is truncated last, so a
// crash anywhere earlier replays over a base that is at worst ahead —
// which idempotent replay converges on.
func (e *Engine) checkpointLocked() error {
	d := e.dur
	if d.err != nil {
		return d.err
	}
	fail := func(err error) error {
		d.err = err
		return err
	}
	if err := e.store.Pager().Flush(); err != nil {
		return fail(fmt.Errorf("engine: checkpoint page flush: %w", err))
	}
	if err := d.writeSnapshot(e.store); err != nil {
		return fail(err)
	}
	m := manifest{
		Version:    1,
		PageSize:   e.pageSize,
		FirstOID:   uint64(firstOf(e.store)),
		OIDStride:  strideOf(e.store),
		Config:     e.active.Load().Config(),
		Predicates: e.preds.Snapshot(),
	}
	if err := d.writeManifest(m); err != nil {
		return fail(err)
	}
	if err := d.log.Reset(); err != nil {
		return fail(err)
	}
	d.ckpts++
	return nil
}

// firstOf and strideOf recover the sequence parameters the store was
// created with: the stride is the store's own, and the base is the
// congruence class of the next OID — stable because every mint moves next
// by exactly one stride.
func strideOf(st *oodb.Store) uint64 {
	_, stride := st.OIDSeq()
	return stride
}

func firstOf(st *oodb.Store) oodb.OID {
	next, stride := st.OIDSeq()
	first := uint64(next) % stride
	if first == 0 {
		first = stride
	}
	return oodb.OID(first)
}

// writeSnapshot streams every live object (plus the OID sequence) into
// snap.ckpt.tmp — header last, so a complete header implies complete
// contents — which storage.WriteFileAtomic fsyncs and renames into place.
//
// Snapshot layout: 32-byte header [magic 4][version 4][next 8][stride 8]
// [count 4][body crc 4], then count records of [4-byte length][object].
func (d *durable) writeSnapshot(st *oodb.Store) error {
	err := storage.WriteFileAtomic(d.openFile, filepath.Join(d.dir, snapName), func(f storage.File) error {
		var (
			off   int64 = 32
			count uint32
			crc   uint32
			buf   []byte
		)
		err := st.Objects(func(o *oodb.Object) error {
			buf = buf[:0]
			buf = binary.BigEndian.AppendUint32(buf, 0) // patched below
			buf = oodb.AppendObject(buf, o.OID, o.Class, o.Attrs)
			binary.BigEndian.PutUint32(buf[0:4], uint32(len(buf)-4))
			if _, err := f.WriteAt(buf, off); err != nil {
				return err
			}
			crc = crc32.Update(crc, snapCRC, buf)
			off += int64(len(buf))
			count++
			return nil
		})
		if err != nil {
			return err
		}
		next, stride := st.OIDSeq()
		hdr := make([]byte, 32)
		copy(hdr[0:4], snapMagic[:])
		binary.BigEndian.PutUint32(hdr[4:8], snapVersion)
		binary.BigEndian.PutUint64(hdr[8:16], uint64(next))
		binary.BigEndian.PutUint64(hdr[16:24], stride)
		binary.BigEndian.PutUint32(hdr[24:28], count)
		binary.BigEndian.PutUint32(hdr[28:32], crc)
		_, err = f.WriteAt(hdr, 0)
		return err
	})
	if err != nil {
		return fmt.Errorf("engine: checkpoint snapshot: %w", err)
	}
	return nil
}

// loadSnapshot restores the checkpoint snapshot into the store, if one
// exists. The snapshot was made visible only by a post-fsync atomic
// rename, so damage here is genuine corruption, reported as an error —
// unlike a torn WAL tail, it cannot be a benign crash artifact.
func (d *durable) loadSnapshot(st *oodb.Store) error {
	path := filepath.Join(d.dir, snapName)
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		return nil
	} else if err != nil {
		return err
	}
	f, err := d.openFile(path)
	if err != nil {
		return err
	}
	defer f.Close()
	hdr := make([]byte, 32)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return fmt.Errorf("engine: snapshot header: %w", err)
	}
	if [4]byte(hdr[0:4]) != snapMagic {
		return fmt.Errorf("engine: %s is not a snapshot", path)
	}
	if v := binary.BigEndian.Uint32(hdr[4:8]); v != snapVersion {
		return fmt.Errorf("engine: snapshot version %d, want %d", v, snapVersion)
	}
	next := oodb.OID(binary.BigEndian.Uint64(hdr[8:16]))
	count := binary.BigEndian.Uint32(hdr[24:28])
	wantCRC := binary.BigEndian.Uint32(hdr[28:32])
	var (
		off int64 = 32
		crc uint32
		lb  [4]byte
	)
	for i := uint32(0); i < count; i++ {
		if _, err := f.ReadAt(lb[:], off); err != nil {
			return fmt.Errorf("engine: snapshot record %d: %w", i, err)
		}
		n := binary.BigEndian.Uint32(lb[:])
		if n == 0 || n > 1<<30 {
			return fmt.Errorf("engine: snapshot record %d has length %d", i, n)
		}
		rec := make([]byte, 4+n)
		if _, err := f.ReadAt(rec, off); err != nil {
			return fmt.Errorf("engine: snapshot record %d: %w", i, err)
		}
		crc = crc32.Update(crc, snapCRC, rec)
		oid, class, attrs, rest, err := oodb.DecodeObject(rec[4:])
		if err != nil {
			return fmt.Errorf("engine: snapshot record %d: %w", i, err)
		}
		if len(rest) != 0 {
			return fmt.Errorf("engine: snapshot record %d has %d trailing bytes", i, len(rest))
		}
		if err := st.RestoreObject(oid, class, attrs); err != nil {
			return err
		}
		off += int64(4 + n)
	}
	if crc != wantCRC {
		return fmt.Errorf("engine: snapshot %s: %w", path, storage.ErrChecksum)
	}
	st.SetOIDSeq(next)
	return nil
}

// writeManifest publishes the JSON manifest via storage.WriteFileAtomic.
func (d *durable) writeManifest(m manifest) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	err = storage.WriteFileAtomic(d.openFile, filepath.Join(d.dir, manifestName), func(f storage.File) error {
		_, err := f.WriteAt(raw, 0)
		return err
	})
	if err != nil {
		return fmt.Errorf("engine: manifest: %w", err)
	}
	return nil
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
	d := e.dur
	err := e.checkpointLocked()
	if cerr := d.log.Close(); err == nil && cerr != nil && d.err == nil {
		err = cerr
	}
	if be := e.store.Pager().Backend(); be != nil {
		if cerr := be.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}
	return err
}

// DurabilityErr returns the first durability failure latched by the write
// path (WAL append, fsync, page write-back, checkpoint), or nil. Once
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

// DurabilityStats sums the durability counters: WAL bytes appended and
// fsyncs (log and page file together). Zero-valued on an in-memory
// engine.
func (e *Engine) DurabilityStats() storage.Stats {
	if e.dur == nil {
		return storage.Stats{}
	}
	s := e.dur.log.Stats()
	s.Fsyncs += e.store.Pager().Stats().Fsyncs
	return s
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
