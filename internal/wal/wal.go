// Package wal implements the write-ahead log the durable engine commits
// through: an append-only file of length-prefixed, CRC-framed records,
// fsynced per commit policy, replayed on open, and truncated by a
// checkpoint.
//
// Framing. Each record is
//
//	[4 bytes] payload length, big endian
//	[4 bytes] crc32 (Castagnoli) of the payload
//	[n bytes] payload
//
// AppendFrame writes a frame and Scan reads frames back; the durable
// engine's checkpoint file is a sequence of the same frames, written and
// read through the same two functions.
//
// Replay walks records from the start and stops at the first frame that
// does not check out — a short header, a zero or impossible length, a
// length running past the end of the file, or a CRC mismatch. Everything
// from that offset on is a torn tail from a crash mid-append: it is
// truncated away, never replayed, so a half-written record can never
// half-apply. Truncation is detected and performed by Open before the log
// accepts new appends.
//
// The extended file. The log's end is not the file's end: the file is
// grown ahead of the appends in extendStep steps (at Open, at Reset, and
// when an append would cross the extended end), so an append overwrites
// space the file already has and a commit's fsync carries a size change
// at most once per step. The space past the last record reads as zeros,
// and a zero length is where replay stops. Size reports the log's end.
//
// Commit policies. Commit takes the position (End) an operation's record
// ends at. SyncAlways returns once an fsync that began after that position
// was appended has completed — acknowledged ⇔ durable, at most one fsync
// per commit — and concurrent commits share one: fsyncs are serialized by
// their own mutex, never issued under the one Append takes, so a commit
// whose record an earlier fsync already covers returns without one.
// SyncGroup fsyncs when the group window has elapsed since the last fsync
// (bounded data-at-risk, much higher throughput). SyncNever leaves
// flushing to the OS — the crash-recovery contract then only covers
// records the kernel happened to write out. A failed fsync is sticky:
// the kernel may already have dropped the dirty pages, so it is never
// retried, and every later Append, Commit and Sync returns it.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// Policy selects when a commit fsyncs the log.
type Policy int

const (
	// SyncAlways fsyncs on every commit.
	SyncAlways Policy = iota
	// SyncGroup fsyncs when the group window has elapsed since the last fsync.
	SyncGroup
	// SyncNever never fsyncs; the OS flushes when it pleases.
	SyncNever
)

// String renders the policy for reports.
func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncGroup:
		return "group"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// DefaultGroupWindow is the SyncGroup fsync interval when none is given.
const DefaultGroupWindow = 2 * time.Millisecond

const frameHeader = 8

// extendStep is the size of each step the file grows by ahead of the log.
const extendStep = 1 << 20

// probeAbove is the frame length above which replay checks that the file
// holds the whole frame before it allocates the payload. Below it a torn
// length costs at most that much memory and saves every record a read.
const probeAbove = 64 << 10

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTornTail is wrapped by Open's truncation report (see Open) and never
// escapes it; exported so tests can assert the tail classification.
var ErrTornTail = errors.New("wal: torn tail")

// Log is an append-only write-ahead log over a storage.File. Lock order:
// syncMu before mu.
type Log struct {
	// syncMu serializes fsyncs, Reset and Close, and guards durable and
	// lastSync.
	syncMu   sync.Mutex
	durable  uint64 // End position the last fsync (or Reset) covered
	lastSync time.Time

	// mu guards the file's contents and length, off, ext and frame; err is
	// written holding both mutexes, so either one suffices to read it.
	mu    sync.Mutex
	f     storage.File
	off   int64 // end of the last fully framed record
	ext   int64 // the file's length, past off
	frame []byte
	err   error // sticky fsync failure

	policy Policy
	window time.Duration

	appended atomic.Uint64 // bytes appended (frames included); positions are in these units
	fsyncs   atomic.Uint64
	records  atomic.Uint64
}

// Open opens a log over f (commonly an *os.File or a storage.FaultFile),
// scans existing records through replay, truncates any torn tail, extends
// the file past it, and positions appends after the last valid record.
// replay may be nil when the caller only wants the scan-and-truncate; it
// receives each valid payload in order and may return an error to abort
// the open.
func Open(f storage.File, policy Policy, window time.Duration, replay func(payload []byte) error) (*Log, error) {
	if window <= 0 {
		window = DefaultGroupWindow
	}
	l := &Log{f: f, policy: policy, window: window, lastSync: time.Now()}
	end, err := Scan(f, func(p []byte) error {
		l.records.Add(1)
		if replay != nil {
			return replay(p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Chop everything past the last valid record — a torn tail, the old
	// extension — so garbage can never be mistaken for a future record,
	// then extend with zeros past it.
	if err := f.Truncate(end); err != nil {
		return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	l.off = end
	if err := l.extendLocked(end); err != nil {
		return nil, err
	}
	if policy != SyncNever {
		l.fsyncs.Add(1)
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("wal: fsync: %w", err)
		}
	}
	return l, nil
}

// OpenPath is Open over the file at path, created when absent.
func OpenPath(path string, policy Policy, window time.Duration, replay func(payload []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l, err := Open(f, policy, window, replay)
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// AppendFrame appends payload to dst as one frame — its length, its CRC
// and the payload — and returns the extended slice. Scan reads it back.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// Scan walks the frames of f from offset 0, calling fn with each valid
// payload, and returns the offset of the first invalid frame — the end of
// the valid frames. Only genuine I/O errors and fn's (not framing damage)
// are returned as errors: the caller decides what damage means — a torn
// tail for the log, corruption for a file published by rename.
func Scan(f storage.File, fn func([]byte) error) (int64, error) {
	var off int64
	buf := make([]byte, frameHeader+1)
	hdr, probe := buf[:frameHeader], buf[frameHeader:]
	for {
		if _, err := f.ReadAt(hdr, off); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return off, nil // clean end or short header: truncate here
			}
			return off, err
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		if n == 0 || n > 1<<30 {
			return off, nil // zeroed (the extended file past the log) or garbage length
		}
		// A torn header's length may claim far more than the file holds:
		// past probeAbove, probe the frame's last byte before allocating.
		if n > probeAbove {
			if _, err := f.ReadAt(probe, off+frameHeader+int64(n)-1); err != nil {
				if err == io.EOF || err == io.ErrUnexpectedEOF {
					return off, nil // length runs past the file: torn append
				}
				return off, err
			}
		}
		payload := make([]byte, n)
		if _, err := f.ReadAt(payload, off+frameHeader); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return off, nil // length runs past the file: torn append
			}
			return off, err
		}
		if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(hdr[4:8]) {
			return off, nil // corrupt payload
		}
		if err := fn(payload); err != nil {
			return off, err
		}
		off += frameHeader + int64(n)
	}
}

// extendLocked grows the file to the step boundary past end. The size
// change becomes durable with the next fsync. Caller holds mu.
func (l *Log) extendLocked(end int64) error {
	ext := (end/extendStep + 1) * extendStep
	if err := l.f.Truncate(ext); err != nil {
		return fmt.Errorf("wal: extending: %w", err)
	}
	l.ext = ext
	return nil
}

// Append frames and writes one record. The record is in the OS page cache
// when Append returns; Commit(End()) makes it stable per policy. Append
// never waits on an fsync.
func (l *Log) Append(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("wal: empty record")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.frame = AppendFrame(l.frame[:0], payload)
	n := len(l.frame)
	if l.off+int64(n) > l.ext {
		if err := l.extendLocked(l.off + int64(n)); err != nil {
			return err
		}
	}
	if _, err := l.f.WriteAt(l.frame, l.off); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.off += int64(n)
	l.appended.Add(uint64(n))
	l.records.Add(1)
	return nil
}

// End returns the position after the last appended record: the
// cumulative bytes appended, across resets. A caller that appends reads
// End before anyone else appends and passes it to Commit.
func (l *Log) End() uint64 { return l.appended.Load() }

// Commit makes the records up to position pos stable per the log's
// policy and reports whether it fsynced. Under SyncAlways it returns once
// an fsync that began after pos was appended has completed, its own or a
// concurrent committer's; under SyncGroup it fsyncs only when the group
// window has elapsed since the last fsync.
func (l *Log) Commit(pos uint64) (synced bool, err error) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.err != nil {
		return false, l.err
	}
	if l.durable >= pos {
		return false, nil
	}
	switch l.policy {
	case SyncNever:
		return false, nil
	case SyncGroup:
		if time.Since(l.lastSync) < l.window {
			return false, nil
		}
	}
	return true, l.syncLocked()
}

// Sync fsyncs whatever is appended and not yet stable, regardless of
// policy — Close and explicit flushes use it.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.durable >= l.appended.Load() {
		return nil
	}
	return l.syncLocked()
}

// syncLocked fsyncs everything appended before it starts. Caller holds
// syncMu and not mu, so appends go on during the fsync and wait for the
// next one.
func (l *Log) syncLocked() error {
	end := l.appended.Load()
	l.fsyncs.Add(1)
	if err := l.f.Sync(); err != nil {
		err = fmt.Errorf("wal: fsync: %w", err)
		l.mu.Lock()
		l.err = err
		l.mu.Unlock()
		return err
	}
	l.durable = end
	l.lastSync = time.Now()
	return nil
}

// Reset empties the log and re-extends the file — the checkpoint's final
// step, once every logged effect is safely in the snapshot. Every
// position appended before it therefore counts as durable.
func (l *Log) Reset() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.mu.Lock()
	err := l.f.Truncate(0)
	if err == nil {
		l.off, l.ext = 0, 0
		l.records.Store(0)
		err = l.extendLocked(0)
	}
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	return l.syncLocked()
}

// Size returns the log's current length in bytes (valid records only).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.off
}

// Records returns the number of records currently in the log.
func (l *Log) Records() uint64 { return l.records.Load() }

// Stats reports the log's durability counters in storage.Stats form:
// cumulative appended bytes (across resets) and fsyncs.
func (l *Log) Stats() storage.Stats {
	return storage.Stats{Fsyncs: l.fsyncs.Load(), WALBytes: l.appended.Load()}
}

// Close syncs (best effort under SyncNever: none) and closes the file. A
// log whose fsync failed closes and returns that failure.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	err := l.err
	if err == nil && l.policy != SyncNever && l.durable < l.appended.Load() {
		err = l.syncLocked()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
