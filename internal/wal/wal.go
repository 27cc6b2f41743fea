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
// Replay walks records from the start and stops at the first frame that
// does not check out — a short header, a length running past the end of
// the file, or a CRC mismatch. Everything from that offset on is a torn
// tail from a crash mid-append: it is truncated away, never replayed, so
// a half-written record can never half-apply. Truncation is detected and
// performed by Open before the log accepts new appends.
//
// Commit policies. SyncAlways fsyncs every commit — an acknowledged
// operation is on stable storage before the call returns. SyncGroup
// fsyncs when the group window has elapsed since the last fsync, so a
// burst of commits shares one fsync (bounded data-at-risk, much higher
// throughput); the engine holds its write lock across a whole batch, so a
// batch is always one commit regardless of policy. SyncNever leaves
// flushing to the OS — the crash-recovery contract then only covers
// records the kernel happened to write out.
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

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTornTail is wrapped by Open's truncation report (see Open) and never
// escapes it; exported so tests can assert the tail classification.
var ErrTornTail = errors.New("wal: torn tail")

// Log is an append-only write-ahead log over a storage.File.
type Log struct {
	mu       sync.Mutex
	f        storage.File
	off      int64 // end of the last fully framed record
	policy   Policy
	window   time.Duration
	lastSync time.Time
	dirty    bool // appends since the last fsync

	appended atomic.Uint64 // bytes appended (frames included)
	fsyncs   atomic.Uint64
	records  atomic.Uint64
}

// Open opens a log over f (commonly an *os.File or a storage.FaultFile),
// scans existing records through replay, truncates any torn tail, and
// positions appends after the last valid record. replay may be nil when
// the caller only wants the scan-and-truncate; it receives each valid
// payload in order and may return an error to abort the open.
func Open(f storage.File, policy Policy, window time.Duration, replay func(payload []byte) error) (*Log, error) {
	if window <= 0 {
		window = DefaultGroupWindow
	}
	l := &Log{f: f, policy: policy, window: window, lastSync: time.Now()}
	end, err := scan(f, func(p []byte) error {
		l.records.Add(1)
		if replay != nil {
			return replay(p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Chop the torn tail (no-op when the file ends exactly at a frame
	// boundary), so garbage can never be mistaken for a future record.
	if err := f.Truncate(end); err != nil {
		return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	l.off = end
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

// scan walks the frames of f from offset 0, calling fn with each valid
// payload, and returns the offset of the first invalid frame — the
// truncation point. Only genuine I/O errors (not framing damage) are
// returned as errors: framing damage is a crash artifact to recover from,
// not a failure.
func scan(f storage.File, fn func([]byte) error) (int64, error) {
	var off int64
	hdr := make([]byte, frameHeader)
	for {
		if _, err := f.ReadAt(hdr, off); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return off, nil // clean end or short header: truncate here
			}
			return off, err
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		if n == 0 || n > 1<<30 {
			return off, nil // zeroed/garbage length
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

// Append frames and writes one record. The record is in the OS page cache
// when Append returns; Commit makes it stable per policy. Callers
// serialize Append/Commit/Reset externally (the engine's write lock);
// the log's own mutex only keeps a misbehaving caller memory-safe.
func (l *Log) Append(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("wal: empty record")
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeader:], payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.WriteAt(frame, l.off); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.off += int64(len(frame))
	l.dirty = true
	l.appended.Add(uint64(len(frame)))
	l.records.Add(1)
	return nil
}

// Commit makes appended records stable per the log's policy. Under
// SyncGroup the fsync happens only when the group window has elapsed
// since the last one; Commit reports whether it fsynced.
func (l *Log) Commit() (synced bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.dirty {
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

// Sync fsyncs unconditionally, regardless of policy — checkpoints and
// Close use it.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.dirty {
		return nil
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	l.fsyncs.Add(1)
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	l.lastSync = time.Now()
	return nil
}

// Reset truncates the log to empty — the checkpoint's final step, once
// every logged effect is safely in the snapshot.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	l.off = 0
	l.dirty = false
	l.records.Store(0)
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

// Close syncs (best effort under SyncNever: none) and closes the file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dirty && l.policy != SyncNever {
		if err := l.syncLocked(); err != nil {
			l.f.Close()
			return err
		}
	}
	return l.f.Close()
}
