package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/storage"
)

func openTmp(t *testing.T, policy Policy, window time.Duration, replay func([]byte) error) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenPath(path, policy, window, replay)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

func reopen(t *testing.T, path string, replay func([]byte) error) *Log {
	t.Helper()
	l, err := OpenPath(path, SyncAlways, 0, replay)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestWALAppendReplayRoundtrip(t *testing.T) {
	l, path := openTmp(t, SyncAlways, 0, nil)
	var want []string
	for i := 0; i < 50; i++ {
		rec := fmt.Sprintf("record-%03d-%s", i, string(make([]byte, i%7)))
		want = append(want, rec)
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Commit(l.End()); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	reopen(t, path, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d replayed as %q, want %q", i, got[i], want[i])
		}
	}
}

// TestWALTornTailTruncated: every possible torn suffix of a valid log —
// from one missing byte to a header cut mid-way — replays the intact
// prefix and truncates the rest, never replaying a damaged record. The
// file runs past the log (it is extended ahead of the appends), so the
// cuts are made at the log's end, Size.
func TestWALTornTailTruncated(t *testing.T) {
	l, path := openTmp(t, SyncAlways, 0, nil)
	recs := [][]byte{[]byte("alpha"), []byte("beta-beta"), []byte("gamma")}
	var ends []int64
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, l.Size())
	}
	l.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full = full[:ends[2]]

	for cut := len(full) - 1; cut > int(ends[1]); cut-- {
		dir := t.TempDir()
		p := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var n int
		l2 := reopen(t, p, func([]byte) error { n++; return nil })
		if n != 2 {
			t.Fatalf("cut at %d: replayed %d records, want 2", cut, n)
		}
		if l2.Size() != ends[1] {
			t.Fatalf("cut at %d: truncated to %d, want %d", cut, l2.Size(), ends[1])
		}
		// The log accepts appends after the truncated tail.
		if err := l2.Append([]byte("delta")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWALCorruptCRCTruncated(t *testing.T) {
	l, path := openTmp(t, SyncAlways, 0, nil)
	for _, r := range []string{"one", "two", "three"} {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	end := l.Size()
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[end-1] ^= 0xff // corrupt the last record's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []string
	l2 := reopen(t, path, func(p []byte) error { got = append(got, string(p)); return nil })
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("replayed %v, want the two clean records", got)
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) < l2.Size() {
		t.Fatalf("file %d bytes, log ends at %d", len(raw), l2.Size())
	}
	for i := l2.Size(); i < int64(len(raw)); i++ {
		if raw[i] != 0 {
			t.Fatalf("corrupt tail not truncated: byte %d past the log's end %d is %#x", i, l2.Size(), raw[i])
		}
	}
}

// TestWALPolicies counts the fsyncs commits make, from after Open (which
// fsyncs the file's extension under SyncAlways and SyncGroup).
func TestWALPolicies(t *testing.T) {
	// SyncAlways: one fsync per commit.
	l, _ := openTmp(t, SyncAlways, 0, nil)
	base := l.Stats().Fsyncs
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if synced, err := l.Commit(l.End()); err != nil || !synced {
			t.Fatalf("SyncAlways commit = (%v, %v), want (true, nil)", synced, err)
		}
	}
	if got := l.Stats().Fsyncs - base; got != 5 {
		t.Fatalf("SyncAlways: %d fsyncs for 5 commits", got)
	}

	// SyncNever: no fsyncs from commits.
	ln, _ := openTmp(t, SyncNever, 0, nil)
	base = ln.Stats().Fsyncs
	for i := 0; i < 5; i++ {
		if err := ln.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if synced, err := ln.Commit(ln.End()); err != nil || synced {
			t.Fatalf("SyncNever commit = (%v, %v), want (false, nil)", synced, err)
		}
	}
	if got := ln.Stats().Fsyncs - base; got != 0 {
		t.Fatalf("SyncNever: %d fsyncs", got)
	}

	// SyncGroup: a burst of commits inside one window shares fsyncs; an
	// explicit Sync is always honored.
	lg, _ := openTmp(t, SyncGroup, time.Hour, nil)
	base = lg.Stats().Fsyncs
	for i := 0; i < 10; i++ {
		if err := lg.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := lg.Commit(lg.End()); err != nil {
			t.Fatal(err)
		}
	}
	if got := lg.Stats().Fsyncs - base; got != 0 {
		t.Fatalf("SyncGroup inside window: %d fsyncs, want 0", got)
	}
	if err := lg.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := lg.Stats().Fsyncs - base; got != 1 {
		t.Fatalf("explicit Sync: %d fsyncs, want 1", got)
	}
}

func TestWALResetEmptiesLog(t *testing.T) {
	l, path := openTmp(t, SyncAlways, 0, nil)
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte("abc")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 || l.Records() != 0 {
		t.Fatalf("after reset: size %d, records %d", l.Size(), l.Records())
	}
	if err := l.Append([]byte("post")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	var got []string
	reopen(t, path, func(p []byte) error { got = append(got, string(p)); return nil })
	if len(got) != 1 || got[0] != "post" {
		t.Fatalf("replay after reset = %v, want just the post-reset record", got)
	}
}

func TestWALAppendFailurePropagates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	f, err := storage.OpenFaultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(f, SyncAlways, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	f.FailWrite = f.Writes() + 1
	if err := l.Append([]byte("doomed")); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("append over failed write = %v, want ErrInjected", err)
	}
	// The failed frame is not counted; the offset did not advance, so the
	// next append overwrites the torn bytes.
	if err := l.Append([]byte("fine")); err != nil {
		t.Fatal(err)
	}
	var got []string
	l.Close()
	reopen(t, path, func(p []byte) error { got = append(got, string(p)); return nil })
	if len(got) != 1 || got[0] != "fine" {
		t.Fatalf("replay = %v, want just the clean record", got)
	}
}

// BenchmarkReplay times Open over a log of 12,000 short records — the
// scan recovery pays before it applies anything.
func BenchmarkReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "wal.log")
	l, err := OpenPath(path, SyncNever, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	rec := make([]byte, 35)
	for i := 0; i < 12000; i++ {
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	l.Close()
	for b.Loop() {
		l, err := OpenPath(path, SyncNever, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		if l.Records() != 12000 {
			b.Fatalf("replayed %d records, want 12000", l.Records())
		}
		l.Close()
	}
}
