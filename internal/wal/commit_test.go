package wal

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/raceflag"
	"repro/internal/storage"
)

// gateFile is a storage.File whose Sync, once gated, announces itself on
// entered and blocks until the test sends on release.
type gateFile struct {
	storage.File
	gated   atomic.Bool
	syncs   atomic.Int64
	entered chan struct{}
	release chan struct{}
}

func (g *gateFile) Sync() error {
	if g.gated.Load() {
		g.entered <- struct{}{}
		<-g.release
	}
	g.syncs.Add(1)
	return g.File.Sync()
}

// openGated opens a SyncAlways log over a gateFile and arms the gate
// after Open's own fsync.
func openGated(t *testing.T) (*Log, *gateFile) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(t.TempDir(), "wal.log"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	g := &gateFile{File: f, entered: make(chan struct{}, 4), release: make(chan struct{})}
	l, err := Open(g, SyncAlways, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Let an fsync a failed test left blocked finish, so Close can
		// take the sync mutex.
		g.gated.Store(false)
		close(g.release)
		l.Close()
	})
	g.syncs.Store(0)
	g.gated.Store(true)
	return l, g
}

// appendCommit appends one record and starts its commit on a goroutine;
// the returned channel yields the commit's error.
func appendCommit(t *testing.T, l *Log, rec string) <-chan error {
	t.Helper()
	if err := l.Append([]byte(rec)); err != nil {
		t.Fatal(err)
	}
	pos := l.End()
	done := make(chan error, 1)
	go func() {
		_, err := l.Commit(pos)
		done <- err
	}()
	return done
}

func waitFor[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
	var zero T
	return zero
}

// TestCommitWaitsForAnFsyncAfterItsAppend: a record appended while an
// fsync is in flight is not covered by it — its commit returns only after
// the next fsync, even though the one in flight ends first. The append
// itself does not wait for the fsync.
func TestCommitWaitsForAnFsyncAfterItsAppend(t *testing.T) {
	l, g := openGated(t)
	a := appendCommit(t, l, "a")
	waitFor(t, g.entered, "the first fsync")

	b := appendCommit(t, l, "b") // appended during the first fsync
	g.release <- struct{}{}
	if err := waitFor(t, a, "the first commit"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, g.entered, "the second fsync")
	select {
	case err := <-b:
		t.Fatalf("commit returned (%v) on an fsync that began before its append", err)
	default:
	}
	g.release <- struct{}{}
	if err := waitFor(t, b, "the second commit"); err != nil {
		t.Fatal(err)
	}
	if got := g.syncs.Load(); got != 2 {
		t.Fatalf("%d fsyncs, want 2", got)
	}
}

// TestConcurrentCommitsShareFsync: two records appended during one blocked
// fsync are both covered by the next one — 2 fsyncs for 3 commits.
func TestConcurrentCommitsShareFsync(t *testing.T) {
	l, g := openGated(t)
	a := appendCommit(t, l, "a")
	waitFor(t, g.entered, "the first fsync")
	b := appendCommit(t, l, "b")
	c := appendCommit(t, l, "c")
	g.release <- struct{}{}
	waitFor(t, g.entered, "the second fsync")
	g.release <- struct{}{}
	for _, ch := range []<-chan error{a, b, c} {
		if err := waitFor(t, ch, "a commit"); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.syncs.Load(); got != 2 {
		t.Fatalf("%d fsyncs for 3 commits, want 2", got)
	}
	if got := len(g.entered); got != 0 {
		t.Fatalf("%d more fsyncs started, want none", got)
	}
}

// TestFsyncFailureIsSticky: after a failed fsync every later append,
// commit and sync fails with the same error, and none of them fsyncs
// again — the kernel may already have dropped the pages it failed to write.
func TestFsyncFailureIsSticky(t *testing.T) {
	f, err := storage.OpenFaultFile(filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(f, SyncAlways, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("fine")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit(l.End()); err != nil {
		t.Fatal(err)
	}
	f.FailSync = f.Syncs() + 1
	if err := l.Append([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	pos := l.End()
	if _, err := l.Commit(pos); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("commit over failed fsync = %v, want ErrInjected", err)
	}
	syncs := f.Syncs()
	if _, err := l.Commit(pos); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("retried commit = %v, want ErrInjected", err)
	}
	if err := l.Append([]byte("later")); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("append after failed fsync = %v, want ErrInjected", err)
	}
	if _, err := l.Commit(l.End()); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("later commit = %v, want ErrInjected", err)
	}
	if err := l.Sync(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("sync after failed fsync = %v, want ErrInjected", err)
	}
	if err := l.Reset(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("reset after failed fsync = %v, want ErrInjected", err)
	}
	if got := f.Syncs(); got != syncs {
		t.Fatalf("fsyncs grew %d → %d after the failure", syncs, got)
	}
}

// TestGarbageLengthAllocatesNothing: replay checks a frame's length
// against the file before it allocates the payload, so a torn header
// claiming a gigabyte costs nothing.
func TestGarbageLengthAllocatesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	raw := make([]byte, 100)
	copy(raw, []byte{0x3f, 0xff, 0xff, 0xff}) // 1<<30 - 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var n int
	l, err := OpenPath(path, SyncNever, 0, func([]byte) error { n++; return nil })
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n != 0 || l.Size() != 0 {
		t.Fatalf("replayed %d records, log ends at %d; want nothing", n, l.Size())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("replaying a torn header allocated %d bytes", grew)
	}
}

// TestAppendAllocs: a steady-state append frames its record in the log's
// own buffer.
func TestAppendAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	l, _ := openTmp(t, SyncNever, 0, nil)
	rec := make([]byte, 200)
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Append: %.1f allocs, want 0", n)
	}
}
