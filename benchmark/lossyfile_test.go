package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func mustWrite(t *testing.T, f interface {
	WriteAt([]byte, int64) (int, error)
}, s string, off int64) {
	t.Helper()
	if _, err := f.WriteAt([]byte(s), off); err != nil {
		t.Fatal(err)
	}
}

// TestLossyFileKill: a power cut keeps exactly what each file held at its
// last Sync — appended, overwritten and truncated bytes alike.
func TestLossyFileKill(t *testing.T) {
	dir := t.TempDir()
	g := &lossyGroup{}
	path := filepath.Join(dir, "a")
	f, err := g.open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, f, "0123456789", 0)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, f, "XY", 3)              // overwrites synced bytes
	mustWrite(t, f, "tail", 10)           // appends
	if err := f.Truncate(6); err != nil { // cuts synced bytes and the append
		t.Fatal(err)
	}
	mustWrite(t, f, "zz", 6) // lands where the cut bytes were
	buf := make([]byte, 8)
	if _, err := f.ReadAt(buf, 0); err != nil || string(buf) != "012XY5zz" {
		t.Fatalf("before the cut the process reads %q (%v), want its own writes", buf, err)
	}

	// A file synced and closed before the cut keeps everything.
	kept, err := g.open(filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, kept, "kept", 0)
	if err := kept.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := kept.Close(); err != nil {
		t.Fatal(err)
	}

	g.kill()
	if got, err := os.ReadFile(path); err != nil || string(got) != "0123456789" {
		t.Errorf("after the cut the file holds %q (%v), want what was synced", got, err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "b")); err != nil || string(got) != "kept" {
		t.Errorf("the closed file holds %q (%v), want %q", got, err, "kept")
	}
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, errPowerCut) {
		t.Errorf("write after the cut: %v, want errPowerCut", err)
	}
	if err := f.Sync(); !errors.Is(err, errPowerCut) {
		t.Errorf("sync after the cut: %v, want errPowerCut", err)
	}
	if _, err := g.open(path); !errors.Is(err, errPowerCut) {
		t.Errorf("open after the cut: %v, want errPowerCut", err)
	}
}

// TestLossyFileKillAfterWrites: the armed write lands, fails, and is lost
// with everything else unsynced — across every file of the group.
func TestLossyFileKillAfterWrites(t *testing.T) {
	dir := t.TempDir()
	g := &lossyGroup{}
	a, err := g.open(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.open(filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, a, "synced", 0)
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	g.killAfterWrites(2)
	mustWrite(t, b, "lost", 0)
	if g.dead() {
		t.Fatal("the cut came one write early")
	}
	if _, err := a.WriteAt([]byte("-more"), 6); !errors.Is(err, errPowerCut) {
		t.Fatalf("the armed write: %v, want errPowerCut", err)
	}
	if !g.dead() {
		t.Fatal("the cut did not come")
	}
	for name, want := range map[string]string{"a": "synced", "b": ""} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(got, []byte(want)) {
			t.Errorf("file %s holds %q (%v), want %q", name, got, err, want)
		}
	}
}
