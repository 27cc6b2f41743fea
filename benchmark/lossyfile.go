package main

import (
	"errors"
	"os"
	"sync"

	"repro/internal/storage"
)

// errPowerCut reports an operation against a lossyFile after its group
// was killed.
var errPowerCut = errors.New("benchmark: simulated power cut")

// lossyGroup is the set of files of one simulated machine. Killing it is
// a power cut, not a process kill: every byte written to any of its files
// since that file's last Sync is discarded, as an operating system's page
// cache would be. storage.FaultFile keeps such bytes, which is what a
// killed process leaves behind; a durability check needs the harsher
// model, or it passes for an engine that never syncs.
type lossyGroup struct {
	mu     sync.Mutex
	files  []*lossyFile
	killed bool
	// writesLeft, when positive, counts down on every WriteAt of the
	// group; the write that brings it to zero lands and then the power is
	// cut, so the kill falls inside an operation, between its append and
	// its fsync.
	writesLeft int
}

// lossyFile is a storage.File whose writes reach the real file at once —
// reads, renames and the benchmark's I/O costs stay real — while an undo
// log remembers how to take back everything written since the last Sync.
type lossyFile struct {
	g       *lossyGroup
	f       *os.File
	size    int64 // current length
	durable int64 // length at the last Sync
	// saveBelow is the offset below which a write overwrites synced bytes
	// and must save them first. It is durable, lowered by truncations:
	// their own undo record restores what lay above.
	saveBelow int64
	undo      []undoRec
	closed    bool
}

// undoRec restores old at off; records are applied newest first.
type undoRec struct {
	off int64
	old []byte
}

// open opens path read-write, creating it, as a file of the group. It is
// the engine's DurableOptions.OpenFile.
func (g *lossyGroup) open(path string) (storage.File, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.killed {
		return nil, errPowerCut
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	// What the file holds when the group first sees it is taken as synced.
	lf := &lossyFile{g: g, f: f, size: st.Size(), durable: st.Size(), saveBelow: st.Size()}
	g.files = append(g.files, lf)
	return lf, nil
}

// killAfterWrites arms the power cut n WriteAt calls from now.
func (g *lossyGroup) killAfterWrites(n int) {
	g.mu.Lock()
	g.writesLeft = n
	g.mu.Unlock()
}

// dead reports whether the power has been cut.
func (g *lossyGroup) dead() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.killed
}

// kill cuts the power now: unsynced bytes are taken back, every file is
// closed, and every later operation fails.
func (g *lossyGroup) kill() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.killLocked()
}

func (g *lossyGroup) killLocked() {
	if g.killed {
		return
	}
	g.killed = true
	for _, lf := range g.files {
		if lf.closed {
			continue
		}
		// Best effort, like the crash it models: a failure here can only
		// leave more unsynced bytes behind, which recovery must survive too.
		for i := len(lf.undo) - 1; i >= 0; i-- {
			lf.f.WriteAt(lf.undo[i].old, lf.undo[i].off) //nolint:errcheck
		}
		lf.f.Truncate(lf.durable) //nolint:errcheck
		lf.f.Close()              //nolint:errcheck
		lf.closed = true
	}
}

func (lf *lossyFile) ReadAt(p []byte, off int64) (int, error) {
	lf.g.mu.Lock()
	defer lf.g.mu.Unlock()
	if lf.g.killed {
		return 0, errPowerCut
	}
	return lf.f.ReadAt(p, off)
}

// save records the synced bytes of [off, end) before they are overwritten
// or cut off.
func (lf *lossyFile) save(off, end int64) error {
	if end = min(end, lf.saveBelow); off >= end {
		return nil
	}
	old := make([]byte, end-off)
	if _, err := lf.f.ReadAt(old, off); err != nil {
		return err
	}
	lf.undo = append(lf.undo, undoRec{off: off, old: old})
	return nil
}

func (lf *lossyFile) WriteAt(p []byte, off int64) (int, error) {
	g := lf.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.killed {
		return 0, errPowerCut
	}
	if err := lf.save(off, off+int64(len(p))); err != nil {
		return 0, err
	}
	n, err := lf.f.WriteAt(p, off)
	lf.size = max(lf.size, off+int64(n))
	if g.writesLeft > 0 {
		if g.writesLeft--; g.writesLeft == 0 {
			g.killLocked()
			return n, errPowerCut
		}
	}
	return n, err
}

func (lf *lossyFile) Truncate(size int64) error {
	lf.g.mu.Lock()
	defer lf.g.mu.Unlock()
	if lf.g.killed {
		return errPowerCut
	}
	if err := lf.save(size, lf.durable); err != nil {
		return err
	}
	lf.saveBelow = min(lf.saveBelow, size)
	if err := lf.f.Truncate(size); err != nil {
		return err
	}
	lf.size = size
	return nil
}

func (lf *lossyFile) Sync() error {
	lf.g.mu.Lock()
	defer lf.g.mu.Unlock()
	if lf.g.killed {
		return errPowerCut
	}
	if err := lf.f.Sync(); err != nil {
		return err
	}
	lf.undo, lf.durable, lf.saveBelow = nil, lf.size, lf.size
	return nil
}

// Close closes the file. The engine syncs every recovery file before it
// closes it, so a closed file has nothing left to lose and leaves the
// group's care.
func (lf *lossyFile) Close() error {
	lf.g.mu.Lock()
	defer lf.g.mu.Unlock()
	if lf.closed {
		return nil
	}
	lf.closed = true
	return lf.f.Close()
}
