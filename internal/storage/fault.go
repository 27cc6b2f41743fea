package storage

import (
	"errors"
	"os"
	"sync"
)

// ErrInjected is the error every injected fault reports (wrapped); tests
// assert with errors.Is that a failure came from the injector rather than
// the real filesystem.
var ErrInjected = errors.New("storage: injected fault")

// ErrCrashed reports an operation against a FaultFile that already hit its
// kill point — the simulated process is dead and every subsequent
// operation fails, like a pulled disk.
var ErrCrashed = errors.New("storage: simulated crash")

// CrashBudget is a write-byte budget shared by every FaultFile of one
// simulated process. The crash-recovery gate arms one budget over a
// durable engine's whole file set (WAL, page file and checkpoint
// temporary), so the kill point can land in any of them — whichever file
// happens to receive the write that crosses the budget dies mid-write with
// a torn prefix, and every file of the set fails from then on, exactly
// like the process being killed.
type CrashBudget struct {
	mu        sync.Mutex
	remaining int64
	crashed   bool
}

// NewCrashBudget returns a budget of n write bytes.
func NewCrashBudget(n int64) *CrashBudget { return &CrashBudget{remaining: n} }

// Crashed reports whether the budget has been exhausted.
func (b *CrashBudget) Crashed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.crashed
}

// take charges n bytes against the budget. It returns how many of them fit
// (the torn prefix when the budget dies on this charge) and whether the
// process is now — or already was — dead.
func (b *CrashBudget) take(n int64) (fit int64, dead bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.crashed {
		return 0, true
	}
	if n > b.remaining {
		fit = b.remaining
		b.remaining = 0
		b.crashed = true
		return fit, true
	}
	b.remaining -= n
	return n, false
}

// FaultFile wraps a File and injects failures at configured points. It is
// the seam the crash-recovery differential gate drives: a write budget
// models the process dying mid-write (everything up to the kill point is
// durably on disk, the killing write may land a torn prefix, everything
// after fails), and the explicit knobs model single I/O errors (a failed
// fsync, a short write) without killing the file.
//
// All configuration is read at operation time under a mutex, so a test may
// arm faults between operations.
type FaultFile struct {
	Inner File

	mu sync.Mutex

	// Budget, when non-nil, is a write-byte budget shared with the other
	// files of the same simulated process; it takes precedence over
	// KillAfterBytes. A Truncate charges one byte, so kill points also land
	// between a checkpoint's rename and its log reset.
	Budget *CrashBudget

	// KillAfterBytes, when >= 0, is the total write-byte budget: the write
	// crossing the budget persists only the bytes that fit (a torn write)
	// and fails; every later operation fails with ErrCrashed. -1 disables.
	KillAfterBytes int64

	// FailWrite, when > 0, fails the Nth WriteAt (1-based) with ErrInjected
	// after persisting ShortBytes of it; the file stays usable afterwards.
	FailWrite  int
	ShortBytes int

	// FailSync, when > 0, fails the Nth Sync (1-based) with ErrInjected.
	FailSync int

	writes  int
	syncs   int
	written int64
	crashed bool
}

// NewFaultFile wraps f with no faults armed (KillAfterBytes -1).
func NewFaultFile(f File) *FaultFile {
	return &FaultFile{Inner: f, KillAfterBytes: -1}
}

// OpenFaultFile opens path read-write (creating it) behind a FaultFile.
func OpenFaultFile(path string) (*FaultFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return NewFaultFile(f), nil
}

// Writes returns how many WriteAt calls the file has seen.
func (ff *FaultFile) Writes() int { ff.mu.Lock(); defer ff.mu.Unlock(); return ff.writes }

// Syncs returns how many Sync calls the file has seen.
func (ff *FaultFile) Syncs() int { ff.mu.Lock(); defer ff.mu.Unlock(); return ff.syncs }

// Crashed reports whether the kill point has been hit.
func (ff *FaultFile) Crashed() bool { ff.mu.Lock(); defer ff.mu.Unlock(); return ff.crashed }

// dead reports whether the file's process is dead: its own kill point hit
// or the shared budget exhausted elsewhere.
func (ff *FaultFile) dead() bool {
	return ff.crashed || (ff.Budget != nil && ff.Budget.Crashed())
}

func (ff *FaultFile) ReadAt(p []byte, off int64) (int, error) {
	ff.mu.Lock()
	dead := ff.dead()
	ff.mu.Unlock()
	if dead {
		return 0, ErrCrashed
	}
	return ff.Inner.ReadAt(p, off)
}

func (ff *FaultFile) WriteAt(p []byte, off int64) (int, error) {
	ff.mu.Lock()
	if ff.dead() {
		ff.mu.Unlock()
		return 0, ErrCrashed
	}
	ff.writes++
	// Single-shot short/failed write.
	if ff.FailWrite > 0 && ff.writes == ff.FailWrite {
		short := ff.ShortBytes
		if short > len(p) {
			short = len(p)
		}
		ff.mu.Unlock()
		if short > 0 {
			ff.Inner.WriteAt(p[:short], off) //nolint:errcheck // best-effort torn prefix
		}
		return short, ErrInjected
	}
	// Shared kill budget: persist the prefix that fits, then die.
	if ff.Budget != nil {
		ff.mu.Unlock()
		fit, dead := ff.Budget.take(int64(len(p)))
		if dead {
			ff.mu.Lock()
			ff.crashed = true
			ff.mu.Unlock()
			if fit > 0 {
				ff.Inner.WriteAt(p[:fit], off) //nolint:errcheck // best-effort torn prefix
			}
			return int(fit), ErrCrashed
		}
		return ff.Inner.WriteAt(p, off)
	}
	// Per-file kill budget, same semantics.
	if ff.KillAfterBytes >= 0 && ff.written+int64(len(p)) > ff.KillAfterBytes {
		fit := ff.KillAfterBytes - ff.written
		if fit < 0 {
			fit = 0
		}
		ff.written += fit
		ff.crashed = true
		ff.mu.Unlock()
		if fit > 0 {
			ff.Inner.WriteAt(p[:fit], off) //nolint:errcheck // best-effort torn prefix
		}
		return int(fit), ErrCrashed
	}
	ff.written += int64(len(p))
	ff.mu.Unlock()
	return ff.Inner.WriteAt(p, off)
}

func (ff *FaultFile) Sync() error {
	ff.mu.Lock()
	if ff.dead() {
		ff.mu.Unlock()
		return ErrCrashed
	}
	ff.syncs++
	if ff.FailSync > 0 && ff.syncs == ff.FailSync {
		ff.mu.Unlock()
		return ErrInjected
	}
	ff.mu.Unlock()
	return ff.Inner.Sync()
}

func (ff *FaultFile) Truncate(size int64) error {
	ff.mu.Lock()
	if ff.dead() {
		ff.mu.Unlock()
		return ErrCrashed
	}
	ff.mu.Unlock()
	// A truncate charges one budget byte, so kill points land between a
	// checkpoint's snapshot rename and its WAL reset too.
	if ff.Budget != nil {
		if _, dead := ff.Budget.take(1); dead {
			ff.mu.Lock()
			ff.crashed = true
			ff.mu.Unlock()
			return ErrCrashed
		}
	}
	return ff.Inner.Truncate(size)
}

func (ff *FaultFile) Close() error { return ff.Inner.Close() }
