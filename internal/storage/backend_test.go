package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func tmpBackend(t *testing.T, pageSize int) (*FileBackend, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pages.db")
	be, err := OpenFileBackend(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { be.Close() })
	return be, path
}

func TestFileBackendRoundtrip(t *testing.T) {
	be, path := tmpBackend(t, 128)
	img := make([]byte, 128)
	for i := range img {
		img[i] = byte(i * 7)
	}
	if err := be.WritePage(3, img); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 128)
	if err := be.ReadPage(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("page image did not round-trip")
	}
	// Reopen with matching geometry: the image is still there.
	be2, err := OpenFileBackend(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer be2.Close()
	if err := be2.ReadPage(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("page image lost across reopen")
	}
	// Mismatched geometry is refused.
	if _, err := OpenFileBackend(path, 256); err == nil {
		t.Fatal("page-size mismatch not rejected")
	}
}

func TestFileBackendDetectsTornWrite(t *testing.T) {
	be, path := tmpBackend(t, 64)
	img := bytes.Repeat([]byte{0xaa}, 64)
	if err := be.WritePage(1, img); err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte of the stored image on disk.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := be.ReadPage(1, img); !errors.Is(err, ErrChecksum) {
		t.Fatalf("read of torn page = %v, want ErrChecksum", err)
	}
}

func TestFileBackendUnwrittenSlot(t *testing.T) {
	be, _ := tmpBackend(t, 64)
	img := make([]byte, 64)
	if err := be.WritePage(5, img); err != nil {
		t.Fatal(err)
	}
	// Slot 2 sits before 5 in the file but was never written: all zeroes.
	if err := be.ReadPage(2, img); !errors.Is(err, ErrPageUnwritten) {
		t.Fatalf("read of unwritten slot = %v, want ErrPageUnwritten", err)
	}
	// Slot 9 is past the end of the file entirely.
	if err := be.ReadPage(9, img); !errors.Is(err, ErrPageUnwritten) {
		t.Fatalf("read past EOF = %v, want ErrPageUnwritten", err)
	}
}

func TestFaultFileShortWriteAndSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	ff, err := OpenFaultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ff.Close()
	ff.FailWrite = 2
	ff.ShortBytes = 3
	if _, err := ff.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	n, err := ff.WriteAt([]byte("world"), 5)
	if !errors.Is(err, ErrInjected) || n != 3 {
		t.Fatalf("armed write returned (%d, %v), want (3, ErrInjected)", n, err)
	}
	// The torn prefix is on disk; the file stays usable afterwards.
	raw, _ := os.ReadFile(path)
	if string(raw) != "hellowor" {
		t.Fatalf("file holds %q, want %q", raw, "hellowor")
	}
	if _, err := ff.WriteAt([]byte("!"), 8); err != nil {
		t.Fatalf("write after single-shot fault: %v", err)
	}

	ff.FailSync = ff.Syncs() + 1
	if err := ff.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed sync = %v, want ErrInjected", err)
	}
	if err := ff.Sync(); err != nil {
		t.Fatalf("sync after single-shot fault: %v", err)
	}
}

func TestFaultFileKillBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	ff, err := OpenFaultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ff.Close()
	ff.KillAfterBytes = 7
	if _, err := ff.WriteAt([]byte("abcde"), 0); err != nil {
		t.Fatal(err)
	}
	n, err := ff.WriteAt([]byte("fghij"), 5)
	if !errors.Is(err, ErrCrashed) || n != 2 {
		t.Fatalf("budget-crossing write returned (%d, %v), want (2, ErrCrashed)", n, err)
	}
	if !ff.Crashed() {
		t.Fatal("kill point not latched")
	}
	// Everything after the kill fails.
	if _, err := ff.WriteAt([]byte("x"), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write = %v, want ErrCrashed", err)
	}
	if _, err := ff.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read = %v, want ErrCrashed", err)
	}
	if err := ff.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync = %v, want ErrCrashed", err)
	}
	raw, _ := os.ReadFile(path)
	if string(raw) != "abcdefg" {
		t.Fatalf("disk holds %q, want the 7-byte torn prefix %q", raw, "abcdefg")
	}
}

func TestCrashBudgetSharedAcrossFiles(t *testing.T) {
	dir := t.TempDir()
	b := NewCrashBudget(10)
	open := func(name string) *FaultFile {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		ff := NewFaultFile(f)
		ff.Budget = b
		t.Cleanup(func() { ff.Close() })
		return ff
	}
	a, c := open("a"), open("b")
	if _, err := a.WriteAt([]byte("123456"), 0); err != nil {
		t.Fatal(err)
	}
	// 4 budget bytes remain; this 6-byte write on the OTHER file dies.
	n, err := c.WriteAt([]byte("abcdef"), 0)
	if !errors.Is(err, ErrCrashed) || n != 4 {
		t.Fatalf("cross-file budget write returned (%d, %v), want (4, ErrCrashed)", n, err)
	}
	// Both files are dead now.
	if _, err := a.WriteAt([]byte("x"), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("first file survived the shared crash: %v", err)
	}
}

func TestBackedPagerEvictWriteBackAndColdRead(t *testing.T) {
	be, _ := tmpBackend(t, 64)
	p, err := NewPagerBacked(64, 2, be)
	if err != nil {
		t.Fatal(err)
	}
	// Three pages through a two-page pool: allocating the third evicts the
	// least recently used first page, which must be written back.
	pgs := make([]*Page, 3)
	for i := range pgs {
		pgs[i] = p.Alloc("t")
		for j := range pgs[i].Data {
			pgs[i].Data[j] = byte(i + 1)
		}
		if err := p.Write(pgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Reading page 1 is now a pool miss: it comes back from disk through
	// the checksummed backend, bit-identical.
	pg, err := p.Read(pgs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range pg.Data {
		if c != 1 {
			t.Fatalf("cold read returned byte %d, want 1", c)
		}
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
}

// TestReadReturnsAllocatedPage: a page is one object for as long as it
// lives. Read hands back the pointer Alloc returned while the page is
// resident, on the miss that re-fetches its evicted image, and after it.
func TestReadReturnsAllocatedPage(t *testing.T) {
	be, _ := tmpBackend(t, 64)
	p, err := NewPagerBacked(64, 2, be)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Alloc("t")
	if len(a.Data) != 64 {
		t.Fatalf("backed page has a %d-byte image, want 64", len(a.Data))
	}
	a.Data[0] = 0xa5
	if err := p.Write(a); err != nil {
		t.Fatal(err)
	}
	for _, when := range []string{"resident", "evicted", "re-read"} {
		if when == "evicted" {
			p.Alloc("t")
			p.Alloc("t")  // two pages through a two-page pool: a is out
			a.Data[0] = 0 // the image was dropped; only the backend has it
			p.ResetStats()
		}
		got, err := p.Read(a.ID)
		if err != nil || got != a || got.Data[0] != 0xa5 {
			t.Fatalf("%s: Read = %p (image byte %#x), %v; want the allocated page %p", when, got, a.Data[0], err, a)
		}
	}
	if s := p.Stats(); s.Reads != 1 || s.Hits != 1 {
		t.Errorf("after eviction: %+v, want one miss then one hit", s)
	}
}

// TestFlushWritesInPageOrder: a checkpoint's write-back walks the page
// table, so the page file is written front to back.
func TestFlushWritesInPageOrder(t *testing.T) {
	be := &memBackend{}
	p, err := NewPagerBacked(64, 256, be)
	if err != nil {
		t.Fatal(err)
	}
	var want []PageID
	for i := 0; i < 200; i++ {
		pg := p.Alloc("t")
		if i%7 == 3 {
			if err := p.Free(pg.ID); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want = append(want, pg.ID)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(be.writes, want) {
		t.Errorf("flush wrote pages %v, want every live page in ascending order", be.writes)
	}
}

func TestBackedPagerStickyError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	ff, err := OpenFaultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ff.Close()
	be, err := NewFileBackend(ff, 64)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPagerBacked(64, 2, be)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Alloc("t")
	if err := p.Write(a); err != nil {
		t.Fatal(err)
	}
	// Arm: the eviction write-back fails.
	ff.FailWrite = ff.Writes() + 1
	_ = p.Alloc("t")
	_ = p.Alloc("t") // overflows the pool; write-back of a fails, latches
	if err := p.Err(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Err() = %v, want latched ErrInjected", err)
	}
	// Writes now surface the sticky error...
	if err := p.Write(a); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after latch = %v, want ErrInjected", err)
	}
	// ...and the latched error stays the FIRST failure even after more
	// trouble.
	if err := p.Err(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sticky error changed: %v", err)
	}
	// The un-evictable page is still resident and readable.
	if _, err := p.Read(a.ID); err != nil {
		t.Fatalf("read of resident page after latch: %v", err)
	}
}

func TestBackedPagerFlushSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	ff, err := OpenFaultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ff.Close()
	be, err := NewFileBackend(ff, 64)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPagerBacked(64, 8, be)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		pg := p.Alloc("t")
		if err := p.Write(pg); err != nil {
			t.Fatal(err)
		}
	}
	wrote := ff.Writes()
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if ff.Writes() < wrote+4 {
		t.Fatalf("flush wrote %d pages, want at least 4", ff.Writes()-wrote)
	}
	if got := p.Stats().Fsyncs; got == 0 {
		t.Fatalf("flush recorded %d fsyncs, want at least 1", got)
	}
	// A second flush with nothing dirty writes no pages.
	wrote = ff.Writes()
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if ff.Writes() != wrote {
		t.Fatalf("idle flush rewrote %d pages", ff.Writes()-wrote)
	}
}

// TestWriteFileAtomicSyncsDirectoryAfterRename: a rename is durable only
// once its directory is fsynced, and a caller acts on the publication as
// soon as WriteFileAtomic returns — a checkpoint then resets its log. So
// the directory sync comes after the rename and before the return, and
// its failure is the call's.
func TestWriteFileAtomicSyncsDirectoryAfterRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	orig := syncDir
	t.Cleanup(func() { syncDir = orig })
	var synced []string
	syncDir = func(d string) error {
		if got, err := os.ReadFile(path); err != nil || string(got) != "new" {
			t.Errorf("directory synced before the rename: %s holds %q (%v)", path, got, err)
		}
		synced = append(synced, d)
		return orig(d)
	}
	open := func(p string) (File, error) { return os.OpenFile(p, os.O_RDWR|os.O_CREATE, 0o644) }
	write := func(f File) error {
		_, err := f.WriteAt([]byte("new"), 0)
		return err
	}
	if err := WriteFileAtomic(open, path, write); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(synced, []string{dir}) {
		t.Fatalf("synced directories %q, want [%q]", synced, dir)
	}
	syncDir = func(string) error { return ErrInjected }
	if err := WriteFileAtomic(open, path, write); !errors.Is(err, ErrInjected) {
		t.Fatalf("WriteFileAtomic over a failed directory sync returned %v, want ErrInjected", err)
	}
}
