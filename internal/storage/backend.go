package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// File is the subset of *os.File the storage layer writes through. It is
// an interface so the fault injector (FaultFile) can sit between the pager
// or the write-ahead log and the real file, failing the Nth write, cutting
// a write short, or erroring an fsync — the crash-recovery gate drives
// every durability path through these seams.
type File interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

// WriteFileAtomic publishes a file all or nothing: it writes path+".tmp"
// through the open seam, fsyncs it and only then renames it over path, so
// a reader finds the previous complete file or the new one — a crash
// leaves at worst a torn temporary, which no reader opens. It returns
// after fsyncing path's directory, so the rename is durable too and the
// caller may then drop what the new file supersedes. write receives the
// empty temporary.
func WriteFileAtomic(open func(string) (File, error), path string, write func(File) error) error {
	tmp := path + ".tmp"
	f, err := open(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // already gone after a successful rename
	err = f.Truncate(0)
	if err == nil {
		err = write(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory, making the entries renamed or created in it
// durable.
func SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err == nil {
		err = f.Sync()
		f.Close()
	}
	return err
}

// syncDir is the SyncDir WriteFileAtomic calls: a variable so this
// package's tests can observe the call.
var syncDir = SyncDir

// ErrChecksum reports a page slot whose stored checksum does not match its
// payload — a torn or corrupted write. Callers test with errors.Is.
var ErrChecksum = errors.New("storage: page checksum mismatch")

// ErrPageUnwritten reports a read of a page slot never fully written —
// the file ends before the slot, or the slot's page-ID echo is zero.
var ErrPageUnwritten = errors.New("storage: page slot unwritten")

// Backend persists fixed-size page images. Implementations must be safe
// for concurrent use.
type Backend interface {
	// ReadPage fills buf (exactly the backend's page size) with the page's
	// last fully written image, verifying its checksum.
	ReadPage(id PageID, buf []byte) error
	// WritePage durably-writes the page image (fsync is separate: Sync).
	WritePage(id PageID, data []byte) error
	// Sync flushes written pages to stable storage.
	Sync() error
	// Close releases the backend. Pages are not implicitly synced.
	Close() error
}

// Slot layout of the page file: page N lives at offset N*slotSize (slot 0
// is the file header), framed so a torn write is detectable:
//
//	[0:4)   crc32 (Castagnoli) of bytes [4 : 16+pageSize)
//	[4:12)  page ID echo (big endian) — catches misdirected writes
//	[12:16) payload length actually meaningful (<= pageSize)
//	[16:)   page image, pageSize bytes
const slotHeader = 16

// fileHeader occupies slot 0: magic, version and the page size, so a
// reopen can reject a file written with different geometry.
var fileMagic = [4]byte{'I', 'X', 'P', 'G'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FileBackend stores page slots in a single file at fixed offsets, each
// slot CRC-framed (see the slot layout above). It is the disk half of the
// disk-backed pager: buffer-pool misses become preads here, dirty
// write-backs become pwrites, and a torn slot surfaces as ErrChecksum
// instead of silent corruption.
type FileBackend struct {
	f        File
	pageSize int
	slotSize int64

	mu     sync.Mutex // guards the lazily written header's flag and the slot buffer
	wroteH bool
	slot   []byte // one framed slot, reused by every read and write
}

// OpenFileBackend opens (creating if needed) a page file for the given
// page size. An existing file must carry a matching header.
func OpenFileBackend(path string, pageSize int) (*FileBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	be, err := NewFileBackend(f, pageSize)
	if err != nil {
		f.Close()
		return nil, err
	}
	return be, nil
}

// NewFileBackend wraps an already-open file (possibly a FaultFile) as a
// page backend. An existing non-empty file must carry a matching header.
func NewFileBackend(f File, pageSize int) (*FileBackend, error) {
	if pageSize < 16 {
		return nil, fmt.Errorf("storage: page size %d too small", pageSize)
	}
	be := &FileBackend{f: f, pageSize: pageSize, slotSize: int64(slotHeader + pageSize), slot: make([]byte, slotHeader+pageSize)}
	hdr := make([]byte, slotHeader)
	_, err := f.ReadAt(hdr, 0)
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		// Fresh file: header written lazily with the first page write.
	case err != nil:
		return nil, err
	default:
		if [4]byte(hdr[0:4]) != fileMagic {
			return nil, fmt.Errorf("storage: %w: bad page-file magic", ErrChecksum)
		}
		if got := int(binary.BigEndian.Uint32(hdr[8:12])); got != pageSize {
			return nil, fmt.Errorf("storage: page file has page size %d, want %d", got, pageSize)
		}
		be.wroteH = true
	}
	return be, nil
}

// WritePage frames and writes the page image at its fixed offset, the
// slot-0 file header first if the file has none yet.
func (be *FileBackend) WritePage(id PageID, data []byte) error {
	if len(data) != be.pageSize {
		return fmt.Errorf("storage: page %d image is %d bytes, want %d", id, len(data), be.pageSize)
	}
	if id == 0 {
		return fmt.Errorf("storage: write of page 0")
	}
	be.mu.Lock()
	defer be.mu.Unlock()
	if !be.wroteH {
		hdr := make([]byte, slotHeader)
		copy(hdr[0:4], fileMagic[:])
		binary.BigEndian.PutUint32(hdr[4:8], 1) // version
		binary.BigEndian.PutUint32(hdr[8:12], uint32(be.pageSize))
		if _, err := be.f.WriteAt(hdr, 0); err != nil {
			return err
		}
		be.wroteH = true
	}
	slot := be.slot
	binary.BigEndian.PutUint64(slot[4:12], uint64(id))
	binary.BigEndian.PutUint32(slot[12:16], uint32(len(data)))
	copy(slot[slotHeader:], data)
	binary.BigEndian.PutUint32(slot[0:4], crc32.Checksum(slot[4:], castagnoli))
	_, err := be.f.WriteAt(slot, int64(id)*be.slotSize)
	return err
}

// ReadPage reads and verifies the page's slot into buf.
func (be *FileBackend) ReadPage(id PageID, buf []byte) error {
	if len(buf) != be.pageSize {
		return fmt.Errorf("storage: page %d buffer is %d bytes, want %d", id, len(buf), be.pageSize)
	}
	be.mu.Lock()
	defer be.mu.Unlock()
	slot := be.slot
	if _, err := be.f.ReadAt(slot, int64(id)*be.slotSize); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("storage: page %d: %w", id, ErrPageUnwritten)
		}
		return err
	}
	if binary.BigEndian.Uint64(slot[4:12]) != uint64(id) {
		if isZero(slot) {
			return fmt.Errorf("storage: page %d: %w", id, ErrPageUnwritten)
		}
		return fmt.Errorf("storage: page %d: %w (slot holds page %d)", id, ErrChecksum, binary.BigEndian.Uint64(slot[4:12]))
	}
	if crc32.Checksum(slot[4:], castagnoli) != binary.BigEndian.Uint32(slot[0:4]) {
		return fmt.Errorf("storage: page %d: %w", id, ErrChecksum)
	}
	copy(buf, slot[slotHeader:])
	return nil
}

// Sync fsyncs the page file.
func (be *FileBackend) Sync() error { return be.f.Sync() }

// Close closes the page file without syncing.
func (be *FileBackend) Close() error { return be.f.Close() }

func isZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
