// Package storage provides the paged storage substrate for the working
// index implementations and the object store. Its pager is an access
// counter with a buffer-pool model: owners hold their pages by pointer and
// keep the contents parsed beside them; the pager counts every read and
// write of a page (the paper's sole cost factor) and decides, through an
// optional LRU pool, which reads are hits. That count is what lets
// experiment V1 compare the analytic cost model against a running system.
// Only a disk-backed pager keeps a byte image per page.
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// PageID identifies a page. Zero is never a valid page.
type PageID uint64

// Page is one page of a pager and the single home of what the pager knows
// about it. Tag is free for owners (e.g. which class a page stores objects
// of). Data is the page-size image of a disk-backed pager's page; without
// a backend nothing reads an image and Data is nil.
//
// The unexported fields are the page's buffer-pool state, guarded by the
// pager's pool lock.
type Page struct {
	ID   PageID
	Data []byte
	Tag  string

	prev, next *Page // neighbours in the recency list while inPool
	inPool     bool
	freed      bool // retired by Free
	dirty      bool // backed: image written since the last write-back
	evicted    bool // backed: image dropped; the next Read re-fetches it
}

// Stats counts page-level operations since the last reset.
type Stats struct {
	Reads  uint64 // pages fetched (buffer misses when a pool is active)
	Writes uint64 // pages written back
	Allocs uint64 // pages allocated
	Frees  uint64 // pages freed
	Hits   uint64 // buffer pool hits (not counted as Reads)

	// Durability counters. A plain pager leaves them zero; a disk-backed
	// pager counts its backend fsyncs, and the engine folds its write-ahead
	// log's fsync and byte counts in so durability cost is visible next to
	// page accesses.
	Fsyncs   uint64 // fsync calls issued (page file + WAL)
	WALBytes uint64 // bytes appended to the write-ahead log
}

// Accesses returns reads+writes, the paper's page-access metric.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Add accumulates o into s, counter by counter; for summing the stats of
// several pagers (e.g. one per subpath index).
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Allocs += o.Allocs
	s.Frees += o.Frees
	s.Hits += o.Hits
	s.Fsyncs += o.Fsyncs
	s.WALBytes += o.WALBytes
}

// numStripes shards the counters so concurrent readers touching different
// pages do not contend on one cache line. Must be a power of two.
const numStripes = 8

// counterStripe is one shard of the counters. The stripes start wherever
// the Pager places them, 8-byte aligned, so padding a stripe to 64 bytes
// would still let it straddle two cache lines and share one with each
// neighbour. A full line of padding ahead of the counters instead keeps
// every stripe's counters 64 bytes from the next stripe's, and the first
// stripe's from the Pager fields before the array, which every read loads:
// no two of them can share a line.
type counterStripe struct {
	_                                  [64]byte
	reads, writes, allocs, frees, hits atomic.Uint64
}

// pageChunk holds the page-table slots of 1<<chunkBits consecutive page
// IDs: 512 slots, one 4 KiB block.
type pageChunk [1 << chunkBits]atomic.Pointer[Page]

const chunkBits = 9

// Pager is a page-access counter with a buffer-pool model: it hands out
// pages, counts every read and write of one, and with a pool of capacity
// c > 0 counts the read of a resident page as a hit instead; c == 0 is the
// paper's cost convention, in which every record access is a page access.
// With a backend the pool is real: an eviction writes a dirty page back and
// drops its image, and the next Read of the page pays a backend read.
// Without one the pool only decides hit or miss.
//
// One table describes the pages. IDs are handed out consecutively and
// never reused, so it is a dense array of atomic page pointers, cut into
// chunks so that growth never moves a published slot; a slot is nil before
// its page is allocated and after it is freed. The unbuffered read — the
// serving hot path — is lock-free: the slot load plus one increment of a
// striped, cache-line-padded counter chosen by page ID. Only the recency
// list, which every buffered access mutates, takes a mutex.
type Pager struct {
	pageSize int

	table    atomic.Pointer[[]*pageChunk] // chunk directory; copied, under structMu, to add a chunk
	numPages atomic.Int64

	structMu sync.Mutex // serializes Alloc: guards next and table growth
	next     PageID

	stripes [numStripes]counterStripe
	fsyncs  atomic.Uint64

	backend Backend // nil in memory mode

	// sticky latches the first backend failure observed on a path that
	// cannot return it (an eviction write-back inside touchLocked); Err
	// exposes it, and oodb.Store checks it after page operations.
	sticky atomic.Pointer[error]

	// LRU buffer pool; lruMu guards the ring, every page's unexported state
	// and scratch. A miss does its backend I/O under this lock: misses
	// serialize, acceptable because the serving hot path is expected to hit.
	capacity int
	lruMu    sync.Mutex
	lru      Page // ring sentinel: lru.next is the most recently used page, lru.prev the victim
	resident int  // pages in the ring
	scratch  []byte
}

// NewPager returns a pager with the given page size and buffer-pool
// capacity (0 disables buffering; every read counts).
func NewPager(pageSize, capacity int) (*Pager, error) {
	if pageSize < 16 {
		return nil, fmt.Errorf("storage: page size %d too small", pageSize)
	}
	if capacity < 0 {
		return nil, fmt.Errorf("storage: negative buffer capacity %d", capacity)
	}
	p := &Pager{pageSize: pageSize, next: 1, capacity: capacity}
	p.table.Store(new([]*pageChunk))
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	return p, nil
}

// MustNewPager is NewPager panicking on error.
func MustNewPager(pageSize, capacity int) *Pager {
	p, err := NewPager(pageSize, capacity)
	if err != nil {
		panic(err)
	}
	return p
}

// NewPagerBacked returns a disk-backed pager: page images live in be's
// file and the LRU pool holds the working set (capacity > 0 required — with
// no pool nothing could ever be resident).
func NewPagerBacked(pageSize, capacity int, be Backend) (*Pager, error) {
	if be == nil {
		return nil, fmt.Errorf("storage: nil backend")
	}
	if capacity < 1 {
		return nil, fmt.Errorf("storage: disk-backed pager needs a buffer pool (capacity %d)", capacity)
	}
	p, err := NewPager(pageSize, capacity)
	if err != nil {
		return nil, err
	}
	p.backend = be
	p.scratch = make([]byte, pageSize)
	return p, nil
}

// Backend returns the pager's backend (nil in memory mode).
func (p *Pager) Backend() Backend { return p.backend }

// Err returns the pager's sticky error: the first backend failure hit on
// a path that could not return it (an eviction write-back). Paths that can
// return errors (Read, Write, Flush, Sync) both return and latch them.
func (p *Pager) Err() error {
	if e := p.sticky.Load(); e != nil {
		return *e
	}
	return nil
}

// fail latches err as the sticky error (first one wins) and returns it.
func (p *Pager) fail(err error) error {
	if err != nil {
		p.sticky.CompareAndSwap(nil, &err)
	}
	return err
}

// PageSize returns the page size in bytes.
func (p *Pager) PageSize() int { return p.pageSize }

// stripe returns the counter shard for a page.
func (p *Pager) stripe(id PageID) *counterStripe {
	return &p.stripes[uint64(id)&(numStripes-1)]
}

// slot returns id's table slot, nil when no page was ever given that ID.
func (p *Pager) slot(id PageID) *atomic.Pointer[Page] {
	dir := *p.table.Load()
	if c := uint64(id) >> chunkBits; c < uint64(len(dir)) {
		return &dir[c][id&(1<<chunkBits-1)]
	}
	return nil
}

// Alloc allocates a new page. In disk-backed mode it has a zeroed image
// and is born dirty (never written back); an eviction forced by the
// allocation may hit a backend failure, which latches as the sticky error.
func (p *Pager) Alloc(tag string) *Page {
	pg := &Page{Tag: tag}
	if p.backend != nil {
		pg.Data, pg.dirty = make([]byte, p.pageSize), true
	}
	p.structMu.Lock()
	pg.ID = p.next
	p.next++
	if p.slot(pg.ID) == nil {
		dir := *p.table.Load()
		dir = append(dir[:len(dir):len(dir)], new(pageChunk)) // always copies: readers keep the old one
		p.table.Store(&dir)
	}
	p.slot(pg.ID).Store(pg)
	p.numPages.Add(1)
	p.structMu.Unlock()
	p.stripe(pg.ID).allocs.Add(1)
	if p.capacity > 0 {
		p.lruMu.Lock()
		p.touchLocked(pg)
		p.lruMu.Unlock()
	}
	return pg
}

// Read fetches a page, counting a read unless it is buffer-resident. With
// no buffer pool the call is entirely lock-free: a page-table load plus one
// striped atomic increment.
func (p *Pager) Read(id PageID) (*Page, error) {
	var pg *Page
	if s := p.slot(id); s != nil {
		pg = s.Load()
	}
	if pg == nil {
		return nil, fmt.Errorf("storage: read of unknown page %d", id)
	}
	st := p.stripe(id)
	if p.capacity == 0 {
		st.reads.Add(1)
		return pg, nil
	}
	p.lruMu.Lock()
	defer p.lruMu.Unlock()
	if pg.freed { // since the table load
		return nil, fmt.Errorf("storage: read of unknown page %d", id)
	}
	if pg.inPool {
		st.hits.Add(1)
	} else {
		st.reads.Add(1)
		// Disk-backed miss of a page whose image was evicted: re-fetch it —
		// the real I/O a buffer miss costs — into the scratch buffer first,
		// so a torn or failing read never clobbers the in-memory copy.
		if pg.evicted {
			if err := p.backend.ReadPage(id, p.scratch); err != nil {
				return nil, p.fail(fmt.Errorf("storage: re-reading page %d: %w", id, err))
			}
			copy(pg.Data, p.scratch)
			pg.evicted = false
		}
	}
	p.touchLocked(pg)
	return pg, nil
}

// Write marks a page written back, counting a write. In disk-backed mode
// the page becomes dirty; the image reaches the backend on eviction or at
// the next Flush.
func (p *Pager) Write(pg *Page) error {
	if s := p.slot(pg.ID); s == nil || s.Load() != pg {
		return fmt.Errorf("storage: write of unknown page %d", pg.ID)
	}
	p.stripe(pg.ID).writes.Add(1)
	if p.capacity == 0 {
		return nil
	}
	p.lruMu.Lock()
	if p.backend != nil {
		pg.dirty = true
		pg.evicted = false // the in-memory image is now the newest
	}
	p.touchLocked(pg)
	p.lruMu.Unlock()
	return p.Err() // nil in memory mode: only a backend failure latches
}

// Flush writes every dirty page image to the backend, in page order, and
// fsyncs it — the buffer-pool half of a checkpoint. No-op in memory mode.
func (p *Pager) Flush() error {
	if p.backend == nil {
		return nil
	}
	for _, chunk := range *p.table.Load() {
		for i := range chunk {
			pg := chunk[i].Load()
			if pg == nil {
				continue
			}
			p.lruMu.Lock()
			err := p.writeBackLocked(pg)
			p.lruMu.Unlock()
			if err != nil {
				return p.fail(err)
			}
		}
	}
	return p.Sync()
}

// writeBackLocked writes pg's image to the backend if it is dirty.
func (p *Pager) writeBackLocked(pg *Page) error {
	if !pg.dirty {
		return nil
	}
	if err := p.backend.WritePage(pg.ID, pg.Data); err != nil {
		return err
	}
	pg.dirty = false
	return nil
}

// Sync fsyncs the backend, counting the fsync. No-op in memory mode.
func (p *Pager) Sync() error {
	if p.backend == nil {
		return nil
	}
	p.fsyncs.Add(1)
	return p.fail(p.backend.Sync())
}

// Free releases a page. Its ID is never handed out again.
func (p *Pager) Free(id PageID) error {
	var pg *Page
	if s := p.slot(id); s != nil {
		pg = s.Swap(nil) // of two racing frees, one gets the page
	}
	if pg == nil {
		return fmt.Errorf("storage: free of unknown page %d", id)
	}
	p.numPages.Add(-1)
	p.stripe(id).frees.Add(1)
	if p.capacity > 0 {
		p.lruMu.Lock()
		pg.freed = true
		if pg.inPool {
			p.unlink(pg)
		}
		p.lruMu.Unlock()
	}
	return nil
}

// touchLocked makes pg the most recently used page of the pool, admitting
// it if it was not resident and evicting the least recently used beyond
// capacity — pointer splices only. Caller holds lruMu.
func (p *Pager) touchLocked(pg *Page) {
	if pg.inPool {
		if p.lru.next == pg {
			return
		}
		p.unlink(pg)
	} else if pg.freed {
		// Freed by a caller that raced Alloc's or Write's table check: not
		// to be resurrected into a buffer slot.
		return
	}
	pg.prev, pg.next = &p.lru, p.lru.next
	pg.prev.next, pg.next.prev = pg, pg
	pg.inPool = true
	p.resident++
	for p.resident > p.capacity {
		victim := p.lru.prev
		if p.backend != nil {
			// A failed write-back latches the sticky error and leaves the victim
			// resident, its image the only current copy: the pool runs over.
			if err := p.writeBackLocked(victim); err != nil {
				p.fail(fmt.Errorf("storage: evicting page %d: %w", victim.ID, err))
				return
			}
			victim.evicted = true
		}
		p.unlink(victim)
	}
}

// unlink takes pg out of the pool. Caller holds lruMu.
func (p *Pager) unlink(pg *Page) {
	pg.prev.next, pg.next.prev = pg.next, pg.prev
	pg.prev, pg.next = nil, nil // an evicted page must not keep a freed neighbour alive
	pg.inPool = false
	p.resident--
}

// Stats returns a snapshot of the counters, summed over the stripes.
// Counters are independent atomics; a snapshot taken while other
// goroutines operate reflects some interleaving of their updates.
func (p *Pager) Stats() Stats {
	var s Stats
	for i := range p.stripes {
		st := &p.stripes[i]
		s.Reads += st.reads.Load()
		s.Writes += st.writes.Load()
		s.Allocs += st.allocs.Load()
		s.Frees += st.frees.Load()
		s.Hits += st.hits.Load()
	}
	s.Fsyncs = p.fsyncs.Load()
	return s
}

// ResetStats zeroes the counters (buffer contents are kept).
func (p *Pager) ResetStats() {
	for i := range p.stripes {
		st := &p.stripes[i]
		st.reads.Store(0)
		st.writes.Store(0)
		st.allocs.Store(0)
		st.frees.Store(0)
		st.hits.Store(0)
	}
	p.fsyncs.Store(0)
}

// NumPages returns the number of live pages.
func (p *Pager) NumPages() int { return int(p.numPages.Load()) }
