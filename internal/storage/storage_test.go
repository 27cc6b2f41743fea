package storage

import (
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/raceflag"
)

// memBackend is a Backend over a map: it keeps the last image written per
// page and records the order of the writes. The pager calls ReadPage and
// WritePage under its pool lock, so the fake needs none.
type memBackend struct {
	images map[PageID][]byte
	writes []PageID
}

func (m *memBackend) ReadPage(id PageID, buf []byte) error {
	img, ok := m.images[id]
	if !ok {
		return ErrPageUnwritten
	}
	copy(buf, img)
	return nil
}

func (m *memBackend) WritePage(id PageID, data []byte) error {
	if m.images == nil {
		m.images = map[PageID][]byte{}
	}
	m.images[id] = append(m.images[id][:0], data...)
	m.writes = append(m.writes, id)
	return nil
}

func (m *memBackend) Sync() error  { return nil }
func (m *memBackend) Close() error { return nil }

// pagerKinds are the three pagers the stack builds: the unbuffered counter
// of the indexes and the in-memory store, the in-memory pool of experiment
// B1, and the disk-backed pool of the durable store.
var pagerKinds = []struct {
	name string
	new  func(pageSize, capacity int) *Pager
}{
	{"unbuffered", func(pageSize, _ int) *Pager { return MustNewPager(pageSize, 0) }},
	{"pool", MustNewPager},
	{"backed", newBackedPager},
}

func newBackedPager(pageSize, capacity int) *Pager {
	p, err := NewPagerBacked(pageSize, capacity, &memBackend{})
	if err != nil {
		panic(err)
	}
	return p
}

func TestNewPagerValidation(t *testing.T) {
	if _, err := NewPager(8, 0); err == nil {
		t.Error("tiny page accepted")
	}
	if _, err := NewPager(1024, -1); err == nil {
		t.Error("negative capacity accepted")
	}
	p, err := NewPager(1024, 0)
	if err != nil || p.PageSize() != 1024 {
		t.Fatalf("NewPager: %v", err)
	}
}

func TestAllocReadWriteFree(t *testing.T) {
	p := MustNewPager(256, 0)
	pg := p.Alloc("test")
	if pg.ID == 0 || pg.Data != nil || pg.Tag != "test" {
		t.Fatalf("bad page %+v (no backend, so no image)", pg)
	}
	got, err := p.Read(pg.ID)
	if err != nil || got != pg {
		t.Fatalf("Read: %v", err)
	}
	if err := p.Write(pg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	s := p.Stats()
	if s.Allocs != 1 || s.Reads != 1 || s.Writes != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Accesses() != 2 {
		t.Errorf("Accesses = %d, want 2", s.Accesses())
	}
	if err := p.Free(pg.ID); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if p.NumPages() != 0 {
		t.Errorf("NumPages = %d", p.NumPages())
	}
	if _, err := p.Read(pg.ID); err == nil {
		t.Error("read of freed page succeeded")
	}
	if err := p.Write(pg); err == nil {
		t.Error("write of freed page succeeded")
	}
	if err := p.Free(pg.ID); err == nil {
		t.Error("double free succeeded")
	}
}

func TestResetStats(t *testing.T) {
	p := MustNewPager(256, 0)
	pg := p.Alloc("")
	if _, err := p.Read(pg.ID); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	if s := p.Stats(); s.Reads != 0 || s.Allocs != 0 {
		t.Errorf("stats after reset = %+v", s)
	}
}

func TestBufferPoolHits(t *testing.T) {
	p := MustNewPager(256, 2)
	a := p.Alloc("")
	b := p.Alloc("")
	c := p.Alloc("")
	p.ResetStats()
	// a and b were evicted by c's touch? LRU holds 2: after allocs the LRU
	// front is c, then b; a is out.
	if _, err := p.Read(c.ID); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Hits != 1 || s.Reads != 0 {
		t.Errorf("resident read: %+v", s)
	}
	if _, err := p.Read(a.ID); err != nil { // a not resident: miss
		t.Fatal(err)
	}
	s = p.Stats()
	if s.Reads != 1 {
		t.Errorf("non-resident read: %+v", s)
	}
	// Reading a again now hits; b was evicted.
	if _, err := p.Read(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(b.ID); err != nil {
		t.Fatal(err)
	}
	s = p.Stats()
	if s.Hits != 2 || s.Reads != 2 {
		t.Errorf("after LRU churn: %+v", s)
	}
}

func TestUnbufferedAlwaysCounts(t *testing.T) {
	p := MustNewPager(256, 0)
	pg := p.Alloc("")
	for i := 0; i < 5; i++ {
		if _, err := p.Read(pg.ID); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Stats(); s.Reads != 5 || s.Hits != 0 {
		t.Errorf("unbuffered stats = %+v", s)
	}
}

func TestPageIDsUnique(t *testing.T) {
	p := MustNewPager(256, 0)
	seen := map[PageID]bool{}
	for i := 0; i < 100; i++ {
		pg := p.Alloc("")
		if seen[pg.ID] {
			t.Fatalf("duplicate page ID %d", pg.ID)
		}
		seen[pg.ID] = true
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// With capacity 3, touching a, b, c, then a again makes b the LRU
	// victim when d arrives.
	p := MustNewPager(256, 3)
	a, b, c := p.Alloc(""), p.Alloc(""), p.Alloc("")
	if _, err := p.Read(a.ID); err != nil {
		t.Fatal(err)
	}
	d := p.Alloc("") // evicts b
	p.ResetStats()
	for _, pg := range []*Page{a, c, d} {
		if _, err := p.Read(pg.ID); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Stats(); s.Hits != 3 || s.Reads != 0 {
		t.Errorf("a, c, d should be resident: %+v", s)
	}
	if _, err := p.Read(b.ID); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Reads != 1 {
		t.Errorf("b should have been evicted: %+v", s)
	}
}

func TestConcurrentReadersAndStats(t *testing.T) {
	// Concurrent reads, writes, allocs, frees and stats snapshots must be
	// safe (run under -race) and account exactly: reads+hits == successful
	// Read calls across goroutines. Every goroutine also allocates, reads and
	// frees pages of its own — 800 in all, so the table grows a chunk under
	// the readers — and reads the page some other goroutine allocated last,
	// which may have been freed since: that read may fail, never miscount.
	const goroutines, perG = 8, 200
	for _, kind := range pagerKinds {
		t.Run(kind.name, func(t *testing.T) {
			p := kind.new(256, 4)
			var ids []PageID
			for i := 0; i < 16; i++ {
				ids = append(ids, p.Alloc("").ID)
			}
			p.ResetStats()
			var latest, reads atomic.Uint64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						pg, err := p.Read(ids[(g*perG+i)%len(ids)])
						if err != nil {
							t.Error(err)
							return
						}
						reads.Add(1)
						if i%10 == 0 {
							if err := p.Write(pg); err != nil {
								t.Error(err)
								return
							}
						}
						if _, err := p.Read(PageID(latest.Load())); err == nil {
							reads.Add(1)
						}
						if i%2 == 0 {
							own := p.Alloc("own")
							latest.Store(uint64(own.ID))
							if got, err := p.Read(own.ID); err != nil || got != own {
								t.Errorf("read of own page %d = %p, %v; want %p", own.ID, got, err, own)
								return
							}
							reads.Add(1)
							if err := p.Free(own.ID); err != nil {
								t.Error(err)
								return
							}
						}
						_ = p.Stats()
					}
				}(g)
			}
			wg.Wait()
			s := p.Stats()
			if got := s.Reads + s.Hits; got != reads.Load() {
				t.Errorf("reads+hits = %d, want %d", got, reads.Load())
			}
			if s.Writes != goroutines*perG/10 {
				t.Errorf("writes = %d, want %d", s.Writes, goroutines*perG/10)
			}
			if s.Allocs != goroutines*perG/2 || s.Frees != s.Allocs || p.NumPages() != len(ids) {
				t.Errorf("allocs %d, frees %d, %d pages live; want %d, %d, %d", s.Allocs, s.Frees, p.NumPages(), goroutines*perG/2, goroutines*perG/2, len(ids))
			}
			if err := p.Err(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestStatsAccountingProperty(t *testing.T) {
	// Property: over a mixed sequence of ops the counters are exactly what a
	// textbook LRU list of the pool's capacity gives — Alloc, Read and Write
	// make a page the most recent, Free takes it out, a Read of a listed page
	// is a hit — and NumPages = allocs - frees.
	const capacity = 2
	for _, kind := range pagerKinds {
		f := func(ops []uint8) bool {
			p := kind.new(128, capacity)
			var pages []*Page
			var lru []PageID // most recent first
			touch := func(id PageID) {
				lru = slices.DeleteFunc(lru, func(x PageID) bool { return x == id })
				lru = slices.Insert(lru, 0, id)
				lru = lru[:min(len(lru), p.capacity)]
			}
			var want Stats
			for _, op := range ops {
				if len(pages) == 0 || op%4 == 0 {
					pages = append(pages, p.Alloc(""))
					want.Allocs++
					touch(pages[len(pages)-1].ID)
					continue
				}
				i := int(op) % len(pages)
				pg := pages[i]
				switch op % 4 {
				case 1:
					if got, err := p.Read(pg.ID); err != nil || got != pg {
						return false
					}
					if slices.Contains(lru, pg.ID) {
						want.Hits++
					} else {
						want.Reads++
					}
					touch(pg.ID)
				case 2:
					if err := p.Write(pg); err != nil {
						return false
					}
					want.Writes++
					touch(pg.ID)
				case 3:
					if err := p.Free(pg.ID); err != nil {
						return false
					}
					want.Frees++
					lru = slices.DeleteFunc(lru, func(x PageID) bool { return x == pg.ID })
					pages = slices.Delete(pages, i, i+1)
				}
			}
			if s := p.Stats(); s != want {
				t.Logf("%s: stats %+v, LRU model %+v", kind.name, s, want)
				return false
			}
			return p.NumPages() == len(pages) && p.NumPages() == int(want.Allocs-want.Frees) && p.Err() == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", kind.name, err)
		}
	}
}

// TestPagerReadAllocs holds the reads the stack serves — unbuffered, pool
// hit, and a disk-backed miss that re-fetches an evicted image, from memory
// or from a page file — at no allocation: the miss reads into the pager's
// own buffer, through the file backend's own slot buffer.
func TestPagerReadAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	for _, tc := range readCases {
		p, ids := tc.setup(t)
		i := 0
		if n := testing.AllocsPerRun(200, func() {
			if _, err := p.Read(ids[i%len(ids)]); err != nil {
				t.Fatal(err)
			}
			i++
		}); n != 0 {
			t.Errorf("%s: %v allocs per Read, want 0", tc.name, n)
		}
		if s := p.Stats(); tc.miss && s.Hits != 0 || !tc.miss && s.Reads != 0 {
			t.Errorf("%s: stats %+v: the reads were not all of that kind", tc.name, s)
		}
	}
}

// readCases are the kinds of Read: each setup returns a pager with its
// counters reset and the page IDs to read round-robin.
var readCases = []struct {
	name  string
	miss  bool
	setup func(tb testing.TB) (*Pager, []PageID)
}{
	{"unbuffered", true, func(testing.TB) (*Pager, []PageID) {
		p := MustNewPager(4096, 0)
		return p, allocFlushed(p, 64)
	}},
	{"pool-hit", false, func(testing.TB) (*Pager, []PageID) {
		p := MustNewPager(4096, 8)
		return p, allocFlushed(p, 64)[63:]
	}},
	// Round-robin over eight times the pool: LRU has always evicted the
	// page before its turn comes again, so every read misses and re-fetches.
	{"backed-miss", true, func(testing.TB) (*Pager, []PageID) {
		p := newBackedPager(4096, 8)
		return p, allocFlushed(p, 64)
	}},
	// The same misses re-fetched from a real page file: the durable store's
	// read.
	{"file-miss", true, func(tb testing.TB) (*Pager, []PageID) {
		be, err := OpenFileBackend(filepath.Join(tb.TempDir(), "pages.db"), 4096)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { be.Close() })
		p, err := NewPagerBacked(4096, 8, be)
		if err != nil {
			tb.Fatal(err)
		}
		return p, allocFlushed(p, 64)
	}},
}

// allocFlushed allocates n written pages, flushes them so that no later
// eviction has anything to write back, and resets the counters.
func allocFlushed(p *Pager, n int) []PageID {
	ids := make([]PageID, n)
	for i := range ids {
		pg := p.Alloc("bench")
		ids[i] = pg.ID
		if err := p.Write(pg); err != nil {
			panic(err)
		}
	}
	if err := p.Flush(); err != nil {
		panic(err)
	}
	p.ResetStats()
	return ids
}

var sinkPage *Page

func BenchmarkPagerRead(b *testing.B) {
	for _, tc := range readCases {
		b.Run(tc.name, func(b *testing.B) {
			p, ids := tc.setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pg, err := p.Read(ids[i%len(ids)])
				if err != nil {
					b.Fatal(err)
				}
				sinkPage = pg
			}
		})
	}
}
