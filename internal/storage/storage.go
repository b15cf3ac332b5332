// Package storage models the shared cloud page store PolarDB sits on
// (PolarFS-class): page-granular reads/writes with replicated-write
// latencies and a shared bandwidth channel. It survives host crashes — in
// the paper's architecture storage disaggregation predates memory
// disaggregation, so the page store is always remote and durable.
package storage

import (
	"errors"
	"fmt"
	"sync"

	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
)

// ErrNotFound reports a page with no durable image.
var ErrNotFound = errors.New("storage: page not found")

// Default device parameters for a replicated cloud page store.
const (
	DefaultReadNanos  = 150_000 // one 16 KB page read
	DefaultWriteNanos = 200_000 // one replicated 16 KB page write
	DefaultBandwidth  = 2e9     // shared channel, bytes/s
)

// Config parameterizes a Store; zero fields select defaults.
type Config struct {
	ReadNanos  int64
	WriteNanos int64
	Bandwidth  float64
}

func (c Config) withDefaults() Config {
	if c.ReadNanos == 0 {
		c.ReadNanos = DefaultReadNanos
	}
	if c.WriteNanos == 0 {
		c.WriteNanos = DefaultWriteNanos
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = DefaultBandwidth
	}
	return c
}

// Store is the shared durable page store plus the page-id allocator.
type Store struct {
	cfg Config
	bw  *simclock.Resource

	mu     sync.Mutex
	pages  map[uint64][]byte // page id -> 16 KB image (checksummed)
	nextID uint64
	inj    fault.Injector // optional fault injector; may be nil
}

// SetInjector installs (or, with nil, removes) a fault injector consulted on
// every page read (fault.OpStoreRead) — transient cloud-store hiccups.
func (s *Store) SetInjector(inj fault.Injector) {
	s.mu.Lock()
	s.inj = inj
	s.mu.Unlock()
}

// New returns an empty page store. Page id 0 is reserved (nil page id);
// allocation starts at 1.
func New(cfg Config) *Store {
	cfg = cfg.withDefaults()
	return &Store{
		cfg:    cfg,
		bw:     simclock.NewResource("page-store", cfg.Bandwidth),
		pages:  make(map[uint64][]byte),
		nextID: 1,
	}
}

// AllocPageID reserves and returns a fresh page id.
func (s *Store) AllocPageID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID++
	return id
}

// NextID reports the next id to be allocated (restart bootstrapping).
func (s *Store) NextID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextID
}

// BumpNextID raises the allocator above id (recovery replays allocations).
func (s *Store) BumpNextID(id uint64) {
	s.mu.Lock()
	if id >= s.nextID {
		s.nextID = id + 1
	}
	s.mu.Unlock()
}

// Has reports whether a durable image of id exists.
func (s *Store) Has(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.pages[id]
	return ok
}

// PageCount reports how many pages have durable images.
func (s *Store) PageCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pages)
}

// ReadPage fills buf (page.Size bytes) with the durable image of id,
// charging read latency and bandwidth, and verifies the checksum.
func (s *Store) ReadPage(clk *simclock.Clock, id uint64, buf []byte) error {
	if len(buf) != page.Size {
		return fmt.Errorf("storage: read buffer of %d bytes, want %d", len(buf), page.Size)
	}
	s.mu.Lock()
	inj := s.inj
	s.mu.Unlock()
	if inj != nil {
		if err := inj.Point(fault.OpStoreRead, page.Size); err != nil {
			return err
		}
	}
	s.mu.Lock()
	img, ok := s.pages[id]
	if ok {
		copy(buf, img)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("page %d: %w", id, ErrNotFound)
	}
	clk.Advance(s.cfg.ReadNanos)
	s.bw.Use(clk, page.Size)
	if !page.VerifyChecksum(buf) {
		return fmt.Errorf("storage: page %d checksum mismatch", id)
	}
	return nil
}

// WritePage durably stores img (page.Size bytes) under id, stamping the
// checksum, charging replicated-write latency and bandwidth. A page that
// already has an image is overwritten in place: the copy and the checksum
// stamp both run under s.mu, where ReadPage copies out, so no reader sees a
// half-written image. Only a page's first write allocates.
func (s *Store) WritePage(clk *simclock.Clock, id uint64, img []byte) error {
	if len(img) != page.Size {
		return fmt.Errorf("storage: write image of %d bytes, want %d", len(img), page.Size)
	}
	clk.Advance(s.cfg.WriteNanos)
	s.bw.Use(clk, page.Size)
	s.mu.Lock()
	dst, ok := s.pages[id]
	if !ok {
		dst = make([]byte, page.Size)
		s.pages[id] = dst
	}
	copy(dst, img)
	page.StampChecksum(dst)
	if id >= s.nextID {
		s.nextID = id + 1
	}
	s.mu.Unlock()
	return nil
}

// Device exposes the bandwidth resource for stats.
func (s *Store) Device() *simclock.Resource { return s.bw }
