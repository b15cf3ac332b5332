package buffer

import (
	"fmt"
	"sort"
	"sync"

	"polarcxlmem/internal/frametab"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simmem"
	"polarcxlmem/internal/storage"
)

// TieredPool is the RDMA-based disaggregated buffer pool baseline: a local
// buffer pool (LBP) of localCapacity pages in front of a RemoteMemory tier.
//
// Data movement is page-granular in both directions:
//
//   - LBP miss, remote hit  -> 16 KB RDMA read  (read amplification: the
//     transaction usually needed a few hundred bytes of it)
//   - LBP miss, remote miss -> storage read, and the page is also pushed to
//     the remote tier so future misses stay off storage
//   - eviction              -> 16 KB RDMA write to the remote tier for
//     dirty (or remote-absent) pages; the storage write is deferred to the
//     next checkpoint, with the write-ahead rule forcing the redo log
//     before a dirty page's only fresh copy leaves the local buffer
//
// The paper's Figure 1 and the pooling experiments (§4.2) measure exactly
// this traffic against the NIC's 12 GB/s.
//
// Structurally the pool is a WritebackPool over a tieredStore: the store
// contributes the two-tier page movement, the embedded pool everything
// else, except FlushAll's second pass over the remote tier.
type TieredPool struct {
	*WritebackPool
	store  *storage.Store
	remote *RemoteMemory
	nic    *rdma.NIC
	prof   simmem.Profile
	tst    *tieredStore
}

var _ Pool = (*TieredPool)(nil)

// tieredStore is TieredPool's frametab backend: slots are page images; the
// store tracks which remote copies are newer than their storage image.
type tieredStore struct {
	pool *TieredPool

	mu          sync.Mutex
	remoteDirty map[uint64]bool // remote copy newer than the storage image
}

// NewTieredPool returns a tiered pool with an LBP of localCapacity pages
// over remote memory, moving pages through nic. Local accesses charge prof
// (local DRAM) costs. reg (nil for none) receives frametab.tiered.*.
func NewTieredPool(store *storage.Store, remote *RemoteMemory, nic *rdma.NIC, localCapacity int, prof simmem.Profile, reg *obs.Registry) *TieredPool {
	if localCapacity <= 0 {
		panic(fmt.Sprintf("buffer: tiered pool needs positive local capacity, got %d", localCapacity))
	}
	p := &TieredPool{store: store, remote: remote, nic: nic, prof: prof}
	p.tst = &tieredStore{pool: p, remoteDirty: make(map[uint64]bool)}
	p.WritebackPool = NewWritebackPool(frametab.Config{Capacity: localCapacity, Store: p.tst, Name: "tiered", Registry: reg}, store, nil)
	return p
}

func (s *tieredStore) remoteDirtyGet(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remoteDirty[id]
}

func (s *tieredStore) remoteDirtySet(id uint64, v bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v {
		s.remoteDirty[id] = true
	} else {
		delete(s.remoteDirty, id)
	}
}

// Fetch implements frametab.FrameStore: remote tier first, then storage
// (populating the remote tier on the way in).
func (s *tieredStore) Fetch(clk *simclock.Clock, id uint64) (any, bool, error) {
	p := s.pool
	slot := NewImage(&p.prof)
	img := slot.Buf
	if p.remote.Has(id) {
		// Full-page RDMA read: the read amplification under measurement.
		p.tab.Counters.RemoteReads.Add(1)
		if err := p.remote.Read(clk, p.nic, id, img); err != nil {
			return nil, false, err
		}
		// A dirty-evicted page is still newer than the storage image.
		return slot, s.remoteDirtyGet(id), nil
	}
	p.tab.Counters.StorageReads.Add(1)
	if err := p.store.ReadPage(clk, id, img); err != nil {
		return nil, false, err
	}
	// Populate the remote tier so later misses stay off storage.
	p.tab.Counters.RemoteWrites.Add(1)
	if err := p.remote.Write(clk, p.nic, id, img); err != nil {
		return nil, false, err
	}
	return slot, false, nil
}

// Create implements frametab.FrameStore: a zeroed fresh page (local only;
// the remote tier sees it on eviction or checkpoint).
func (s *tieredStore) Create(clk *simclock.Clock, id uint64) (any, error) {
	return NewImage(&s.pool.prof), nil
}

// Evict implements frametab.EvictStore. A clean page whose remote copy is
// current needs no traffic; a dirty (or remote-absent) page is pushed
// whole — the write amplification under measurement. Dirty pages go to the
// REMOTE tier only (LegoBase-style); the storage write is deferred to the
// next checkpoint. The write-ahead rule still applies: the redo protecting
// the page must be durable before the only fresh copy leaves the local
// buffer.
func (s *tieredStore) Evict(clk *simclock.Clock, id uint64, slot any, dirty bool) error {
	p := s.pool
	img := slot.(*Image).Buf
	push := dirty || !p.remote.Has(id)
	if push {
		p.tab.Counters.RemoteWrites.Add(1)
	}
	if dirty {
		s.remoteDirtySet(id, true)
	}
	if !push {
		return nil
	}
	if dirty {
		p.Barrier(clk, page.RawLSN(img))
	}
	return p.remote.Write(clk, p.nic, id, img)
}

// Writeback implements frametab.WritebackStore: persist one dirty LBP page
// to storage and refresh its remote copy in place (the background flusher's
// path, and FlushAll's local pass) — barrier, storage write, remote write,
// remote-dirty clear.
func (s *tieredStore) Writeback(clk *simclock.Clock, id uint64, slot any) error {
	p := s.pool
	img := slot.(*Image).Buf
	p.Barrier(clk, page.RawLSN(img))
	if err := p.store.WritePage(clk, id, img); err != nil {
		return err
	}
	if err := p.remote.Write(clk, p.nic, id, img); err != nil {
		return err
	}
	s.remoteDirtySet(id, false)
	p.tab.Counters.StorageWrites.Add(1)
	p.tab.Counters.RemoteWrites.Add(1)
	return nil
}

// Remote exposes the remote tier (recovery reads surviving pages from it).
func (p *TieredPool) Remote() *RemoteMemory { return p.remote }

// NIC exposes the pool's NIC for bandwidth reporting.
func (p *TieredPool) NIC() *rdma.NIC { return p.nic }

// FlushAll implements Pool (the checkpointer): every dirty LBP page goes to
// storage and refreshes its remote copy (the embedded pool's walk over
// tieredStore.Writeback); then remote-tier pages that are newer than their
// storage image (dirty evictions) are fetched back over RDMA and written to
// storage. The local pass cleared every resident page's remote-dirty mark
// (a resident page with a newer remote copy is dirty locally), so what is
// left is remote-only. Both passes run in page-id order, so checkpoint I/O
// replays identically under a fault plan. The background flusher
// (FlushBatch) trims only the local dirty set, which is what grows the redo
// fraction between checkpoints.
func (p *TieredPool) FlushAll(clk *simclock.Clock) error {
	if err := p.WritebackPool.FlushAll(clk); err != nil {
		return err
	}
	p.tst.mu.Lock()
	remoteOnly := make([]uint64, 0, len(p.tst.remoteDirty))
	for id := range p.tst.remoteDirty {
		remoteOnly = append(remoteOnly, id)
	}
	p.tst.mu.Unlock()
	sort.Slice(remoteOnly, func(i, j int) bool { return remoteOnly[i] < remoteOnly[j] })

	img := make([]byte, page.Size)
	for _, id := range remoteOnly {
		if err := p.remote.Read(clk, p.nic, id, img); err != nil {
			return err
		}
		p.tab.Counters.RemoteReads.Add(1)
		p.Barrier(clk, page.RawLSN(img))
		if err := p.store.WritePage(clk, id, img); err != nil {
			return err
		}
		p.tst.remoteDirtySet(id, false)
		p.tab.Counters.StorageWrites.Add(1)
	}
	return nil
}
