package buffer

import (
	"fmt"

	"polarcxlmem/internal/frametab"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simmem"
	"polarcxlmem/internal/storage"
)

// DRAMPool is the conventional local buffer pool: pages cached in host DRAM
// in front of shared storage. Its dramStore moves whole pages between the
// DRAM slab and storage; the embedded WritebackPool owns the table (index,
// pins, latches, eviction clock, statistics) and the pool surface.
type DRAMPool struct {
	*WritebackPool
	store *storage.Store
	prof  simmem.Profile
}

var _ Pool = (*DRAMPool)(nil)

// dramStore is DRAMPool's frametab backend: slots are page images.
type dramStore struct {
	pool *DRAMPool
}

// NewDRAMPool returns a pool of capacityPages frames over store, charging
// prof costs per access.
func NewDRAMPool(store *storage.Store, capacityPages int, prof simmem.Profile) *DRAMPool {
	if capacityPages <= 0 {
		panic(fmt.Sprintf("buffer: DRAM pool needs positive capacity, got %d", capacityPages))
	}
	p := &DRAMPool{store: store, prof: prof}
	p.WritebackPool = NewWritebackPool(frametab.Config{Capacity: capacityPages, Store: &dramStore{pool: p}}, "dram", store, p.bind)
	return p
}

func (p *DRAMPool) bind(clk *simclock.Clock, f *frametab.Frame, mode Mode) Frame {
	return &ImageFrame{Tab: p.tab, Fr: f, Prof: &p.prof, Clk: clk, Mode: mode}
}

// Fetch implements frametab.FrameStore: a whole-page storage read.
func (s *dramStore) Fetch(clk *simclock.Clock, id uint64) (any, bool, error) {
	p := s.pool
	img := make([]byte, page.Size)
	p.tab.Counters.StorageReads.Add(1)
	if err := p.store.ReadPage(clk, id, img); err != nil {
		return nil, false, err
	}
	return img, false, nil
}

// Create implements frametab.FrameStore: a zeroed fresh page.
func (s *dramStore) Create(clk *simclock.Clock, id uint64) (any, error) {
	return make([]byte, page.Size), nil
}

// Evict implements frametab.EvictStore: dirty victims are written back;
// clean ones just vanish.
func (s *dramStore) Evict(clk *simclock.Clock, id uint64, slot any, dirty bool) error {
	if !dirty {
		return nil
	}
	return s.Writeback(clk, id, slot)
}

// Writeback implements frametab.WritebackStore: persist one dirty page in
// place under the write-ahead barrier (eviction, the background flusher and
// the checkpoint all write a page this way).
func (s *dramStore) Writeback(clk *simclock.Clock, id uint64, slot any) error {
	p := s.pool
	img := slot.([]byte)
	p.Barrier(clk, page.RawLSN(img))
	if err := p.store.WritePage(clk, id, img); err != nil {
		return err
	}
	p.tab.Counters.StorageWrites.Add(1)
	return nil
}

// ImageFrame binds a frametab frame whose slot is a whole-page []byte image
// in local DRAM to a worker clock and latch mode, charging Prof per access.
// DRAMPool and TieredPool hand it out as is; sharing.RDMASharedPool embeds
// it for its local page copies.
type ImageFrame struct {
	Tab   *frametab.Table // the table Fr is pinned in
	Fr    *frametab.Frame
	Prof  *simmem.Profile
	Clk   *simclock.Clock
	Mode  Mode
	Wrote bool // a WriteAt landed under this latch

	released bool
}

// ID implements Frame.
func (b *ImageFrame) ID() uint64 { return b.Fr.ID() }

// MarkDirty implements Frame.
func (b *ImageFrame) MarkDirty() { b.Fr.MarkDirty() }

// ReadAt implements page.Accessor at Prof's read cost.
func (b *ImageFrame) ReadAt(off int, buf []byte) error {
	if b.released {
		return fmt.Errorf("buffer: read on released frame of page %d", b.Fr.ID())
	}
	img := b.Fr.Slot().([]byte)
	if off < 0 || off+len(buf) > len(img) {
		return fmt.Errorf("buffer: read [%d,%d) out of page bounds", off, off+len(buf))
	}
	copy(buf, img[off:])
	b.Clk.Advance(b.Prof.ReadCost(len(buf)))
	return nil
}

// WriteAt implements page.Accessor at Prof's write cost. Writes require the
// write latch — the same contract the CXL and shared pools enforce.
func (b *ImageFrame) WriteAt(off int, data []byte) error {
	if b.released {
		return fmt.Errorf("buffer: write on released frame of page %d", b.Fr.ID())
	}
	if b.Mode != Write {
		return fmt.Errorf("buffer: write to page %d under a read latch", b.Fr.ID())
	}
	img := b.Fr.Slot().([]byte)
	if off < 0 || off+len(data) > len(img) {
		return fmt.Errorf("buffer: write [%d,%d) out of page bounds", off, off+len(data))
	}
	copy(img[off:], data)
	b.Clk.Advance(b.Prof.WriteCost(len(data)))
	b.Wrote = true
	return nil
}

// Release implements Frame.
func (b *ImageFrame) Release() error {
	if b.released {
		return fmt.Errorf("buffer: double release of page %d", b.Fr.ID())
	}
	b.released = true
	b.Fr.Unlock(b.Mode)
	b.Tab.Unpin(b.Fr)
	return nil
}
