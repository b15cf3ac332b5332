package buffer

import (
	"encoding/binary"
	"fmt"

	"polarcxlmem/internal/frametab"
	"polarcxlmem/internal/obs"
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
// prof costs per access and reporting into reg (nil for none) as
// frametab.dram.*.
func NewDRAMPool(store *storage.Store, capacityPages int, prof simmem.Profile, reg *obs.Registry) *DRAMPool {
	if capacityPages <= 0 {
		panic(fmt.Sprintf("buffer: DRAM pool needs positive capacity, got %d", capacityPages))
	}
	p := &DRAMPool{store: store, prof: prof}
	p.WritebackPool = NewWritebackPool(frametab.Config{Capacity: capacityPages, Store: &dramStore{pool: p}, Name: "dram", Registry: reg}, store, nil)
	return p
}

// Fetch implements frametab.FrameStore: a whole-page storage read.
func (s *dramStore) Fetch(clk *simclock.Clock, id uint64) (any, bool, error) {
	p := s.pool
	img := NewImage(&p.prof)
	p.tab.Counters.StorageReads.Add(1)
	if err := p.store.ReadPage(clk, id, img.Buf); err != nil {
		return nil, false, err
	}
	return img, false, nil
}

// Create implements frametab.FrameStore: a zeroed fresh page.
func (s *dramStore) Create(clk *simclock.Clock, id uint64) (any, error) {
	return NewImage(&s.pool.prof), nil
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
	img := slot.(*Image).Buf
	p.Barrier(clk, page.RawLSN(img))
	if err := p.store.WritePage(clk, id, img); err != nil {
		return err
	}
	p.tab.Counters.StorageWrites.Add(1)
	return nil
}

// Image is a whole page image in local DRAM: the frame-table slot of the
// DRAM, tiered and RDMA-shared pools, and the page.Accessor their visits
// use. Every access copies bytes and charges prof.
type Image struct {
	Buf   []byte
	prof  *simmem.Profile
	wrote bool // a write landed under the current write latch
}

// NewImage returns a zeroed page image charged prof per access.
func NewImage(prof *simmem.Profile) *Image {
	return &Image{Buf: make([]byte, page.Size), prof: prof}
}

// TakeWrote reports whether a write landed since the last call, and
// clears the mark. Call it under the write latch.
func (m *Image) TakeWrote() bool {
	w := m.wrote
	m.wrote = false
	return w
}

// ReadAt implements page.Accessor at prof's read cost.
func (m *Image) ReadAt(clk *simclock.Clock, off int, buf []byte) error {
	if off < 0 || off+len(buf) > len(m.Buf) {
		return fmt.Errorf("buffer: read [%d,%d) out of page bounds", off, off+len(buf))
	}
	copy(buf, m.Buf[off:])
	clk.Advance(m.prof.ReadCost(len(buf)))
	return nil
}

// WriteAt implements page.Accessor at prof's write cost.
func (m *Image) WriteAt(clk *simclock.Clock, off int, data []byte) error {
	if off < 0 || off+len(data) > len(m.Buf) {
		return fmt.Errorf("buffer: write [%d,%d) out of page bounds", off, off+len(data))
	}
	copy(m.Buf[off:], data)
	clk.Advance(m.prof.WriteCost(len(data)))
	m.wrote = true
	return nil
}

// Load implements page.Accessor: a ReadAt of n bytes into a stack word.
func (m *Image) Load(clk *simclock.Clock, off, n int) (uint64, error) {
	var w [8]byte
	if err := m.ReadAt(clk, off, w[:n]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(w[:]), nil
}

// Store implements page.Accessor: a WriteAt of v's low n bytes.
func (m *Image) Store(clk *simclock.Clock, off, n int, v uint64) error {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	return m.WriteAt(clk, off, w[:n])
}

// imageMedium is the Medium of a table whose slots are Images: a visit
// reads and writes the image in place, and Release unlatches and unpins.
type imageMedium struct{ pool *TablePool }

func (imageMedium) Open(f Frame) page.Accessor { return f.fr.Slot().(*Image) }
func (imageMedium) Close(Frame, page.Accessor) {}
func (imageMedium) MarkDirty(f Frame)          { f.fr.MarkDirty() }
func (m imageMedium) Release(f Frame) error {
	f.fr.Unlock(f.mode)
	m.pool.tab.Unpin(f.fr)
	return nil
}
