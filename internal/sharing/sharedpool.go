package sharing

import (
	"fmt"
	"sync"
	"sync/atomic"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/frametab"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simcpu"
	"polarcxlmem/internal/simmem"
	"polarcxlmem/internal/storage"
)

// SharedPool implements buffer.Pool over the distributed buffer pool, which
// lets the FULL transaction engine (B+tree, mini-transactions, WAL) run
// multi-primary: several nodes execute transactions against the same tables
// whose pages live once, in CXL, behind the fusion server.
//
// Mapping onto the engine's expectations:
//
//   - Get's latch is the DISTRIBUTED page lock — the paper's page-lock
//     integration (§3.3): mini-transactions hold these locks until commit,
//     exactly as PolarDB-MP's 2PL prescribes. The pool plugs it in as the
//     table's frametab.Latcher, replacing the frame-local latch entirely.
//   - A write-latched frame is released by clflushing the page's dirty
//     lines (publication) and unlocking at the fusion server, which flips
//     the other nodes' invalid flags.
//   - Get honours this node's removal flag (a frametab.Revalidator: a
//     removed entry is retired and re-registered) and invalid flag (inside
//     Latch, under the page lock) before handing the frame out, so cached
//     lines never go stale.
//
// The node's metadata entries live in a frametab table whose capacity is the
// flag-region slot count; entry recycling is the table's pin-aware eviction,
// so an entry can never be recycled out from under a live frame.
//
// Every node shares one wal.Log (a single global log stream) and one
// storage.Store; unit-id spaces are disambiguated by the caller (give each
// node's IDGen a distinct high-bit base).
//
// Known simplification: concurrent structure modifications from DIFFERENT
// nodes could deadlock on page-lock order; PolarDB-MP resolves this with a
// global SMO latch, reproduced here by TakeSMOLock (btree acquires its
// per-tree writer mutex locally, so single-node behaviour is unchanged —
// multi-node drivers serialize writers per table, as the tests do).
type SharedPool struct {
	node   string
	fusion *Fusion
	cache  *simcpu.Cache
	flags  *simmem.Region
	dbp    *simmem.Region

	tab     *frametab.Table
	sst     *sharedStore
	barrier buffer.FlushBarrier
	nslots  int
	crashed atomic.Bool
	obsReg  atomic.Pointer[obs.Registry] // survives the RejoinPrimary tab rebuild
}

var (
	_ buffer.Pool    = (*SharedPool)(nil)
	_ buffer.Creator = (*SharedPool)(nil)
)

// sharedStore is SharedPool's frametab backend: slots are *pmeta entries
// pointing at a flag-word pair and a DBP frame address.
type sharedStore struct {
	p *SharedPool

	mu        sync.Mutex
	freeSlots []int
}

// NewSharedPool builds one node's view of the distributed buffer pool.
func NewSharedPool(node string, fusion *Fusion, cache *simcpu.Cache, flagRegion *simmem.Region) *SharedPool {
	p := &SharedPool{
		node:   node,
		fusion: fusion,
		cache:  cache,
		flags:  flagRegion,
		dbp:    fusion.Region(),
	}
	nslots := int(flagRegion.Size() / flagEntrySize)
	p.nslots = nslots
	p.sst = &sharedStore{p: p}
	for i := nslots - 1; i >= 0; i-- {
		p.sst.freeSlots = append(p.sst.freeSlots, i)
	}
	p.tab = frametab.New(frametab.Config{
		Capacity: nslots,
		Store:    p.sst,
		NotFound: storage.ErrNotFound,
	})
	return p
}

// CrashPrimary kills this node: the fusion server marks it dead (its lock
// leases stop renewing; survivors — or an explicit EvictNode — reclaim its
// locks once they expire), and every local pool operation fails until
// RejoinPrimary. The node's in-flight work simply stops, exactly as a
// process crash would leave it.
func (p *SharedPool) CrashPrimary() {
	p.crashed.Store(true)
	// Power loss: every unflushed line in the host's CPU cache is gone. The
	// rejoined incarnation must never be able to write back pre-crash data
	// over frames the fusion server has since rebuilt.
	p.cache.Drop()
	p.fusion.CrashNode(p.node)
}

// RejoinPrimary restarts the node with empty local state: the fusion server
// evicts whatever the dead incarnation still held, the metadata table and
// flag-slot pool are rebuilt from scratch, and the node's lease restarts.
func (p *SharedPool) RejoinPrimary(clk *simclock.Clock) error {
	if err := p.fusion.RejoinNode(clk, p.node); err != nil {
		return err
	}
	p.sst.mu.Lock()
	p.sst.freeSlots = p.sst.freeSlots[:0]
	for i := p.nslots - 1; i >= 0; i-- {
		p.sst.freeSlots = append(p.sst.freeSlots, i)
	}
	p.sst.mu.Unlock()
	p.tab = frametab.New(frametab.Config{
		Capacity: p.nslots,
		Store:    p.sst,
		NotFound: storage.ErrNotFound,
	})
	if reg := p.obsReg.Load(); reg != nil {
		p.tab.SetObserver(reg, "shared/"+p.node)
	}
	p.crashed.Store(false)
	return nil
}

// SetObserver registers this node's metadata-table metrics
// (frametab.shared/<node>.*) with reg; the fusion server's cluster-wide
// metrics are registered separately via Fusion.SetObserver. The registration
// survives RejoinPrimary's table rebuild. A nil reg detaches.
func (p *SharedPool) SetObserver(reg *obs.Registry) {
	p.obsReg.Store(reg)
	if reg == nil {
		p.tab.SetObserver(nil, "")
		return
	}
	p.tab.SetObserver(reg, "shared/"+p.node)
}

func (p *SharedPool) checkAlive() error {
	if p.crashed.Load() {
		return fmt.Errorf("sharing: node %s is crashed: %w", p.node, ErrNodeEvicted)
	}
	return nil
}

// SetFlushBarrier implements buffer.Pool (checkpointing is driven through
// the fusion server in the MP deployment; the barrier applies there).
func (p *SharedPool) SetFlushBarrier(fb buffer.FlushBarrier) { p.barrier = fb }

// Stats implements buffer.Pool.
func (p *SharedPool) Stats() buffer.Stats { return p.tab.Stats() }

// Resident implements buffer.Pool: like PolarCXLMem, a node holds no page
// data locally — only metadata entries.
func (p *SharedPool) Resident() int { return p.tab.Resident() }

// PinnedFrames reports entries with live pins (conformance leak check).
func (p *SharedPool) PinnedFrames() int { return p.tab.PinnedFrames() }

func (p *SharedPool) flagOffsets(slot int) flagAddrs {
	base := p.flags.Base() + int64(slot)*flagEntrySize
	return flagAddrs{invalid: base, removal: base + 8}
}

// register claims a flag slot and registers with the fusion server; create
// selects the fresh-page path (no storage image yet).
func (s *sharedStore) register(clk *simclock.Clock, pageID uint64, create bool) (*pmeta, error) {
	p := s.p
	s.mu.Lock()
	if len(s.freeSlots) == 0 {
		s.mu.Unlock()
		return nil, fmt.Errorf("sharing: node %s pool metadata full", p.node)
	}
	slot := s.freeSlots[len(s.freeSlots)-1]
	s.freeSlots = s.freeSlots[:len(s.freeSlots)-1]
	s.mu.Unlock()
	fa := p.flagOffsets(slot)
	if err := p.fusion.dev.Store64(clk, fa.invalid, 0); err != nil {
		return nil, err
	}
	if err := p.fusion.dev.Store64(clk, fa.removal, 0); err != nil {
		return nil, err
	}
	var off int64
	var err error
	if create {
		off, err = p.fusion.CreatePage(clk, p.node, pageID, fa)
	} else {
		off, err = p.fusion.GetPage(clk, p.node, pageID, fa)
	}
	if err != nil {
		s.mu.Lock()
		s.freeSlots = append(s.freeSlots, slot)
		s.mu.Unlock()
		return nil, err
	}
	// Install-time invalidation: the frame may have had another tenant.
	if err := p.cache.Flush(clk, p.dbp, off, page.Size); err != nil {
		return nil, err
	}
	// The install flush discharges any invalidation this node owed on the
	// page (e.g. set while the entry was evicted from the metadata table).
	resident, _ := p.cache.LinesInRange(p.dbp, off, page.Size)
	p.fusion.obsState().emit(clk.Now(), obs.EvInvalidAck, p.node, pageID, int64(resident))
	return &pmeta{slot: slot, dataOff: off}, nil
}

// Fetch implements frametab.FrameStore.
func (s *sharedStore) Fetch(clk *simclock.Clock, id uint64) (any, bool, error) {
	m, err := s.register(clk, id, false)
	if err != nil {
		return nil, false, err
	}
	// Dirtiness is tracked at the fusion server (write-unlock), not per node.
	return m, false, nil
}

// Create implements frametab.FrameStore: a globally fresh, zero-filled DBP
// page.
func (s *sharedStore) Create(clk *simclock.Clock, id uint64) (any, error) {
	m, err := s.register(clk, id, true)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Evict implements frametab.EvictStore: recycling a metadata entry only
// returns the flag slot — the page itself lives at the fusion server.
func (s *sharedStore) Evict(clk *simclock.Clock, id uint64, slot any, dirty bool) error {
	m := slot.(*pmeta)
	s.mu.Lock()
	s.freeSlots = append(s.freeSlots, m.slot)
	s.mu.Unlock()
	return nil
}

// Revalidate implements frametab.Revalidator: the fusion server sets our
// removal flag when it recycles the DBP frame; a removed entry must be
// retired and re-registered.
func (s *sharedStore) Revalidate(clk *simclock.Clock, id uint64, slot any) (bool, error) {
	m := slot.(*pmeta)
	fa := s.p.flagOffsets(m.slot)
	removed, err := s.p.fusion.dev.Load64(clk, fa.removal)
	if err != nil {
		return false, err
	}
	return removed == 0, nil
}

// Latch implements frametab.Latcher: the distributed page lock, plus the
// invalid-flag check that must run under it. fresh pages (our own create)
// skip the check — no other node has ever held them.
func (s *sharedStore) Latch(clk *simclock.Clock, id uint64, slot any, write, fresh bool) error {
	p := s.p
	m := slot.(*pmeta)
	if err := p.fusion.Lock(clk, p.node, id, write); err != nil {
		return err
	}
	if fresh {
		return nil
	}
	if err := p.honourInvalid(clk, id, m); err != nil {
		if write {
			p.fusion.UnlockWrite(clk, p.node, id)
		} else {
			p.fusion.UnlockRead(clk, p.node, id)
		}
		return err
	}
	return nil
}

// honourInvalid drops possibly-stale cached lines when this node's invalid
// flag is set. Must run under the page lock.
func (p *SharedPool) honourInvalid(clk *simclock.Clock, id uint64, m *pmeta) error {
	fa := p.flagOffsets(m.slot)
	inv, err := p.fusion.dev.Load64(clk, fa.invalid)
	if err != nil {
		return err
	}
	if inv == 0 {
		return nil
	}
	if err := p.cache.Flush(clk, p.dbp, m.dataOff, page.Size); err != nil {
		return err
	}
	if err := p.fusion.dev.Store64(clk, fa.invalid, 0); err != nil {
		return err
	}
	// Aux = lines still resident after the flush (nonzero only when the
	// flush was fault-dropped, leaving the stale copy in place).
	resident, _ := p.cache.LinesInRange(p.dbp, m.dataOff, page.Size)
	p.fusion.obsState().emit(clk.Now(), obs.EvInvalidAck, p.node, id, int64(resident))
	return nil
}

// Get implements buffer.Pool: the latch is the distributed page lock.
func (p *SharedPool) Get(clk *simclock.Clock, id uint64, mode buffer.Mode) (buffer.Frame, error) {
	if err := p.checkAlive(); err != nil {
		return nil, err
	}
	f, err := p.tab.Get(clk, id, mode)
	if err != nil {
		return nil, err
	}
	return &sharedFrame{pool: p, clk: clk, id: id, fr: f, m: f.Slot().(*pmeta), mode: mode}, nil
}

// NewPage implements buffer.Pool: a globally fresh page, zero-filled in the
// DBP.
func (p *SharedPool) NewPage(clk *simclock.Clock) (buffer.Frame, error) {
	if err := p.checkAlive(); err != nil {
		return nil, err
	}
	id := p.fusion.store.AllocPageID()
	f, err := p.tab.Create(clk, id)
	if err != nil {
		return nil, err
	}
	return &sharedFrame{pool: p, clk: clk, id: id, fr: f, m: f.Slot().(*pmeta), mode: buffer.Write}, nil
}

// GetOrCreate write-locks page id, creating it DBP-wide when it has no
// durable image yet (recovery redo of post-checkpoint page creations).
func (p *SharedPool) GetOrCreate(clk *simclock.Clock, id uint64) (buffer.Frame, error) {
	if err := p.checkAlive(); err != nil {
		return nil, err
	}
	f, err := p.tab.GetOrCreate(clk, id)
	if err != nil {
		return nil, err
	}
	return &sharedFrame{pool: p, clk: clk, id: id, fr: f, m: f.Slot().(*pmeta), mode: buffer.Write}, nil
}

// FlushAll implements buffer.Pool: checkpointing the DBP is the fusion
// server's job (it owns the dirty set); a node-side FlushAll delegates.
func (p *SharedPool) FlushAll(clk *simclock.Clock) error {
	if err := p.checkAlive(); err != nil {
		return err
	}
	return p.fusion.FlushDirty(clk, p.barrier)
}

// sharedFrame is a latched page accessed in place in the DBP through the
// node's CPU cache.
type sharedFrame struct {
	pool     *SharedPool
	clk      *simclock.Clock
	id       uint64
	fr       *frametab.Frame
	m        *pmeta
	mode     buffer.Mode
	released bool
	wrote    bool
}

func (f *sharedFrame) ID() uint64 { return f.id }

func (f *sharedFrame) MarkDirty() {} // dirtiness is tracked at write-unlock

func (f *sharedFrame) ReadAt(off int, buf []byte) error {
	if f.released {
		return fmt.Errorf("sharing: read on released shared frame %d", f.id)
	}
	if err := f.pool.cache.Read(f.clk, f.pool.dbp, f.m.dataOff+int64(off), buf); err != nil {
		return err
	}
	f.pool.fusion.obsState().emit(f.clk.Now(), obs.EvSharedRead, f.pool.node, f.id, 0)
	return nil
}

func (f *sharedFrame) WriteAt(off int, data []byte) error {
	if f.released {
		return fmt.Errorf("sharing: write on released shared frame %d", f.id)
	}
	if f.mode != buffer.Write {
		return fmt.Errorf("sharing: write to page %d under a read lock", f.id)
	}
	f.wrote = true
	return f.pool.cache.Write(f.clk, f.pool.dbp, f.m.dataOff+int64(off), data)
}

// Release implements buffer.Frame: the §3.3 publication protocol on write
// locks (clflush dirty lines, then unlock — the fusion server invalidates
// the other active nodes).
func (f *sharedFrame) Release() error {
	if f.released {
		return fmt.Errorf("sharing: double release of shared frame %d", f.id)
	}
	f.released = true
	p := f.pool
	defer p.tab.Unpin(f.fr)
	if f.mode == buffer.Write {
		if f.wrote {
			if err := p.cache.Flush(f.clk, p.dbp, f.m.dataOff, page.Size); err != nil {
				return err
			}
			if o := p.fusion.obsState(); o != nil {
				// Aux = dirty lines surviving the publication flush (torn
				// publication when nonzero).
				_, dirty := p.cache.LinesInRange(p.dbp, f.m.dataOff, page.Size)
				o.emit(f.clk.Now(), obs.EvPublish, p.node, f.id, int64(dirty))
			}
			return p.fusion.UnlockWrite(f.clk, p.node, f.id)
		}
		// Clean write latch: nothing to publish, nobody to invalidate.
		return p.fusion.unlockWriteClean(f.clk, p.node, f.id)
	}
	return p.fusion.UnlockRead(f.clk, p.node, f.id)
}
