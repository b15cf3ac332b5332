package sharing

import (
	"errors"
	"fmt"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/frametab"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simmem"
	"polarcxlmem/internal/storage"
)

// RDMASharedPool implements buffer.Pool over the RDMA-MP baseline, so the
// full transaction engine runs multi-primary the PolarDB-MP way: every
// buffer miss pulls a whole 16 KB page over RDMA into a local copy, and
// every write-lock release pushes the whole page back and fans invalidation
// messages to the other nodes. The engine-level counterpart of SharedPool,
// with the same driving constraints (writers serialized across nodes).
//
// The local-copy cache (LBP) is the embedded buffer.TablePool's table over
// an rdmaStore: slots are whole-page images fetched from the DBP, and
// invalidation delivery is the table's TakeIfIdle (pinned copies are left in
// place — the holder owns the page lock, so a concurrent invalidation for it
// cannot happen). Get, NewPage and GetOrCreate are the pool's own: they take
// the page lock, then materialize the local copy through the core's Get. The
// core's NewPage and GetOrCreate skip the lock and must not be called.
type RDMASharedPool struct {
	*buffer.TablePool
	node   string
	fusion *RDMAFusion
	nic    *rdma.NIC
	prof   simmem.Profile // local-copy access cost (host DRAM)
}

var (
	_ buffer.Pool    = (*RDMASharedPool)(nil)
	_ buffer.Creator = (*RDMASharedPool)(nil)
)

// rdmaStore is RDMASharedPool's frametab backend: slots are local page
// copies pulled whole from the DBP.
type rdmaStore struct {
	p *RDMASharedPool
}

// NewRDMASharedPool builds one node's engine-facing view of the RDMA DBP
// with an LBP of capacityPages local copies, reporting its metrics as
// frametab.rdma/<node>.*.
func NewRDMASharedPool(node string, fusion *RDMAFusion, nic *rdma.NIC, capacityPages int) *RDMASharedPool {
	p := &RDMASharedPool{node: node, fusion: fusion, nic: nic, prof: cxl.BufferDRAMProfile()}
	p.TablePool = buffer.NewTablePool(frametab.Config{Capacity: capacityPages, Store: &rdmaStore{p: p}}, "rdma/"+node, fusion.store, p.bind)
	fusion.mu.Lock()
	fusion.nodes[node] = p
	fusion.mu.Unlock()
	return p
}

// CrashPrimary simulates this primary failing: the fusion server marks it
// dead (locks stay granted until reclaimed) and every subsequent pool call
// fails until RejoinPrimary.
func (p *RDMASharedPool) CrashPrimary() {
	p.Fail(fmt.Errorf("sharing: primary %s crashed: %w", p.node, ErrNodeEvicted))
	p.fusion.CrashNode(p.node)
}

// RejoinPrimary restarts the crashed primary with an empty LBP: the fusion
// server evicts its stale state, then the node re-registers for invalidation
// delivery.
func (p *RDMASharedPool) RejoinPrimary(clk *simclock.Clock) error {
	if err := p.fusion.RejoinNode(clk, p.node); err != nil {
		return err
	}
	p.Restart()
	p.fusion.mu.Lock()
	p.fusion.nodes[p.node] = p
	p.fusion.mu.Unlock()
	p.Fail(nil)
	return nil
}

// fetch pulls page id's current image from the DBP over RDMA. The caller
// must hold the page lock, so the image cannot move underneath the read.
func (s *rdmaStore) fetch(clk *simclock.Clock, id uint64) ([]byte, error) {
	p := s.p
	p.Table().Counters.RemoteReads.Add(1)
	p.fusion.mu.Lock()
	ps := p.fusion.pages[id]
	p.fusion.mu.Unlock()
	if ps == nil {
		return nil, fmt.Errorf("sharing: frame for unregistered page %d", id)
	}
	img := make([]byte, page.Size)
	if err := p.fusion.dbp.Read(clk, p.nic, ps.off, img); err != nil {
		return nil, err
	}
	return img, nil
}

// Fetch implements frametab.FrameStore.
func (s *rdmaStore) Fetch(clk *simclock.Clock, id uint64) (any, bool, error) {
	img, err := s.fetch(clk, id)
	if err != nil {
		return nil, false, err
	}
	// Dirtiness is tracked at the fusion server, not per local copy.
	return img, false, nil
}

// Create implements frametab.FrameStore: the DBP frame was just created
// (zero-filled) by the fusion server; pull it like any other page.
func (s *rdmaStore) Create(clk *simclock.Clock, id uint64) (any, error) {
	return s.fetch(clk, id)
}

// Evict implements frametab.EvictStore: dropping a local copy costs
// nothing — the DBP holds the authoritative image (write-lock releases
// pushed every modification before the lock could move).
func (s *rdmaStore) Evict(clk *simclock.Clock, id uint64, slot any, dirty bool) error {
	return nil
}

// dropLocal implements invalidation delivery: a peer's write obsoleted our
// copy. Pinned frames are left in place — the holder owns the page lock, so
// a concurrent invalidation for it cannot happen; unpinned copies go.
func (p *RDMASharedPool) dropLocal(pageID uint64) {
	p.Table().TakeIfIdle(pageID)
}

// NIC exposes the node's NIC for bandwidth accounting.
func (p *RDMASharedPool) NIC() *rdma.NIC { return p.nic }

// Get implements buffer.Pool.
func (p *RDMASharedPool) Get(clk *simclock.Clock, id uint64, mode buffer.Mode) (buffer.Frame, error) {
	// Checked before the core's Get: a crashed primary must not reach the
	// fusion server.
	if err := p.Failed(); err != nil {
		return nil, err
	}
	if _, err := p.fusion.getPage(clk, p.node, id); err != nil {
		return nil, err
	}
	return p.lockAndBind(clk, id, mode)
}

// NewPage implements buffer.Pool: a globally fresh page.
func (p *RDMASharedPool) NewPage(clk *simclock.Clock) (buffer.Frame, error) {
	if err := p.Failed(); err != nil {
		return nil, err
	}
	id := p.fusion.store.AllocPageID()
	if _, err := p.fusion.createPage(clk, p.node, id); err != nil {
		return nil, err
	}
	return p.lockAndBind(clk, id, buffer.Write)
}

// GetOrCreate write-locks page id, creating it DBP-wide when it has no
// durable image yet (recovery redo of post-checkpoint page creations).
func (p *RDMASharedPool) GetOrCreate(clk *simclock.Clock, id uint64) (buffer.Frame, error) {
	f, err := p.Get(clk, id, buffer.Write)
	if err == nil {
		return f, nil
	}
	if !errors.Is(err, storage.ErrNotFound) {
		return nil, err
	}
	if _, cerr := p.fusion.createPage(clk, p.node, id); cerr != nil {
		return nil, cerr
	}
	return p.lockAndBind(clk, id, buffer.Write)
}

// lockAndBind takes the distributed page lock, then materializes the local
// copy through the core's Get (lock first: the copy must reflect the image
// the lock protects).
func (p *RDMASharedPool) lockAndBind(clk *simclock.Clock, id uint64, mode buffer.Mode) (buffer.Frame, error) {
	if err := p.fusion.Lock(clk, p.node, id, mode == buffer.Write); err != nil {
		return nil, err
	}
	f, err := p.TablePool.Get(clk, id, mode)
	if err != nil {
		if mode == buffer.Write {
			p.fusion.UnlockWrite(clk, p.node, id)
		} else {
			p.fusion.UnlockRead(clk, p.node, id)
		}
		return nil, err
	}
	return f, nil
}

func (p *RDMASharedPool) bind(clk *simclock.Clock, f *frametab.Frame, mode buffer.Mode) buffer.Frame {
	return &mpBound{ImageFrame: buffer.ImageFrame{Tab: p.Table(), Fr: f, Prof: &p.prof, Clk: clk, Mode: mode}, pool: p}
}

// FlushAll implements buffer.Pool: checkpointing the DBP through the fusion
// server.
func (p *RDMASharedPool) FlushAll(clk *simclock.Clock) error {
	if err := p.Failed(); err != nil {
		return err
	}
	return p.fusion.FlushDirty(clk, p.Barrier)
}

// mpBound is a latched local page copy, read and written at host-DRAM cost
// by the embedded ImageFrame. Dirtiness is tracked at the fusion server
// (write-unlock), so the frame's own dirty bit is never consulted.
type mpBound struct {
	buffer.ImageFrame
	pool *RDMASharedPool
}

// Release implements buffer.Frame: the PolarDB-MP release protocol — push
// the FULL page to the DBP before the lock can move, then invalidate. The
// local latch and pin drop first (as in the pre-frametab pool): the push
// works on the image this bound frame holds, and a concurrent eviction of
// the now-unpinned table entry cannot disturb it.
func (b *mpBound) Release() error {
	if err := b.ImageFrame.Release(); err != nil {
		return err
	}
	p, id := b.pool, b.ID()
	if b.Mode == buffer.Write {
		if b.Wrote {
			p.fusion.mu.Lock()
			ps := p.fusion.pages[id]
			p.fusion.mu.Unlock()
			if ps == nil {
				return fmt.Errorf("sharing: release of unregistered page %d", id)
			}
			p.Table().Counters.RemoteWrites.Add(1)
			if err := p.fusion.dbp.Write(b.Clk, p.nic, ps.off, b.Fr.Slot().([]byte)); err != nil {
				return err
			}
			return p.fusion.UnlockWrite(b.Clk, p.node, id)
		}
		return p.fusion.unlockWriteCleanRDMA(b.Clk, p.node, id)
	}
	return p.fusion.UnlockRead(b.Clk, p.node, id)
}
