package sharing

import (
	"errors"
	"fmt"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/frametab"
	"polarcxlmem/internal/obs"
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
	fusion *Fusion
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
// of fusion (built by NewRDMAFusion) with an LBP of capacityPages local
// copies, reporting its metrics as frametab.rdma/<node>.* into reg (nil
// for none).
func NewRDMASharedPool(node string, fusion *Fusion, nic *rdma.NIC, capacityPages int, reg *obs.Registry) *RDMASharedPool {
	p := &RDMASharedPool{node: node, fusion: fusion, nic: nic, prof: cxl.BufferDRAMProfile()}
	cfg := frametab.Config{Capacity: capacityPages, Store: &rdmaStore{p: p}, Name: "rdma/" + node, Registry: reg}
	// No page-id source: only the core's NewPage draws one, and it must not
	// be called; the pool's own NewPage asks the fusion server.
	p.TablePool = buffer.NewTablePool(cfg, nil, rdmaMedium{p})
	fusion.attachRDMA(node, p)
	return p
}

// CrashPrimary simulates this primary failing: the fusion server marks it
// dead (locks stay granted until reclaimed) and every subsequent pool call
// fails until RejoinPrimary.
func (p *RDMASharedPool) CrashPrimary() {
	p.Fail(fmt.Errorf("sharing: primary %s crashed: %w", p.node, ErrNodeEvicted))
	p.fusion.CrashNode(p.node)
}

// RejoinPrimary restarts the crashed primary with an empty LBP once the
// fusion server has evicted its stale state. Its delivery endpoint stays
// registered: eviction took it out of every page's active set, so nothing
// is delivered to it before its next fetch.
func (p *RDMASharedPool) RejoinPrimary(clk *simclock.Clock) error {
	if err := p.fusion.RejoinNode(clk, p.node); err != nil {
		return err
	}
	p.Restart()
	p.Fail(nil)
	return nil
}

// fetch pulls page id's current image from the DBP over RDMA. The caller
// must hold the page lock, so the image cannot move underneath the read.
func (s *rdmaStore) fetch(clk *simclock.Clock, id uint64) (*buffer.Image, error) {
	p := s.p
	p.Table().Counters.RemoteReads.Add(1)
	img := buffer.NewImage(&p.prof)
	if err := p.fusion.rdmaPage(clk, p.nic, id, img.Buf, false); err != nil {
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
	img, err := s.fetch(clk, id)
	if err != nil {
		return nil, err
	}
	return img, nil
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
		return buffer.Frame{}, err
	}
	if _, err := p.fusion.GetPage(clk, p.node, id, flagAddrs{}); err != nil {
		return buffer.Frame{}, err
	}
	return p.lockAndBind(clk, id, mode)
}

// NewPage implements buffer.Pool: a globally fresh page.
func (p *RDMASharedPool) NewPage(clk *simclock.Clock) (buffer.Frame, error) {
	if err := p.Failed(); err != nil {
		return buffer.Frame{}, err
	}
	id := p.fusion.allocPageID()
	if _, err := p.fusion.CreatePage(clk, p.node, id, flagAddrs{}); err != nil {
		return buffer.Frame{}, err
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
		return buffer.Frame{}, err
	}
	if _, cerr := p.fusion.CreatePage(clk, p.node, id, flagAddrs{}); cerr != nil {
		return buffer.Frame{}, cerr
	}
	return p.lockAndBind(clk, id, buffer.Write)
}

// lockAndBind takes the distributed page lock, then materializes the local
// copy through the core's Get (lock first: the copy must reflect the image
// the lock protects).
func (p *RDMASharedPool) lockAndBind(clk *simclock.Clock, id uint64, mode buffer.Mode) (buffer.Frame, error) {
	if err := p.fusion.Lock(clk, p.node, id, mode == buffer.Write); err != nil {
		return buffer.Frame{}, err
	}
	f, err := p.TablePool.Get(clk, id, mode)
	if err != nil {
		// Nothing was written under the lock: release it clean.
		if mode == buffer.Write {
			p.fusion.unlockWriteClean(clk, p.node, id)
		} else {
			p.fusion.UnlockRead(clk, p.node, id)
		}
		return buffer.Frame{}, err
	}
	return f, nil
}

// FlushAll implements buffer.Pool: checkpointing the DBP through the fusion
// server.
func (p *RDMASharedPool) FlushAll(clk *simclock.Clock) error {
	if err := p.Failed(); err != nil {
		return err
	}
	return p.fusion.FlushDirty(clk, p.Barrier)
}

// rdmaMedium is RDMASharedPool's buffer.Medium: a visit reads and writes
// the local page copy (a buffer.Image) at host-DRAM cost. Dirtiness is
// tracked at the fusion server (write-unlock), so the frame's own dirty
// bit is never consulted.
type rdmaMedium struct{ p *RDMASharedPool }

func (rdmaMedium) Open(f buffer.Frame) page.Accessor { return f.Entry().Slot().(*buffer.Image) }
func (rdmaMedium) Close(buffer.Frame, page.Accessor) {}
func (rdmaMedium) MarkDirty(f buffer.Frame)          { f.Entry().MarkDirty() }

// Release implements buffer.Medium: the PolarDB-MP release protocol — push
// the FULL page to the DBP before the lock can move, then invalidate. The
// local latch and pin drop first (as in the pre-frametab pool): the push
// works on the image the frame held, and a concurrent eviction of the
// now-unpinned table entry cannot disturb it.
func (m rdmaMedium) Release(f buffer.Frame) error {
	p, fr, clk := m.p, f.Entry(), f.Clock()
	img := fr.Slot().(*buffer.Image)
	wrote := f.Mode() == buffer.Write && img.TakeWrote()
	fr.Unlock(f.Mode())
	p.Table().Unpin(fr)
	id := fr.ID()
	if f.Mode() == buffer.Write {
		if wrote {
			p.Table().Counters.RemoteWrites.Add(1)
			if err := p.fusion.rdmaPage(clk, p.nic, id, img.Buf, true); err != nil {
				return err
			}
			return p.fusion.UnlockWrite(clk, p.node, id)
		}
		return p.fusion.unlockWriteClean(clk, p.node, id)
	}
	return p.fusion.UnlockRead(clk, p.node, id)
}
