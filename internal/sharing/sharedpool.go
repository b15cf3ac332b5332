package sharing

import (
	"fmt"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/frametab"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simcpu"
	"polarcxlmem/internal/simmem"
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
// The protocol steps themselves — flag addressing, install, the invalid-flag
// check and the publish on write-unlock — are run by a Node the pool holds,
// whose flag accesses carry no interconnect charge. That Node's metadata map
// stays empty: the pool's entries live in a frametab table whose capacity
// is the flag-region slot count, and entry recycling is the table's
// pin-aware eviction, so an entry can never be recycled out from under a
// live frame.
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
	*buffer.TablePool
	n *Node // protocol steps, fusion handle and the flag-slot free list
}

var (
	_ buffer.Pool    = (*SharedPool)(nil)
	_ buffer.Creator = (*SharedPool)(nil)
)

// sharedStore is SharedPool's frametab backend: slots are *pmeta entries
// pointing at a flag-word pair and a DBP frame address.
type sharedStore struct{ p *SharedPool }

// NewSharedPool builds one node's view of the distributed buffer pool. Its
// metadata table holds one entry per flag slot and reports its metrics as
// frametab.shared/<node>.*; the fusion server's cluster-wide metrics are
// registered separately via Fusion.SetObserver.
func NewSharedPool(node string, fusion *Fusion, cache *simcpu.Cache, flagRegion *simmem.Region) *SharedPool {
	p := &SharedPool{n: NewNode(node, fusion, cache, flagRegion)}
	p.TablePool = buffer.NewTablePool(frametab.Config{Capacity: p.n.nslots, Store: &sharedStore{p: p}}, "shared/"+node, fusion.store, p.bind)
	return p
}

func (p *SharedPool) bind(clk *simclock.Clock, f *frametab.Frame, mode buffer.Mode) buffer.Frame {
	return &sharedFrame{pool: p, clk: clk, id: f.ID(), fr: f, m: f.Slot().(*pmeta), mode: mode}
}

// CrashPrimary kills this node: the fusion server marks it dead (its lock
// leases stop renewing; survivors — or an explicit EvictNode — reclaim its
// locks once they expire), and every local pool operation fails until
// RejoinPrimary. The node's in-flight work simply stops, exactly as a
// process crash would leave it.
func (p *SharedPool) CrashPrimary() {
	p.Fail(fmt.Errorf("sharing: node %s is crashed: %w", p.n.name, ErrNodeEvicted))
	// Power loss: every unflushed line in the host's CPU cache is gone. The
	// rejoined incarnation must never be able to write back pre-crash data
	// over frames the fusion server has since rebuilt.
	p.n.cache.Drop()
	p.n.fusion.CrashNode(p.n.name)
}

// RejoinPrimary restarts the node with empty local state: the fusion server
// evicts whatever the dead incarnation still held, the metadata table and
// flag-slot pool are rebuilt from scratch, and the node's lease restarts.
func (p *SharedPool) RejoinPrimary(clk *simclock.Clock) error {
	if err := p.n.fusion.RejoinNode(clk, p.n.name); err != nil {
		return err
	}
	p.n.mu.Lock()
	p.n.resetSlots()
	p.n.mu.Unlock()
	p.Restart()
	p.Fail(nil)
	return nil
}

// Fetch implements frametab.FrameStore.
func (s *sharedStore) Fetch(clk *simclock.Clock, id uint64) (any, bool, error) {
	m, err := s.p.n.install(clk, id, false)
	if err != nil {
		return nil, false, err
	}
	// Dirtiness is tracked at the fusion server (write-unlock), not per node.
	return m, false, nil
}

// Create implements frametab.FrameStore: a globally fresh, zero-filled DBP
// page.
func (s *sharedStore) Create(clk *simclock.Clock, id uint64) (any, error) {
	m, err := s.p.n.install(clk, id, true)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Evict implements frametab.EvictStore: recycling a metadata entry only
// returns the flag slot — the page itself lives at the fusion server.
func (s *sharedStore) Evict(clk *simclock.Clock, id uint64, slot any, dirty bool) error {
	n := s.p.n
	n.mu.Lock()
	n.freeSlots = append(n.freeSlots, slot.(*pmeta).slot)
	n.mu.Unlock()
	return nil
}

// Revalidate implements frametab.Revalidator: the fusion server sets our
// removal flag when it recycles the DBP frame; a removed entry must be
// retired and re-registered.
func (s *sharedStore) Revalidate(clk *simclock.Clock, id uint64, slot any) (bool, error) {
	removed, err := s.p.n.removed(clk, slot.(*pmeta))
	if err != nil {
		return false, err
	}
	return !removed, nil
}

// Latch implements frametab.Latcher: the distributed page lock, plus the
// invalid-flag check that must run under it. fresh pages (our own create)
// skip the check — no other node has ever held them.
func (s *sharedStore) Latch(clk *simclock.Clock, id uint64, slot any, write, fresh bool) error {
	n := s.p.n
	if err := n.fusion.Lock(clk, n.name, id, write); err != nil {
		return err
	}
	if fresh {
		return nil
	}
	if err := n.honourInvalid(clk, id, slot.(*pmeta)); err != nil {
		if write {
			n.fusion.UnlockWrite(clk, n.name, id)
		} else {
			n.fusion.UnlockRead(clk, n.name, id)
		}
		return err
	}
	return nil
}

// FlushAll implements buffer.Pool: checkpointing the DBP is the fusion
// server's job (it owns the dirty set); a node-side FlushAll delegates.
func (p *SharedPool) FlushAll(clk *simclock.Clock) error {
	if err := p.Failed(); err != nil {
		return err
	}
	return p.n.fusion.FlushDirty(clk, p.Barrier)
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
	n := f.pool.n
	if err := n.cache.Read(f.clk, n.dbp, f.m.dataOff+int64(off), buf); err != nil {
		return err
	}
	n.emitRead(f.clk, f.id)
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
	n := f.pool.n
	return n.cache.Write(f.clk, n.dbp, f.m.dataOff+int64(off), data)
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
	defer p.Table().Unpin(f.fr)
	if f.mode == buffer.Write {
		if f.wrote {
			return p.n.publish(f.clk, f.id, f.m)
		}
		// Clean write latch: nothing to publish, nobody to invalidate.
		return p.n.fusion.unlockWriteClean(f.clk, p.n.name, f.id)
	}
	return p.n.fusion.UnlockRead(f.clk, p.n.name, f.id)
}
