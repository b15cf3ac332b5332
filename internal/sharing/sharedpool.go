package sharing

import (
	"encoding/binary"
	"fmt"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/frametab"
	"polarcxlmem/internal/page"
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
// frametab.shared/<node>.* into the fusion server's registry.
func NewSharedPool(node string, fusion *Fusion, cache *simcpu.Cache, flagRegion *simmem.Region) *SharedPool {
	p := &SharedPool{n: NewNode(node, fusion, cache, flagRegion)}
	cfg := frametab.Config{Capacity: p.n.nslots, Store: &sharedStore{p: p}, Name: "shared/" + node, Registry: fusion.reg}
	p.TablePool = buffer.NewTablePool(cfg, fusion.store, sharedMedium{p})
	return p
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
		// Nothing was written under the lock: release it clean.
		if write {
			n.fusion.unlockWriteClean(clk, n.name, id)
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

// sharedMedium is SharedPool's buffer.Medium: a visit reads and writes the
// page in place in the DBP through its *pmeta entry.
type sharedMedium struct{ p *SharedPool }

func (sharedMedium) Open(f buffer.Frame) page.Accessor { return f.Entry().Slot().(*pmeta) }
func (sharedMedium) Close(buffer.Frame, page.Accessor) {}
func (sharedMedium) MarkDirty(buffer.Frame)            {} // dirtiness is tracked at write-unlock

// Release implements buffer.Medium: the §3.3 publication protocol on write
// locks (clflush dirty lines, then unlock — the fusion server invalidates
// the other active nodes).
func (m sharedMedium) Release(f buffer.Frame) error {
	p, fr, clk := m.p, f.Entry(), f.Clock()
	defer p.Table().Unpin(fr)
	if f.Mode() == buffer.Write {
		if pm := fr.Slot().(*pmeta); pm.wrote {
			pm.wrote = false
			return p.n.publish(clk, fr.ID(), pm)
		}
		// Clean write latch: nothing to publish, nobody to invalidate.
		return p.n.fusion.unlockWriteClean(clk, p.n.name, fr.ID())
	}
	return p.n.fusion.UnlockRead(clk, p.n.name, fr.ID())
}

// inPage refuses a span [off, off+n) that leaves the page: the DBP holds
// the pages back to back, so an access past one page's end would reach a
// neighbour's frame without that page's lock.
func inPage(off, n int, op string) error {
	if off < 0 || off > page.Size-n {
		return fmt.Errorf("sharing: %s [%d,%d) out of page bounds [0,%d)", op, off, off+n, page.Size)
	}
	return nil
}

// ReadAt implements page.Accessor: a read of the page in place in the DBP
// through the node's CPU cache, traced for the stale-read checker. Each
// access takes the cache's lock on its own.
func (m *pmeta) ReadAt(clk *simclock.Clock, off int, buf []byte) error {
	if err := inPage(off, len(buf), "read"); err != nil {
		return err
	}
	if err := m.n.read(clk, m, int64(off), buf); err != nil {
		return err
	}
	m.n.emitRead(clk, m.id)
	return nil
}

// WriteAt implements page.Accessor: a write through the node's CPU cache,
// published by the clflush on release.
func (m *pmeta) WriteAt(clk *simclock.Clock, off int, data []byte) error {
	if err := inPage(off, len(data), "write"); err != nil {
		return err
	}
	m.wrote = true
	return m.n.write(clk, m, int64(off), data)
}

// Load implements page.Accessor: a ReadAt of n bytes into a stack word.
func (m *pmeta) Load(clk *simclock.Clock, off, n int) (uint64, error) {
	var w [8]byte
	if err := m.ReadAt(clk, off, w[:n]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(w[:]), nil
}

// Store implements page.Accessor: a WriteAt of v's low n bytes.
func (m *pmeta) Store(clk *simclock.Clock, off, n int, v uint64) error {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	return m.WriteAt(clk, off, w[:n])
}
