package sharing

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"

	"polarcxlmem/internal/page"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
)

// RDMAFusion is the PolarDB-MP baseline's buffer-fusion server: the DBP
// lives on an RDMA-exposed memory node; nodes keep local page copies (LBP)
// and synchronize at page granularity. On a write-lock release the whole
// 16 KB page is pushed to the DBP and invalidation messages go to every
// other active node over the network (§2.2 item 4, §3.3 "Benefits").
type RDMAFusion struct {
	dbp   *rdma.Pool
	nic   *rdma.NIC // the memory/fusion node's NIC (serves invalidations)
	store *storage.Store

	mu       sync.Mutex
	pages    map[uint64]*rdmaPageState
	nextOff  int64
	free     []int64
	nodes    map[string]invalidatable
	getCalls int64

	evictMu sync.Mutex
	leases  *leaseTable
	pol     LockPolicy

	// DisableInvalidation turns off the invalidation fan-out — the knob
	// that demonstrates the baseline's coherency machinery is load-bearing.
	DisableInvalidation bool
}

// invalidatable receives invalidation deliveries (RDMANode and
// RDMASharedPool both register).
type invalidatable interface {
	dropLocal(pageID uint64)
}

type rdmaPageState struct {
	id     uint64
	off    int64
	active map[string]bool
	dirty  bool
	lk     *pageLock
}

// NewRDMAFusion builds the baseline fusion server with a DBP of
// capacityPages frames.
func NewRDMAFusion(capacityPages int, store *storage.Store) *RDMAFusion {
	return &RDMAFusion{
		dbp:    rdma.NewPool("dbp", int64(capacityPages)*page.Size),
		nic:    rdma.NewNIC("fusion", 0, 0),
		store:  store,
		pages:  make(map[uint64]*rdmaPageState),
		nodes:  make(map[string]invalidatable),
		leases: newLeaseTable(DefaultLeaseNanos),
		pol:    LockPolicy{}.withDefaults(),
	}
}

// rpcGate rejects traffic from an evicted node and renews the caller's
// lease (any served RPC is proof of life).
func (f *RDMAFusion) rpcGate(clk *simclock.Clock, node string) error {
	if f.leases.isDead(node) {
		return fmt.Errorf("sharing: node %s: %w", node, ErrNodeEvicted)
	}
	f.leases.touch(node, clk.Now())
	return nil
}

// GetCalls reports served GetPage RPCs.
func (f *RDMAFusion) GetCalls() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.getCalls
}

// getPage returns the DBP offset for pageID, loading from storage on first
// use (written to the DBP through the fusion node's own NIC).
func (f *RDMAFusion) getPage(clk *simclock.Clock, node string, pageID uint64) (int64, error) {
	clk.Advance(RPCNanos)
	if err := f.rpcGate(clk, node); err != nil {
		return 0, err
	}
	f.mu.Lock()
	f.getCalls++
	ps, ok := f.pages[pageID]
	if !ok {
		var off int64
		if n := len(f.free); n > 0 {
			off = f.free[n-1]
			f.free = f.free[:n-1]
		} else if f.nextOff+page.Size <= f.dbp.Size() {
			off = f.nextOff
			f.nextOff += page.Size
		} else {
			f.mu.Unlock()
			return 0, fmt.Errorf("sharing: RDMA DBP full")
		}
		ps = &rdmaPageState{id: pageID, off: off, active: make(map[string]bool), lk: newPageLock()}
		f.pages[pageID] = ps
		f.mu.Unlock()
		img := make([]byte, page.Size)
		if err := f.store.ReadPage(clk, pageID, img); err != nil {
			f.mu.Lock()
			delete(f.pages, pageID)
			f.free = append(f.free, off)
			f.mu.Unlock()
			return 0, err
		}
		if err := f.dbp.Write(clk, f.nic, off, img); err != nil {
			return 0, err
		}
		f.mu.Lock()
	}
	ps.active[node] = true
	f.mu.Unlock()
	return ps.off, nil
}

// createPage allocates a zeroed DBP frame for a globally fresh page (the
// engine's NewPage in the multi-primary deployment).
func (f *RDMAFusion) createPage(clk *simclock.Clock, node string, pageID uint64) (int64, error) {
	clk.Advance(RPCNanos)
	if err := f.rpcGate(clk, node); err != nil {
		return 0, err
	}
	f.mu.Lock()
	if _, exists := f.pages[pageID]; exists {
		f.mu.Unlock()
		return 0, fmt.Errorf("sharing: create of existing page %d", pageID)
	}
	var off int64
	if n := len(f.free); n > 0 {
		off = f.free[n-1]
		f.free = f.free[:n-1]
	} else if f.nextOff+page.Size <= f.dbp.Size() {
		off = f.nextOff
		f.nextOff += page.Size
	} else {
		f.mu.Unlock()
		return 0, fmt.Errorf("sharing: RDMA DBP full")
	}
	ps := &rdmaPageState{id: pageID, off: off, active: map[string]bool{node: true}, dirty: true, lk: newPageLock()}
	f.pages[pageID] = ps
	f.getCalls++
	f.mu.Unlock()
	if err := f.dbp.Write(clk, f.nic, off, make([]byte, page.Size)); err != nil {
		return 0, err
	}
	return off, nil
}

// unlockWriteCleanRDMA releases an unmodified write lock: no page push, no
// invalidations.
func (f *RDMAFusion) unlockWriteCleanRDMA(clk *simclock.Clock, node string, pageID uint64) error {
	clk.Advance(RPCNanos)
	f.leases.touch(node, clk.Now())
	f.mu.Lock()
	ps := f.pages[pageID]
	f.mu.Unlock()
	if ps == nil {
		return fmt.Errorf("sharing: clean write-unlock of unknown page %d", pageID)
	}
	return ps.lk.releaseWrite(node)
}

// FlushDirty checkpoints the DBP: dirty frames are read back over the
// fusion node's NIC and written to storage.
func (f *RDMAFusion) FlushDirty(clk *simclock.Clock, barrier func(*simclock.Clock, uint64)) error {
	f.mu.Lock()
	var dirty []*rdmaPageState
	for _, ps := range f.pages {
		if ps.dirty {
			dirty = append(dirty, ps)
		}
	}
	f.mu.Unlock()
	img := make([]byte, page.Size)
	for _, ps := range dirty {
		if err := acquirePageLock(clk, ps.lk, nil, f.pol, fusionNode, ps.id, false, nil); err != nil {
			return err
		}
		err := f.dbp.Read(clk, f.nic, ps.off, img)
		if err == nil {
			if barrier != nil {
				barrier(clk, page.RawLSN(img))
			}
			err = f.store.WritePage(clk, ps.id, img)
		}
		if err == nil {
			ps.dirty = false
		}
		ps.lk.releaseRead(fusionNode)
		if err != nil {
			return err
		}
	}
	return nil
}

// Lock acquires the distributed page lock with a bounded wait. A blocker
// whose lease has lapsed after it was marked dead is evicted inline; a live
// but stuck holder surfaces as a LockTimeoutError.
func (f *RDMAFusion) Lock(clk *simclock.Clock, node string, pageID uint64, write bool) error {
	clk.Advance(RPCNanos)
	if err := f.rpcGate(clk, node); err != nil {
		return err
	}
	f.mu.Lock()
	ps, ok := f.pages[pageID]
	pol := f.pol
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("sharing: lock of unknown page %d", pageID)
	}
	return acquirePageLock(clk, ps.lk, f.leases, pol, node, pageID, write,
		func(c *simclock.Clock, dead string) error { return f.EvictNode(c, dead) })
}

// UnlockRead releases node's read lock.
func (f *RDMAFusion) UnlockRead(clk *simclock.Clock, node string, pageID uint64) error {
	clk.Advance(RPCNanos)
	f.leases.touch(node, clk.Now())
	f.mu.Lock()
	ps := f.pages[pageID]
	f.mu.Unlock()
	if ps == nil {
		return fmt.Errorf("sharing: unlock of unknown page %d", pageID)
	}
	return ps.lk.releaseRead(node)
}

// UnlockWrite releases node's write lock after the page push, then fans an
// invalidation message out to every other active node over the network.
// The releasing worker bears the fan-out latency: the paper notes the
// full-page flush plus invalidation "prolong[s] the lock release time".
func (f *RDMAFusion) UnlockWrite(clk *simclock.Clock, node string, pageID uint64) error {
	clk.Advance(RPCNanos)
	f.leases.touch(node, clk.Now())
	f.mu.Lock()
	ps := f.pages[pageID]
	var targets []invalidatable
	if ps != nil {
		ps.dirty = true
		if !f.DisableInvalidation {
			for other := range ps.active {
				if other != node {
					if peer := f.nodes[other]; peer != nil {
						targets = append(targets, peer)
					}
				}
			}
		}
	}
	f.mu.Unlock()
	if ps == nil {
		return fmt.Errorf("sharing: write-unlock of unknown page %d", pageID)
	}
	for _, peer := range targets {
		f.nic.Send(clk, 64) // invalidation message
		peer.dropLocal(pageID)
	}
	return ps.lk.releaseWrite(node)
}

// CrashNode marks node dead. Its locks stay granted until reclaimed — by an
// explicit EvictNode or lazily by the first waiter whose lease probe finds
// them expired.
func (f *RDMAFusion) CrashNode(node string) {
	f.leases.markDead(node)
}

// RejoinNode re-admits a previously crashed node: finish (or run) its
// eviction so no stale state survives, then revive its lease. The caller
// re-registers the node's delivery endpoint afterwards.
func (f *RDMAFusion) RejoinNode(clk *simclock.Clock, node string) error {
	if f.leases.isDead(node) {
		if err := f.EvictNode(clk, node); err != nil {
			return err
		}
	}
	f.leases.revive(node, clk.Now())
	return nil
}

// EvictNode reclaims everything the (dead) node holds. The RDMA baseline
// needs no redo: the full-page DBP push completes before a write lock can be
// released and is atomic in the model, so the DBP frame always holds either
// the pre-image or a complete pushed image — never torn bytes. An un-pushed
// modification died with the node's LBP. What survivors MAY hold is a stale
// LBP copy of a page the dead node pushed without ever fanning out
// invalidations (it crashed between push and unlock), so write-held pages
// get the invalidation fan-out the dead node still owed. Idempotent.
func (f *RDMAFusion) EvictNode(clk *simclock.Clock, node string) error {
	f.leases.markDead(node)
	f.evictMu.Lock()
	defer f.evictMu.Unlock()

	f.mu.Lock()
	ids := make([]uint64, 0, len(f.pages))
	for id := range f.pages {
		ids = append(ids, id)
	}
	f.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	for _, id := range ids {
		f.mu.Lock()
		ps := f.pages[id]
		f.mu.Unlock()
		if ps == nil {
			continue
		}
		if ps.lk.writerIs(node) {
			// The dead node may have pushed its image without delivering the
			// invalidations; settle its debt before freeing the lock.
			f.mu.Lock()
			var targets []invalidatable
			if !f.DisableInvalidation {
				for other := range ps.active {
					if other != node {
						if peer := f.nodes[other]; peer != nil {
							targets = append(targets, peer)
						}
					}
				}
			}
			ps.dirty = true
			f.mu.Unlock()
			for _, peer := range targets {
				f.nic.Send(clk, 64)
				peer.dropLocal(id)
			}
		}
		ps.lk.forceRelease(node)
		f.mu.Lock()
		delete(ps.active, node)
		f.mu.Unlock()
	}
	f.mu.Lock()
	delete(f.nodes, node)
	f.mu.Unlock()
	return nil
}

// RDMANode is one PolarDB-MP database node: an LBP of local page copies in
// front of the RDMA DBP.
type RDMANode struct {
	name   string
	fusion *RDMAFusion
	nic    *rdma.NIC

	mu       sync.Mutex
	lbp      map[uint64]*list.Element
	lru      *list.List // of *lbpEntry
	capacity int

	stats RDMANodeStats
}

type lbpEntry struct {
	id  uint64
	img []byte
}

// RDMANodeStats counts baseline events.
type RDMANodeStats struct {
	Hits          int64
	Misses        int64 // full-page RDMA reads
	PagePushes    int64 // full-page RDMA writes on release
	Invalidations int64 // local copies dropped
	Reads         int64
	Writes        int64
}

// NewRDMANode builds a baseline node with an LBP of capacityPages local
// copies, registered with the fusion server for invalidation delivery.
func NewRDMANode(name string, fusion *RDMAFusion, nic *rdma.NIC, capacityPages int) *RDMANode {
	n := &RDMANode{
		name:     name,
		fusion:   fusion,
		nic:      nic,
		lbp:      make(map[uint64]*list.Element),
		lru:      list.New(),
		capacity: capacityPages,
	}
	fusion.mu.Lock()
	fusion.nodes[name] = n
	fusion.mu.Unlock()
	return n
}

// Stats snapshots the node's counters.
func (n *RDMANode) Stats() RDMANodeStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// NIC exposes the node's NIC for bandwidth reporting.
func (n *RDMANode) NIC() *rdma.NIC { return n.nic }

// dropLocal discards the LBP copy of pageID (invalidation delivery).
func (n *RDMANode) dropLocal(pageID uint64) {
	n.mu.Lock()
	if e, ok := n.lbp[pageID]; ok {
		n.lru.Remove(e)
		delete(n.lbp, pageID)
		n.stats.Invalidations++
	}
	n.mu.Unlock()
}

// localPage returns the LBP copy of pageID, fetching the full page over
// RDMA on a miss.
func (n *RDMANode) localPage(clk *simclock.Clock, pageID uint64) (*lbpEntry, error) {
	n.mu.Lock()
	if e, ok := n.lbp[pageID]; ok {
		n.lru.MoveToFront(e)
		n.stats.Hits++
		ent := e.Value.(*lbpEntry)
		n.mu.Unlock()
		return ent, nil
	}
	n.stats.Misses++
	for len(n.lbp) >= n.capacity {
		back := n.lru.Back()
		victim := back.Value.(*lbpEntry)
		n.lru.Remove(back)
		delete(n.lbp, victim.id)
		// Clean eviction: the DBP copy is refreshed on every write-lock
		// release, so LBP copies are never the sole latest version.
	}
	n.mu.Unlock()

	off, err := n.fusion.getPage(clk, n.name, pageID)
	if err != nil {
		return nil, err
	}
	ent := &lbpEntry{id: pageID, img: make([]byte, page.Size)}
	// Full 16 KB RDMA read even if the caller needs a handful of bytes.
	if err := n.fusion.dbp.Read(clk, n.nic, off, ent.img); err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.lbp[pageID] = n.lru.PushFront(ent)
	n.mu.Unlock()
	return ent, nil
}

// Read copies len(buf) bytes at off within the page under its read lock.
func (n *RDMANode) Read(clk *simclock.Clock, pageID uint64, off int64, buf []byte) error {
	if err := n.fusion.Lock(clk, n.name, pageID, false); err != nil {
		if errors.Is(err, ErrLockTimeout) || errors.Is(err, ErrNodeEvicted) {
			return err
		}
		// The page may be unknown to the fusion server until first fetch.
		if _, gerr := n.fusion.getPage(clk, n.name, pageID); gerr != nil {
			return gerr
		}
		if err := n.fusion.Lock(clk, n.name, pageID, false); err != nil {
			return err
		}
	}
	defer n.fusion.UnlockRead(clk, n.name, pageID)
	ent, err := n.localPage(clk, pageID)
	if err != nil {
		return err
	}
	if off < 0 || off+int64(len(buf)) > page.Size {
		return fmt.Errorf("sharing: read [%d,%d) out of page bounds", off, off+int64(len(buf)))
	}
	copy(buf, ent.img[off:])
	n.mu.Lock()
	n.stats.Reads++
	n.mu.Unlock()
	return nil
}

// Write stores data at off within the page under its write lock: update the
// local copy, push the FULL page to the DBP, release (triggering network
// invalidations).
func (n *RDMANode) Write(clk *simclock.Clock, pageID uint64, off int64, data []byte) error {
	// Ensure the fusion server knows the page before locking it.
	if _, err := n.fusion.getPage(clk, n.name, pageID); err != nil {
		return err
	}
	if err := n.fusion.Lock(clk, n.name, pageID, true); err != nil {
		return err
	}
	ent, err := n.localPage(clk, pageID)
	if err != nil {
		n.fusion.UnlockWrite(clk, n.name, pageID)
		return err
	}
	if off < 0 || off+int64(len(data)) > page.Size {
		n.fusion.UnlockWrite(clk, n.name, pageID)
		return fmt.Errorf("sharing: write [%d,%d) out of page bounds", off, off+int64(len(data)))
	}
	copy(ent.img[off:], data)
	n.mu.Lock()
	n.stats.Writes++
	n.stats.PagePushes++
	n.mu.Unlock()
	// Full-page push before the lock can be released: write amplification
	// plus longer lock hold.
	f := n.fusion
	f.mu.Lock()
	ps := f.pages[pageID]
	f.mu.Unlock()
	if err := f.dbp.Write(clk, n.nic, ps.off, ent.img); err != nil {
		f.UnlockWrite(clk, n.name, pageID)
		return err
	}
	return f.UnlockWrite(clk, n.name, pageID)
}

// ReadModifyWrite applies fn to length bytes at off under one write lock.
func (n *RDMANode) ReadModifyWrite(clk *simclock.Clock, pageID uint64, off int64, length int, fn func([]byte)) error {
	if _, err := n.fusion.getPage(clk, n.name, pageID); err != nil {
		return err
	}
	if err := n.fusion.Lock(clk, n.name, pageID, true); err != nil {
		return err
	}
	ent, err := n.localPage(clk, pageID)
	if err != nil {
		n.fusion.UnlockWrite(clk, n.name, pageID)
		return err
	}
	buf := make([]byte, length)
	copy(buf, ent.img[off:])
	fn(buf)
	copy(ent.img[off:], buf)
	n.mu.Lock()
	n.stats.Writes++
	n.stats.PagePushes++
	n.mu.Unlock()
	f := n.fusion
	f.mu.Lock()
	ps := f.pages[pageID]
	f.mu.Unlock()
	if err := f.dbp.Write(clk, n.nic, ps.off, ent.img); err != nil {
		f.UnlockWrite(clk, n.name, pageID)
		return err
	}
	return f.UnlockWrite(clk, n.name, pageID)
}
