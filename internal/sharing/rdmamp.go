package sharing

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"polarcxlmem/internal/page"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
)

// rdmaDBP is the PolarDB-MP baseline's DBP: frames on an RDMA-exposed
// memory node. Nodes keep local page copies (LBP) and synchronize at page
// granularity: on a write-lock release the whole 16 KB page is pushed to
// the DBP and an invalidation message goes to every other active node over
// the network (§2.2 item 4, §3.3 "Benefits"). The push is atomic in the
// model, so a frame never holds torn bytes.
type rdmaDBP struct {
	pool *rdma.Pool
	nic  *rdma.NIC // the memory/fusion node's NIC

	mu    sync.Mutex
	peers map[string]invalidatable // delivery endpoint per node

	// disableInvalidation drops every delivery — the knob that
	// demonstrates the baseline's coherency machinery is load-bearing.
	disableInvalidation bool
}

// invalidatable receives invalidation and removal deliveries (RDMANode and
// RDMASharedPool both register).
type invalidatable interface {
	dropLocal(pageID uint64)
}

// NewRDMAFusion builds the baseline's buffer-fusion server over a DBP of
// capacityPages frames on an RDMA memory node, backed by store.
func NewRDMAFusion(capacityPages int, store *storage.Store) *Fusion {
	size := int64(capacityPages) * page.Size
	m := &rdmaDBP{
		pool:  rdma.NewPool("dbp", size),
		nic:   rdma.NewNIC("fusion", 0, 0),
		peers: make(map[string]invalidatable),
	}
	return newFusion(m, size, store, nil)
}

func (m *rdmaDBP) readFrame(clk *simclock.Clock, off int64, img []byte) error {
	return m.pool.Read(clk, m.nic, off, img)
}

func (m *rdmaDBP) writeFrame(clk *simclock.Clock, off int64, img []byte) error {
	return m.pool.Write(clk, m.nic, off, img)
}

// signal delivers an invalidation or a removal as a 64 B message through
// the fusion node's NIC, after which node drops its local copy. Baseline
// nodes poll no flag words, so clearing one sends nothing.
func (m *rdmaDBP) signal(clk *simclock.Clock, node string, _ int64, v uint64, pageID uint64) error {
	if v == 0 || m.disableInvalidation {
		return nil
	}
	m.mu.Lock()
	peer := m.peers[node]
	m.mu.Unlock()
	if peer != nil {
		m.nic.Send(clk, 64)
		peer.dropLocal(pageID)
	}
	return nil
}

func (*rdmaDBP) tornOnCrash() bool { return false }

// attachRDMA registers a baseline node's local-copy cache for invalidation
// and removal delivery.
func (f *Fusion) attachRDMA(node string, peer invalidatable) {
	m := f.dbp.(*rdmaDBP)
	m.mu.Lock()
	m.peers[node] = peer
	m.mu.Unlock()
}

// rdmaPage moves one whole page image between a baseline node's local copy
// and pageID's DBP frame by a one-sided verb through the node's NIC: a read,
// or with push a write. The caller holds the page lock, so the frame cannot
// be recycled underneath.
func (f *Fusion) rdmaPage(clk *simclock.Clock, nic *rdma.NIC, pageID uint64, img []byte, push bool) error {
	f.mu.Lock()
	ps := f.pages[pageID]
	f.mu.Unlock()
	if ps == nil {
		return fmt.Errorf("sharing: frame for unregistered page %d", pageID)
	}
	m := f.dbp.(*rdmaDBP)
	if push {
		return m.pool.Write(clk, nic, ps.off, img)
	}
	return m.pool.Read(clk, nic, ps.off, img)
}

// allocPageID draws a globally fresh page id from the backing store.
func (f *Fusion) allocPageID() uint64 { return f.store.AllocPageID() }

// RDMANode is one PolarDB-MP database node: an LBP of local page copies in
// front of the RDMA DBP.
type RDMANode struct {
	name   string
	fusion *Fusion
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
// copies over fusion (built by NewRDMAFusion), registered for invalidation
// delivery.
func NewRDMANode(name string, fusion *Fusion, nic *rdma.NIC, capacityPages int) *RDMANode {
	n := &RDMANode{
		name:     name,
		fusion:   fusion,
		nic:      nic,
		lbp:      make(map[uint64]*list.Element),
		lru:      list.New(),
		capacity: capacityPages,
	}
	fusion.attachRDMA(name, n)
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

	if _, err := n.fusion.GetPage(clk, n.name, pageID, flagAddrs{}); err != nil {
		return nil, err
	}
	ent := &lbpEntry{id: pageID, img: make([]byte, page.Size)}
	// Full 16 KB RDMA read even if the caller needs a handful of bytes.
	if err := n.fusion.rdmaPage(clk, n.nic, pageID, ent.img, false); err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.lbp[pageID] = n.lru.PushFront(ent)
	n.mu.Unlock()
	return ent, nil
}

// Read copies len(buf) bytes at off within the page under its read lock.
func (n *RDMANode) Read(clk *simclock.Clock, pageID uint64, off int64, buf []byte) error {
	if err := inPage(int(off), len(buf), "read"); err != nil {
		return err
	}
	if err := n.fusion.Lock(clk, n.name, pageID, false); err != nil {
		if errors.Is(err, ErrLockTimeout) || errors.Is(err, ErrNodeEvicted) {
			return err
		}
		// The page may be unknown to the fusion server until first fetch.
		if _, gerr := n.fusion.GetPage(clk, n.name, pageID, flagAddrs{}); gerr != nil {
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
	if err := inPage(int(off), len(data), "write"); err != nil {
		return err
	}
	return n.update(clk, pageID, func(img []byte) { copy(img[off:], data) })
}

// ReadModifyWrite reads len(buf) bytes at off into buf, applies fn to them
// and stores them back under one write lock; buf is the caller's scratch.
func (n *RDMANode) ReadModifyWrite(clk *simclock.Clock, pageID uint64, off int64, buf []byte, fn func([]byte)) error {
	if err := inPage(int(off), len(buf), "read-modify-write"); err != nil {
		return err
	}
	return n.update(clk, pageID, func(img []byte) {
		copy(buf, img[off:])
		fn(buf)
		copy(img[off:], buf)
	})
}

// update runs access on pageID's local copy under its write lock, then
// pushes the full page to the DBP before releasing the lock: write
// amplification plus a longer lock hold. The lock is released on every
// path.
func (n *RDMANode) update(clk *simclock.Clock, pageID uint64, access func(img []byte)) error {
	// Ensure the fusion server knows the page before locking it.
	if _, err := n.fusion.GetPage(clk, n.name, pageID, flagAddrs{}); err != nil {
		return err
	}
	if err := n.fusion.Lock(clk, n.name, pageID, true); err != nil {
		return err
	}
	ent, err := n.localPage(clk, pageID)
	if err == nil {
		access(ent.img)
		n.mu.Lock()
		n.stats.Writes++
		n.stats.PagePushes++
		n.mu.Unlock()
		err = n.fusion.rdmaPage(clk, n.nic, pageID, ent.img, true)
	}
	if uerr := n.fusion.UnlockWrite(clk, n.name, pageID); err == nil {
		err = uerr
	}
	return err
}
