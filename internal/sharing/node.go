package sharing

import (
	"fmt"
	"sort"
	"sync"

	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simcpu"
	"polarcxlmem/internal/simmem"
)

// pmeta is a node's local metadata for one shared page (the paper's "page
// metadata buffer" entry: data address + the CXL locations of this node's
// invalid/removal flags).
type pmeta struct {
	slot    int
	dataOff int64
	// What a SharedPool visit's page calls need (see sharedpool.go).
	n     *Node
	id    uint64
	wrote bool // a write landed under the current write lock
}

// Interconnect is a charged transport between a node and the CXL device
// holding its flags and the DBP — cxl.HostPort.FabricPath when the node sits
// on a different leaf switch than the fusion memory box, in which case every
// flag word access pays the trunk/spine route.
type Interconnect interface {
	Use(clk *simclock.Clock, units int64)
}

// Node is one CXL multi-primary database node. It holds NO page data
// locally: records are read and written in place in the shared DBP through
// the node's CPU cache.
//
// The node runs in one of two regimes, chosen by its cache. Without a
// simcpu.Domain (CXL 2.0) the §3.3 software protocol keeps cached lines
// honest: invalid flags checked under the page lock, an install-time flush,
// and a clflush publish on write-unlock. With the cache attached to a Domain
// (the CXL 3.0 projection) the hardware does that work, so the node keeps
// only the transactional machinery that survives into CXL 3.0: distributed
// page locks for isolation and removal flags for DBP frame recycling
// (capacity management is not a coherency problem).
type Node struct {
	name   string
	fusion *Fusion
	cache  *simcpu.Cache
	flags  *simmem.Region // this node's flag array in CXL
	dbp    *simmem.Region // the shared DBP region (same device)
	dev    *simmem.Region // whole-device view: flag words at device offsets
	ic     Interconnect   // optional cross-switch route for flag accesses

	mu        sync.Mutex
	meta      map[uint64]*pmeta
	freeSlots []int
	nslots    int

	stats NodeStats

	// DisableCoherency turns off invalid-flag checking — the knob that
	// demonstrates the protocol is load-bearing (tests observe stale reads).
	DisableCoherency bool
}

// NodeStats counts protocol events.
type NodeStats struct {
	GetPageRPCs   int64
	Invalidations int64 // invalid flags observed and honoured
	Removals      int64 // removal flags observed (page re-fetched)
	Reads         int64
	Writes        int64
}

// NewNode builds a node over the fusion server's CXL DBP (a Deployment's
// Fusion). flagRegion is the node's own CXL allocation for flag words; its
// capacity bounds the page metadata buffer. A cache attached to a
// simcpu.Domain selects the hardware-coherent regime.
func NewNode(name string, fusion *Fusion, cache *simcpu.Cache, flagRegion *simmem.Region) *Node {
	m := fusion.dbp.(*cxlDBP)
	n := &Node{
		name:   name,
		fusion: fusion,
		cache:  cache,
		flags:  flagRegion,
		dbp:    m.region,
		dev:    m.dev,
		meta:   make(map[uint64]*pmeta),
		nslots: int(flagRegion.Size() / flagEntrySize),
	}
	n.resetSlots()
	return n
}

// resetSlots frees every flag slot, slot 0 first in line. Caller holds n.mu
// or owns n exclusively.
func (n *Node) resetSlots() {
	n.freeSlots = n.freeSlots[:0]
	for i := n.nslots - 1; i >= 0; i-- {
		n.freeSlots = append(n.freeSlots, i)
	}
}

// coherent reports whether the node runs the hardware-coherent regime.
func (n *Node) coherent() bool { return n.cache.Domain() != nil }

// Name reports the node's cluster-wide identity.
func (n *Node) Name() string { return n.name }

// SetInterconnect installs the charged route between this node's host and
// the CXL device (nil = co-located, no extra cost). Set before the node
// serves traffic. Cache-mediated page accesses charge their own route via
// the cache's interconnect; this one covers the direct flag-word protocol
// accesses, which bypass the cache.
func (n *Node) SetInterconnect(ic Interconnect) { n.ic = ic }

// loadFlag reads one 8-byte flag word, paying the cross-switch route (if
// any) on top of the device access.
func (n *Node) loadFlag(clk *simclock.Clock, off int64) (uint64, error) {
	v, err := n.dev.Load64(clk, off)
	if err == nil && n.ic != nil {
		n.ic.Use(clk, 8)
	}
	return v, err
}

// storeFlag writes one 8-byte flag word, paying the cross-switch route (if
// any) on top of the device access.
func (n *Node) storeFlag(clk *simclock.Clock, off int64, v uint64) error {
	err := n.dev.Store64(clk, off, v)
	if err == nil && n.ic != nil {
		n.ic.Use(clk, 8)
	}
	return err
}

// Stats snapshots the node's protocol counters.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// sortedMetaIDs lists the node's mapped page ids in ascending order. Caller
// holds n.mu.
func (n *Node) sortedMetaIDs() []uint64 {
	ids := make([]uint64, 0, len(n.meta))
	for id := range n.meta {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// flagOffsets reports the absolute device offsets of slot's flag words.
func (n *Node) flagOffsets(slot int) flagAddrs {
	base := n.flags.Base() + int64(slot)*flagEntrySize
	return flagAddrs{invalid: base, removal: base + 8}
}

// removed reports whether the fusion server has recycled m's DBP frame,
// i.e. set this node's removal flag for it.
func (n *Node) removed(clk *simclock.Clock, m *pmeta) (bool, error) {
	v, err := n.loadFlag(clk, n.flagOffsets(m.slot).removal)
	return v != 0, err
}

// ensurePage returns the local metadata for pageID, fetching the CXL
// address from the fusion server on first use or after a removal.
func (n *Node) ensurePage(clk *simclock.Clock, pageID uint64) (*pmeta, error) {
	n.mu.Lock()
	m, ok := n.meta[pageID]
	n.mu.Unlock()
	if ok {
		// Check the removal flag: the fusion server may have recycled the
		// frame.
		removed, err := n.removed(clk, m)
		if err != nil {
			return nil, err
		}
		if !removed {
			return m, nil
		}
		n.mu.Lock()
		n.stats.Removals++
		delete(n.meta, pageID)
		n.freeSlots = append(n.freeSlots, m.slot)
		n.mu.Unlock()
	}
	m, err := n.install(clk, pageID, false)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.meta[pageID] = m
	n.mu.Unlock()
	return m, nil
}

// reclaimLocked frees one metadata slot when the buffer is full: first an
// entry whose removal flag is set — the paper's background metadata
// recycler, run inline — else the lowest page id. The scan goes in page-id
// order for deterministic replay. Dropping local metadata is always safe:
// the mapping is re-fetched on next use, and the install-time flush
// discards any stale cached lines. Caller holds n.mu.
func (n *Node) reclaimLocked() {
	ids := n.sortedMetaIDs()
	if len(ids) == 0 {
		return
	}
	victim := ids[0]
	for _, id := range ids {
		if rm, _ := n.dev.Load64Raw(n.flagOffsets(n.meta[id].slot).removal); rm != 0 {
			victim = id
			break
		}
	}
	n.freeSlots = append(n.freeSlots, n.meta[victim].slot)
	delete(n.meta, victim)
}

// install claims a flag slot for pageID and registers it with the fusion
// server — GetPage, or CreatePage for a globally fresh page — then flushes
// the frame's range: the frame may previously have held another page whose
// lines are still in this node's cache (clean by protocol, so the flush just
// discards them; under hardware coherency the fusion server's raw frame
// copies bypass the domain, so the same flush is needed). The software
// regime also zeroes the invalid flag and acks the install; the coherent
// regime resets only the removal flag.
func (n *Node) install(clk *simclock.Clock, pageID uint64, create bool) (*pmeta, error) {
	n.mu.Lock()
	if len(n.freeSlots) == 0 {
		n.reclaimLocked()
	}
	if len(n.freeSlots) == 0 {
		n.mu.Unlock()
		return nil, fmt.Errorf("sharing: node %s metadata buffer full (%d slots)", n.name, n.nslots)
	}
	slot := n.freeSlots[len(n.freeSlots)-1]
	n.freeSlots = n.freeSlots[:len(n.freeSlots)-1]
	n.stats.GetPageRPCs++
	n.mu.Unlock()
	coherent := n.coherent()
	fa := n.flagOffsets(slot)
	// Reset our flag words before registering them.
	if !coherent {
		if err := n.storeFlag(clk, fa.invalid, 0); err != nil {
			return nil, err
		}
	}
	if err := n.storeFlag(clk, fa.removal, 0); err != nil {
		return nil, err
	}
	var off int64
	var err error
	if create {
		off, err = n.fusion.CreatePage(clk, n.name, pageID, fa)
	} else {
		off, err = n.fusion.GetPage(clk, n.name, pageID, fa)
	}
	if err != nil {
		n.mu.Lock()
		n.freeSlots = append(n.freeSlots, slot)
		n.mu.Unlock()
		return nil, err
	}
	if err := n.cache.Flush(clk, n.dbp, off, page.Size); err != nil {
		return nil, err
	}
	if n.fusion.reg != nil && !coherent {
		// The install flush discharges any invalidation this node owed on
		// the page; Aux carries the lines that survived (nonzero only when
		// the flush itself was fault-dropped, i.e. the copy is still
		// suspect).
		resident, _ := n.cache.LinesInRange(n.dbp, off, page.Size)
		n.fusion.emit(clk.Now(), obs.EvInvalidAck, n.name, pageID, int64(resident))
	}
	return &pmeta{slot: slot, dataOff: off, n: n, id: pageID}, nil
}

// honourInvalid checks this node's invalid flag under the page lock and, if
// set, clflushes the page range (invalidating the clean cached lines) and
// clears the flag. Subsequent reads fetch the writer's lines from CXL. The
// coherent regime has no invalid flags to honour.
func (n *Node) honourInvalid(clk *simclock.Clock, pageID uint64, m *pmeta) error {
	if n.DisableCoherency || n.coherent() {
		return nil
	}
	fa := n.flagOffsets(m.slot)
	inv, err := n.loadFlag(clk, fa.invalid)
	if err != nil {
		return err
	}
	if inv == 0 {
		return nil
	}
	if err := n.cache.Flush(clk, n.dbp, m.dataOff, page.Size); err != nil {
		return err
	}
	if err := n.storeFlag(clk, fa.invalid, 0); err != nil {
		return err
	}
	n.mu.Lock()
	n.stats.Invalidations++
	n.mu.Unlock()
	if n.fusion.reg != nil {
		// Aux = lines still resident after the flush: nonzero means the
		// flush was dropped and the stale copy survives — the checker
		// keeps the page suspect in that case.
		resident, _ := n.cache.LinesInRange(n.dbp, m.dataOff, page.Size)
		n.fusion.emit(clk.Now(), obs.EvInvalidAck, n.name, pageID, int64(resident))
	}
	return nil
}

// emitRead traces a read of shared bytes for the stale-read checker. The
// coherent regime has no software coherency state to check and emits
// nothing.
func (n *Node) emitRead(clk *simclock.Clock, pageID uint64) {
	if !n.coherent() {
		n.fusion.emit(clk.Now(), obs.EvSharedRead, n.name, pageID, 0)
	}
}

// publish releases pageID's write lock after a write. The software regime
// first clflushes the page's dirty lines to CXL (publication, cache-line
// granular) and the unlock makes the fusion server invalidate the other
// active nodes; a failed flush still releases the lock. The coherent regime
// releases the lock with no flush and no flag fan-out: the domain
// back-invalidated the peers at store time.
func (n *Node) publish(clk *simclock.Clock, pageID uint64, m *pmeta) error {
	if n.coherent() {
		return n.fusion.unlockWrite(clk, n.name, pageID, true, false)
	}
	if err := n.cache.Flush(clk, n.dbp, m.dataOff, page.Size); err != nil {
		n.fusion.UnlockWrite(clk, n.name, pageID)
		return err
	}
	if n.fusion.reg != nil {
		// Aux = dirty lines that survived the flush: nonzero means the
		// publication was torn (fault-dropped), so peers that fetch the
		// page may see pre-write bytes.
		_, dirty := n.cache.LinesInRange(n.dbp, m.dataOff, page.Size)
		n.fusion.emit(clk.Now(), obs.EvPublish, n.name, pageID, int64(dirty))
	}
	return n.fusion.UnlockWrite(clk, n.name, pageID)
}

// Read copies len(buf) bytes at off within the shared page, under the
// page's read lock, through this node's CPU cache.
func (n *Node) Read(clk *simclock.Clock, pageID uint64, off int64, buf []byte) error {
	if err := inPage(int(off), len(buf), "read"); err != nil {
		return err
	}
	m, err := n.ensurePage(clk, pageID)
	if err != nil {
		return err
	}
	if err := n.fusion.Lock(clk, n.name, pageID, false); err != nil {
		return err
	}
	defer n.fusion.UnlockRead(clk, n.name, pageID)
	if err := n.honourInvalid(clk, pageID, m); err != nil {
		return err
	}
	n.mu.Lock()
	n.stats.Reads++
	n.mu.Unlock()
	if err := n.read(clk, m, off, buf); err != nil {
		return err
	}
	n.emitRead(clk, pageID)
	return nil
}

// read copies len(buf) bytes at off within m's page through the cache.
func (n *Node) read(clk *simclock.Clock, m *pmeta, off int64, buf []byte) error {
	n.cache.Hold()
	defer n.cache.Unhold()
	return n.cache.ReadHeld(clk, n.dbp, m.dataOff+off, buf)
}

// write stores data at off within m's page through the cache.
func (n *Node) write(clk *simclock.Clock, m *pmeta, off int64, data []byte) error {
	n.cache.Hold()
	defer n.cache.Unhold()
	return n.cache.WriteHeld(clk, n.dbp, m.dataOff+off, data)
}

// Write stores data at off within the shared page under the page's write
// lock: update in place through the cache, then publish.
func (n *Node) Write(clk *simclock.Clock, pageID uint64, off int64, data []byte) error {
	if err := inPage(int(off), len(data), "write"); err != nil {
		return err
	}
	return n.update(clk, pageID, func(m *pmeta) error {
		return n.write(clk, m, off, data)
	})
}

// ReadModifyWrite reads len(buf) bytes at off into buf, applies fn to them
// and stores them back, all under one write lock — the shape of a sysbench
// point-update (read the column, compute, store). buf is the caller's
// scratch.
func (n *Node) ReadModifyWrite(clk *simclock.Clock, pageID uint64, off int64, buf []byte, fn func([]byte)) error {
	if err := inPage(int(off), len(buf), "read-modify-write"); err != nil {
		return err
	}
	return n.update(clk, pageID, func(m *pmeta) error {
		if err := n.read(clk, m, off, buf); err != nil {
			return err
		}
		n.emitRead(clk, pageID)
		fn(buf)
		return n.write(clk, m, off, buf)
	})
}

// update runs access on pageID under its write lock and publishes the
// result. A failed access releases the lock unpublished (it may have
// written); a failed invalid-flag check releases it clean (nothing was).
func (n *Node) update(clk *simclock.Clock, pageID uint64, access func(m *pmeta) error) error {
	m, err := n.ensurePage(clk, pageID)
	if err != nil {
		return err
	}
	if err := n.fusion.Lock(clk, n.name, pageID, true); err != nil {
		return err
	}
	if err := n.honourInvalid(clk, pageID, m); err != nil {
		n.fusion.unlockWriteClean(clk, n.name, pageID)
		return err
	}
	if err := access(m); err != nil {
		n.fusion.UnlockWrite(clk, n.name, pageID)
		return err
	}
	n.mu.Lock()
	n.stats.Writes++
	n.mu.Unlock()
	return n.publish(clk, pageID, m)
}
