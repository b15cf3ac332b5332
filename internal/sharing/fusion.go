// Package sharing implements multi-primary data sharing on disaggregated
// memory: the paper's CXL-based design (§3.3) and the RDMA-based
// PolarDB-MP baseline it is evaluated against (§4.4).
//
// Architecture (paper Figure 6): a buffer-fusion server owns the
// distributed buffer pool (DBP) — page frames in disaggregated memory plus
// their metadata (address, active nodes, each node's invalid/removal flag
// locations). Database nodes keep only page *metadata* locally; concurrent
// access is mediated by distributed page locks.
//
// The CXL 2.0 switch has no inter-host cache coherency, so the protocol
// builds it in software:
//
//   - a writer holds the page's write lock, updates the page in place in
//     CXL through its CPU cache, and on release flushes its dirty lines
//     (clflush) to CXL — cache-line-granular publication;
//   - the fusion server then sets the `invalid` flag word of every other
//     node where the page is active, via plain CXL stores (a few hundred
//     nanoseconds each);
//   - a node that observes its invalid flag set (checked after acquiring
//     its own lock) clflushes the page range — the lines are clean, so this
//     just invalidates them — and re-reads from CXL.
//
// The RDMA baseline (rdmamp.go) must instead move whole 16 KB pages on
// every miss and every write-lock release, plus invalidation messages over
// the network — the read/write amplification the paper quantifies.
package sharing

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simmem"
	"polarcxlmem/internal/simnet"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/wal"
)

// RPCNanos is the round trip for node <-> fusion control RPCs (lock
// acquisition, page-address lookup). Both the CXL and RDMA designs pay it —
// the differentiator is the data path.
const RPCNanos = 5_000

// rpcMsgBytes is the nominal control-message size charged against the fault
// injector's OpNetSend byte counter per fusion RPC.
const rpcMsgBytes = 64

// fusionNode is the fusion server's own identity when it takes page locks
// for server-side work (checkpoint flush, frame recycling). It never pays
// the RPC round trip, holds no lease, and writes no durable lock word.
const fusionNode = "@fusion"

// FlagStoreNanos is the paper's "few hundred nanoseconds" CXL store that
// sets a remote node's invalid/removal flag.
const flagEntrySize = 16 // invalid u64 + removal u64

// flagAddrs locates one node's flag words for one page (absolute offsets in
// the shared CXL device).
type flagAddrs struct {
	invalid int64
	removal int64
}

// pageState is the fusion-side metadata for one DBP page.
type pageState struct {
	id     uint64
	off    int64 // offset of the frame within the DBP region
	active map[string]flagAddrs
	dirty  bool // diverged from the storage image
	lk     *pageLock
	elem   int64 // LRU tick
}

// Fusion is the buffer-fusion server plus the distributed page-lock
// service, co-located as in PolarDB-MP.
type Fusion struct {
	host   *cxl.HostPort  // the fusion server's own switch attachment
	region *simmem.Region // the DBP: page frames in CXL
	dev    *simmem.Region // whole-device view for flag stores
	store  *storage.Store

	mu       sync.Mutex
	pages    map[uint64]*pageState
	free     []int64
	nextOff  int64
	lruTick  int64
	getCalls int64
	inj      fault.Injector // optional fault injector; may be nil
	nodes    []string       // sortedNodes' scratch

	evictMu sync.Mutex // serializes concurrent EvictNode walks
	leases  *leaseTable
	pol     LockPolicy
	retry   *simnet.RetryPolicy // optional RPC retry policy; may be nil
	rpcSeq  uint64              // per-RPC id for backoff jitter
	lockTab *simmem.Region      // optional CXL-durable lock words; may be nil
	nodeIDs map[string]uint64   // node name -> durable lock-word id (from 1)
	nodeByI map[uint64]string   // inverse of nodeIDs
	ws      *wal.Store          // optional redo source for EvictNode; may be nil

	// Registry handles, fixed at construction; nil (a no-op) without one.
	// Nodes emit through the server too, so the whole cluster's coherency
	// trace is one stream.
	reg              *obs.Registry
	rpcs, rpcRetries *obs.Counter   // sharing.rpcs, sharing.rpc_retries
	invalidations    *obs.Counter   // sharing.invalidations
	recycles         *obs.Counter   // sharing.recycles
	evictions        *obs.Counter   // sharing.evictions
	lockTimeouts     *obs.Counter   // sharing.lock_timeouts
	lockWait         *obs.Histogram // sharing.lock.wait_ns
}

// emit publishes one trace event when the server has a registry.
func (f *Fusion) emit(vnanos int64, typ, actor string, pageID uint64, aux int64) {
	if f.reg != nil {
		f.reg.Emit(vnanos, typ, actor, pageID, aux)
	}
}

// newFusion builds a fusion server over a CXL region, backed by store for
// page load and recycle write-back. host is the fusion server's own switch
// attachment, charged for its bulk page staging; its registry
// (HostPort.Observer) receives the server's metrics — sharing.rpcs /
// rpc_retries / invalidations / recycles / evictions / lock_timeouts and
// the sharing.lock.wait_ns histogram — and the coherency trace stream
// (lock.*, coherency.*) of the server and every attached node.
// NewDeployment is its one caller.
func newFusion(host *cxl.HostPort, region *simmem.Region, store *storage.Store) *Fusion {
	reg := host.Observer()
	return &Fusion{
		host:          host,
		region:        region,
		dev:           region.Device().WholeRegion(),
		store:         store,
		pages:         make(map[uint64]*pageState),
		leases:        newLeaseTable(DefaultLeaseNanos),
		pol:           LockPolicy{}.withDefaults(),
		nodeIDs:       make(map[string]uint64),
		nodeByI:       make(map[uint64]string),
		reg:           reg,
		rpcs:          reg.Counter("sharing.rpcs"),
		rpcRetries:    reg.Counter("sharing.rpc_retries"),
		invalidations: reg.Counter("sharing.invalidations"),
		recycles:      reg.Counter("sharing.recycles"),
		evictions:     reg.Counter("sharing.evictions"),
		lockTimeouts:  reg.Counter("sharing.lock_timeouts"),
		lockWait:      reg.Histogram("sharing.lock.wait_ns"),
	}
}

// SetLockPolicy installs the lock lease/wait/retry parameters (zero fields
// keep their defaults).
func (f *Fusion) SetLockPolicy(p LockPolicy) {
	p = p.withDefaults()
	f.mu.Lock()
	f.pol = p
	f.mu.Unlock()
	f.leases.setLease(p.LeaseNanos)
}

// SetRetryPolicy installs (or, with nil, removes) the retry/backoff policy
// applied to every node<->fusion control RPC, making injected drop/fail
// triggers on OpNetSend survivable transients.
func (f *Fusion) SetRetryPolicy(rp *simnet.RetryPolicy) {
	f.mu.Lock()
	f.retry = rp
	f.mu.Unlock()
}

// SetRecoverySource attaches the cluster WAL so EvictNode can rebuild pages
// a dead node held write-locked (storage base + committed redo). Without
// it, eviction falls back to the last checkpointed storage image.
func (f *Fusion) SetRecoverySource(ws *wal.Store) {
	f.mu.Lock()
	f.ws = ws
	f.mu.Unlock()
}

// AttachLockTable installs a CXL region holding one durable lock word per
// DBP frame (8 bytes each): word k mirrors the write-lock holder of the
// frame at offset k*page.Size, 0 = unlocked. PolarRecv's premise applied to
// the lock service — the words survive any single node's crash, so
// EvictNode can trust them even if the fusion server itself restarted.
func (f *Fusion) AttachLockTable(lw *simmem.Region) error {
	if need := int64(f.CapacityPages()) * 8; lw.Size() < need {
		return fmt.Errorf("sharing: lock table needs %d bytes, region has %d", need, lw.Size())
	}
	f.mu.Lock()
	f.lockTab = lw
	f.mu.Unlock()
	return nil
}

// nodeIDLocked returns node's durable lock-word id, assigning the next one
// on first use. Caller holds f.mu.
func (f *Fusion) nodeIDLocked(node string) uint64 {
	if id, ok := f.nodeIDs[node]; ok {
		return id
	}
	id := uint64(len(f.nodeIDs)) + 1
	f.nodeIDs[node] = id
	f.nodeByI[id] = node
	return id
}

// lockWordOff locates the durable lock word covering frame offset off.
// Caller must have checked f.lockTab != nil.
func (f *Fusion) lockWordOff(lockTab *simmem.Region, off int64) int64 {
	return lockTab.Base() + (off/page.Size)*8
}

// rpc charges one node->fusion control round trip: reject evicted callers,
// consult the fault injector (with retry/backoff when a policy is
// installed), and renew the caller's lease on success.
func (f *Fusion) rpc(clk *simclock.Clock, node string) error {
	if node != fusionNode && f.leases.isDead(node) {
		return fmt.Errorf("sharing: RPC from %s rejected: %w", node, ErrNodeEvicted)
	}
	f.mu.Lock()
	inj := f.inj
	rp := f.retry
	f.rpcSeq++
	seq := f.rpcSeq
	f.mu.Unlock()
	f.rpcs.Inc()
	attempts := 1
	if rp != nil && rp.MaxAttempts > 1 {
		attempts = rp.MaxAttempts
	}
	var last error
	for a := 1; a <= attempts; a++ {
		if a > 1 {
			f.rpcRetries.Inc()
		}
		var err error
		if inj != nil {
			err = inj.Point(fault.OpNetSend, rpcMsgBytes)
		}
		if err == nil {
			clk.Advance(RPCNanos)
			if node != fusionNode {
				f.leases.touch(node, clk.Now())
			}
			return nil
		}
		last = err
		// A latched crash is the host dying, not a lossy link.
		if fault.IsCrash(err) || a == attempts {
			break
		}
		clk.Advance(rp.Backoff(seq, a))
	}
	return last
}

// CapacityPages reports how many frames fit in the DBP region.
func (f *Fusion) CapacityPages() int { return int(f.region.Size() / page.Size) }

// ResidentPages reports the in-use frame count.
func (f *Fusion) ResidentPages() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pages)
}

// GetCalls reports how many GetPage RPCs were served (amplification
// accounting: the CXL design calls this once per page per node).
func (f *Fusion) GetCalls() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.getCalls
}

// Region exposes the DBP region (nodes map it read/write).
func (f *Fusion) Region() *simmem.Region { return f.region }

// SetInjector installs (or, with nil, removes) the fault injector consulted
// on every DBP frame allocation. Arm fault.OpFrameAlloc with ErrNoSpace to
// model the CXL memory manager running out of pooled memory.
func (f *Fusion) SetInjector(inj fault.Injector) {
	f.mu.Lock()
	f.inj = inj
	f.mu.Unlock()
}

// allocFrame reserves a frame offset, recycling if the free space is gone.
// Caller holds f.mu.
func (f *Fusion) allocFrame(clk *simclock.Clock) (int64, error) {
	if f.inj != nil {
		if err := f.inj.Point(fault.OpFrameAlloc, page.Size); err != nil {
			return 0, err
		}
	}
	if n := len(f.free); n > 0 {
		off := f.free[n-1]
		f.free = f.free[:n-1]
		return off, nil
	}
	if f.nextOff+page.Size <= f.region.Size() {
		off := f.nextOff
		f.nextOff += page.Size
		return off, nil
	}
	// Recycle the least-recently-requested unlocked page.
	if err := f.recycleLocked(clk); err != nil {
		return 0, err
	}
	n := len(f.free)
	if n == 0 {
		return 0, fmt.Errorf("sharing: DBP full and nothing recyclable")
	}
	off := f.free[n-1]
	f.free = f.free[:n-1]
	return off, nil
}

// GetPage serves the node RPC: return the CXL address of pageID, loading
// the page from storage on first use, and register the caller's flag-word
// addresses. Charges the RPC round trip.
func (f *Fusion) GetPage(clk *simclock.Clock, node string, pageID uint64, fa flagAddrs) (int64, error) {
	if err := f.rpc(clk, node); err != nil {
		return 0, err
	}
	f.mu.Lock()
	f.getCalls++
	ps, ok := f.pages[pageID]
	if !ok {
		off, err := f.allocFrame(clk)
		if err != nil {
			f.mu.Unlock()
			return 0, err
		}
		ps = &pageState{id: pageID, off: off, active: make(map[string]flagAddrs), lk: newPageLock()}
		f.pages[pageID] = ps
		f.mu.Unlock()
		// Load the page image from storage into the CXL frame.
		img := make([]byte, page.Size)
		if err := f.store.ReadPage(clk, pageID, img); err != nil {
			f.mu.Lock()
			delete(f.pages, pageID)
			f.free = append(f.free, off)
			f.mu.Unlock()
			return 0, err
		}
		if err := f.region.WriteRaw(off, img); err != nil {
			return 0, err
		}
		if err := f.host.TransferWrite(clk, page.Size); err != nil {
			return 0, err
		}
		f.mu.Lock()
	}
	f.lruTick++
	ps.elem = f.lruTick
	ps.active[node] = fa
	f.mu.Unlock()
	return ps.off, nil
}

// CreatePage serves the fresh-page RPC: allocate a zeroed DBP frame for a
// page that has no storage image yet (B+tree page allocation in the
// multi-primary deployment). The frame is dirty from birth.
func (f *Fusion) CreatePage(clk *simclock.Clock, node string, pageID uint64, fa flagAddrs) (int64, error) {
	if err := f.rpc(clk, node); err != nil {
		return 0, err
	}
	f.mu.Lock()
	if _, exists := f.pages[pageID]; exists {
		f.mu.Unlock()
		return 0, fmt.Errorf("sharing: create of existing page %d", pageID)
	}
	off, err := f.allocFrame(clk)
	if err != nil {
		f.mu.Unlock()
		return 0, err
	}
	ps := &pageState{id: pageID, off: off, active: map[string]flagAddrs{node: fa}, dirty: true, lk: newPageLock()}
	f.lruTick++
	ps.elem = f.lruTick
	f.pages[pageID] = ps
	f.getCalls++
	f.mu.Unlock()
	if err := f.region.WriteRaw(off, make([]byte, page.Size)); err != nil {
		return 0, err
	}
	if err := f.host.TransferWrite(clk, page.Size); err != nil {
		return 0, err
	}
	return off, nil
}

// unlockWriteClean releases node's write lock whose holder modified
// nothing: no publication, no invalidation fan-out.
func (f *Fusion) unlockWriteClean(clk *simclock.Clock, node string, pageID uint64) error {
	if err := f.rpc(clk, node); err != nil {
		return err
	}
	f.mu.Lock()
	ps := f.pages[pageID]
	f.mu.Unlock()
	if ps == nil {
		return fmt.Errorf("sharing: clean write-unlock of unknown page %d", pageID)
	}
	if err := f.clearLockWord(clk, ps, node); err != nil {
		return err
	}
	if err := ps.lk.releaseWrite(node); err != nil {
		return err
	}
	f.emit(clk.Now(), obs.EvLockRelease, node, pageID, 1)
	return nil
}

// FlushDirty checkpoints the DBP: every dirty frame is staged out of CXL
// and written to storage (after the write-ahead barrier, when installed).
func (f *Fusion) FlushDirty(clk *simclock.Clock, barrier func(*simclock.Clock, uint64)) error {
	f.mu.Lock()
	var dirty []*pageState
	for _, ps := range f.pages {
		if ps.dirty {
			dirty = append(dirty, ps)
		}
	}
	f.mu.Unlock()
	// Flush in page-id order: map iteration order would make the substrate
	// operation sequence differ run to run, breaking fault-plan replay.
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].id < dirty[j].id })
	img := make([]byte, page.Size)
	for _, ps := range dirty {
		if err := acquirePageLock(clk, ps.lk, nil, f.pol, fusionNode, ps.id, false, nil); err != nil {
			return err
		}
		f.emit(clk.Now(), obs.EvLockGrant, fusionNode, ps.id, 0)
		err := f.region.ReadRaw(ps.off, img)
		if err == nil {
			err = f.host.TransferRead(clk, page.Size)
		}
		if err == nil {
			if barrier != nil {
				barrier(clk, page.RawLSN(img))
			}
			err = f.store.WritePage(clk, ps.id, img)
		}
		if err == nil {
			ps.dirty = false
		}
		if rerr := ps.lk.releaseRead(fusionNode); rerr != nil {
			if err == nil {
				err = rerr
			}
		} else {
			f.emit(clk.Now(), obs.EvLockRelease, fusionNode, ps.id, 0)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Lock acquires the distributed page lock for node (RPC + bounded wait).
// On a write grant, the holder's id is stored in the CXL-durable lock word
// (when a lock table is attached) before the call returns, so the grant
// survives any single node's crash. Conflicts wait up to the lock policy's
// deadline, reclaiming expired dead holders along the way, then fail with a
// typed LockTimeoutError naming the holder.
func (f *Fusion) Lock(clk *simclock.Clock, node string, pageID uint64, write bool) error {
	if err := f.rpc(clk, node); err != nil {
		return err
	}
	f.mu.Lock()
	ps, ok := f.pages[pageID]
	pol := f.pol
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("sharing: lock of unknown page %d", pageID)
	}
	reclaim := func(clk *simclock.Clock, dead string) error { return f.EvictNode(clk, dead) }
	waitStart := clk.Now()
	if err := acquirePageLock(clk, ps.lk, f.leases, pol, node, pageID, write, reclaim); err != nil {
		if errors.Is(err, ErrLockTimeout) {
			f.lockTimeouts.Inc()
		}
		return err
	}
	f.lockWait.Observe(clk.Now() - waitStart)
	if write {
		if err := f.recordLockWord(clk, ps, node); err != nil {
			ps.lk.releaseWrite(node)
			return err
		}
	}
	var aux int64
	if write {
		aux = 1
	}
	f.emit(clk.Now(), obs.EvLockGrant, node, pageID, aux)
	return nil
}

// recordLockWord publishes node as the durable write-lock holder of ps.
func (f *Fusion) recordLockWord(clk *simclock.Clock, ps *pageState, node string) error {
	f.mu.Lock()
	lt := f.lockTab
	var id uint64
	if lt != nil && node != fusionNode {
		id = f.nodeIDLocked(node)
	}
	f.mu.Unlock()
	if lt == nil || node == fusionNode {
		return nil
	}
	return f.dev.Store64(clk, f.lockWordOff(lt, ps.off), id)
}

// clearLockWord erases the durable write-lock word of ps. It must run
// BEFORE the in-memory release: a stale non-zero word is safe (eviction
// double-checks against the in-memory state), a cleared word under a held
// lock would lose the crash evidence.
func (f *Fusion) clearLockWord(clk *simclock.Clock, ps *pageState, node string) error {
	f.mu.Lock()
	lt := f.lockTab
	f.mu.Unlock()
	if lt == nil || node == fusionNode {
		return nil
	}
	return f.dev.Store64(clk, f.lockWordOff(lt, ps.off), 0)
}

// UnlockRead releases node's read lock.
func (f *Fusion) UnlockRead(clk *simclock.Clock, node string, pageID uint64) error {
	if err := f.rpc(clk, node); err != nil {
		return err
	}
	f.mu.Lock()
	ps, ok := f.pages[pageID]
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("sharing: unlock of unknown page %d", pageID)
	}
	if err := ps.lk.releaseRead(node); err != nil {
		return err
	}
	f.emit(clk.Now(), obs.EvLockRelease, node, pageID, 0)
	return nil
}

// UnlockWrite releases node's write lock after it flushed its dirty lines,
// then sets the invalid flag of every OTHER node where the page is active —
// one CXL store per node, before the lock becomes available again.
func (f *Fusion) UnlockWrite(clk *simclock.Clock, node string, pageID uint64) error {
	if err := f.rpc(clk, node); err != nil {
		return err
	}
	f.mu.Lock()
	ps, ok := f.pages[pageID]
	if ok {
		ps.dirty = true
		for _, other := range f.sortedNodes(ps.active) {
			if other == node {
				continue
			}
			// The paper's "single memory store operation on CXL memory".
			if err := f.dev.Store64(clk, ps.active[other].invalid, 1); err != nil {
				f.mu.Unlock()
				return err
			}
			f.invalidations.Inc()
			// Actor is the TARGET: from here until that node flushes and
			// acks, its cached copy of pageID is suspect.
			f.emit(clk.Now(), obs.EvInvalidSet, other, pageID, 0)
		}
	}
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("sharing: write-unlock of unknown page %d", pageID)
	}
	if err := f.clearLockWord(clk, ps, node); err != nil {
		return err
	}
	if err := ps.lk.releaseWrite(node); err != nil {
		return err
	}
	f.emit(clk.Now(), obs.EvLockRelease, node, pageID, 1)
	return nil
}

// recycleLocked evicts the least-recently-requested unlocked page: flush to
// storage if dirty, set every active node's removal flag, free the frame.
// Caller holds f.mu.
func (f *Fusion) recycleLocked(clk *simclock.Clock) error {
	var victim *pageState
	for _, ps := range f.pages {
		// Tie-break equal LRU ticks by page id so the victim (and thus the
		// substrate operation sequence) is deterministic.
		if victim == nil || ps.elem < victim.elem ||
			(ps.elem == victim.elem && ps.id < victim.id) {
			victim = ps
		}
	}
	if victim == nil {
		return fmt.Errorf("sharing: nothing to recycle")
	}
	if ok, _, _ := victim.lk.tryAcquire(fusionNode, true, clk.Now()); !ok {
		return fmt.Errorf("sharing: LRU victim %d is locked", victim.id)
	}
	f.emit(clk.Now(), obs.EvLockGrant, fusionNode, victim.id, 1)
	defer func() {
		victim.lk.releaseWrite(fusionNode)
		f.emit(clk.Now(), obs.EvLockRelease, fusionNode, victim.id, 1)
	}()
	if victim.dirty {
		img := make([]byte, page.Size)
		if err := f.region.ReadRaw(victim.off, img); err != nil {
			return err
		}
		if err := f.host.TransferRead(clk, page.Size); err != nil {
			return err
		}
		if err := f.store.WritePage(clk, victim.id, img); err != nil {
			return err
		}
	}
	for _, node := range f.sortedNodes(victim.active) {
		if err := f.dev.Store64(clk, victim.active[node].removal, 1); err != nil {
			return err
		}
	}
	delete(f.pages, victim.id)
	f.free = append(f.free, victim.off)
	f.recycles.Inc()
	return nil
}

// sortedNodes returns the node names of an active map in stable order, so
// flag-store sequences replay identically under a fault plan. The result is
// f's scratch slice: the caller holds f.mu and is done with it before the
// next call.
func (f *Fusion) sortedNodes(active map[string]flagAddrs) []string {
	nodes := f.nodes[:0]
	for n := range active {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	f.nodes = nodes
	return nodes
}

// Recycle runs one background recycle step (the paper's background thread;
// benches drive it explicitly so virtual time stays deterministic).
func (f *Fusion) Recycle(clk *simclock.Clock) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.recycleLocked(clk)
}

// unlockWriteHW releases node's write lock on a hardware-coherent (CXL 3.0)
// cluster: the page diverged from storage, but no flag fan-out and no
// clflush publication are needed — the fabric kept every cache coherent.
func (f *Fusion) unlockWriteHW(clk *simclock.Clock, node string, pageID uint64) error {
	if err := f.rpc(clk, node); err != nil {
		return err
	}
	f.mu.Lock()
	ps := f.pages[pageID]
	if ps != nil {
		ps.dirty = true
	}
	f.mu.Unlock()
	if ps == nil {
		return fmt.Errorf("sharing: write-unlock of unknown page %d", pageID)
	}
	if err := f.clearLockWord(clk, ps, node); err != nil {
		return err
	}
	if err := ps.lk.releaseWrite(node); err != nil {
		return err
	}
	f.emit(clk.Now(), obs.EvLockRelease, node, pageID, 1)
	return nil
}

// CrashNode declares node dead: its RPCs are rejected from now on, and its
// lock leases stop renewing — once they expire, any waiter (or an explicit
// EvictNode) reclaims its locks. Survivors keep serving un-conflicted pages
// throughout; nothing stops the world.
func (f *Fusion) CrashNode(node string) {
	f.leases.markDead(node)
}

// RejoinNode readmits a previously crashed node. Any state the dead node
// still held (locks, flag registrations) is evicted first, so the node
// rejoins with a clean slate; its lease restarts at clk.Now().
func (f *Fusion) RejoinNode(clk *simclock.Clock, node string) error {
	if f.leases.isDead(node) {
		if err := f.EvictNode(clk, node); err != nil {
			return err
		}
	}
	f.leases.revive(node, clk.Now())
	return nil
}

// NodeDead reports whether node is currently marked dead.
func (f *Fusion) NodeDead(node string) bool { return f.leases.isDead(node) }
