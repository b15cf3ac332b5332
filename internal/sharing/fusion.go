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
// The RDMA baseline runs on the same server, lock service and page
// directory; only its DBP medium differs (rdmamp.go). Its nodes keep local
// page copies and must move whole 16 KB pages on every miss and every
// write-lock release, plus invalidation messages over the network — the
// read/write amplification the paper quantifies.
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

// flagEntrySize is one node's flag words for one page: invalid u64 +
// removal u64.
const flagEntrySize = 16

// flagAddrs locates one node's flag words for one page (absolute offsets in
// the shared CXL device). Baseline nodes poll no flag words and register
// the zero value.
type flagAddrs struct {
	invalid int64
	removal int64
}

// pageState is the fusion-side metadata for one DBP page.
type pageState struct {
	id     uint64
	off    int64 // offset of the frame within the DBP
	active map[string]flagAddrs
	dirty  bool // diverged from the storage image
	lk     *pageLock
	elem   int64 // LRU tick
}

// dbpMedium is what the two deployments do differently; the page
// directory, frame allocator, lock service, checkpoint and eviction walk
// above it are one. A medium moves page images into and out of frames,
// delivers invalidations and removals to nodes, and says whether a writer
// that dies mid-update can leave its frame torn.
type dbpMedium interface {
	// readFrame and writeFrame move one page image out of and into the
	// frame at off, charged to clk as the fusion server's own transfer.
	readFrame(clk *simclock.Clock, off int64, img []byte) error
	writeFrame(clk *simclock.Clock, off int64, img []byte) error
	// signal sets (v = 1) or clears (v = 0) the flag word at addr, one of
	// node's flag words for pageID: its invalid or its removal flag.
	signal(clk *simclock.Clock, node string, addr int64, v uint64, pageID uint64) error
	// tornOnCrash reports whether a writer that dies holding a page's write
	// lock can leave the page's frame torn, so eviction must rebuild it.
	tornOnCrash() bool
}

// cxlDBP is the paper's DBP: frames in a CXL region the fusion server
// stages through its switch attachment, and flag words the nodes poll on
// the same device. A dead writer's CPU cache may have leaked part of its
// update into a frame, so a frame it held is torn until rebuilt.
type cxlDBP struct {
	host   *cxl.HostPort  // the fusion server's own switch attachment
	region *simmem.Region // the page frames
	dev    *simmem.Region // whole-device view: flag words at device offsets
}

func (m *cxlDBP) readFrame(clk *simclock.Clock, off int64, img []byte) error {
	if err := m.region.ReadRaw(off, img); err != nil {
		return err
	}
	return m.host.TransferRead(clk, page.Size)
}

func (m *cxlDBP) writeFrame(clk *simclock.Clock, off int64, img []byte) error {
	if err := m.region.WriteRaw(off, img); err != nil {
		return err
	}
	return m.host.TransferWrite(clk, page.Size)
}

// signal is the paper's "single memory store operation on CXL memory", a
// few hundred nanoseconds.
func (m *cxlDBP) signal(clk *simclock.Clock, _ string, addr int64, v uint64, _ uint64) error {
	return m.dev.Store64(clk, addr, v)
}

func (*cxlDBP) tornOnCrash() bool { return true }

// Fusion is the buffer-fusion server plus the distributed page-lock
// service, co-located as in PolarDB-MP. NewDeployment builds it over a CXL
// DBP, NewRDMAFusion over the baseline's RDMA memory node.
type Fusion struct {
	dbp   dbpMedium
	size  int64 // DBP bytes
	store *storage.Store

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

// newFusion builds a fusion server over a DBP of size bytes on dbp, backed
// by store for page load and recycle write-back. reg (nil for none)
// receives the server's metrics — sharing.rpcs / rpc_retries /
// invalidations / recycles / evictions / lock_timeouts and the
// sharing.lock.wait_ns histogram — and the coherency trace stream (lock.*,
// coherency.*) of the server and every attached node.
func newFusion(dbp dbpMedium, size int64, store *storage.Store, reg *obs.Registry) *Fusion {
	return &Fusion{
		dbp:           dbp,
		size:          size,
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

// lockWordOff locates, within the lock table, the durable lock word
// covering frame offset off.
func lockWordOff(off int64) int64 { return (off / page.Size) * 8 }

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
func (f *Fusion) CapacityPages() int { return int(f.size / page.Size) }

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
	if f.nextOff+page.Size <= f.size {
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

// GetPage serves the node RPC: return the DBP offset of pageID, loading
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
		// Load the page image from storage into the DBP frame.
		img := make([]byte, page.Size)
		if err := f.store.ReadPage(clk, pageID, img); err != nil {
			f.mu.Lock()
			delete(f.pages, pageID)
			f.free = append(f.free, off)
			f.mu.Unlock()
			return 0, err
		}
		if err := f.dbp.writeFrame(clk, off, img); err != nil {
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
	if err := f.dbp.writeFrame(clk, off, make([]byte, page.Size)); err != nil {
		return 0, err
	}
	return off, nil
}

// FlushDirty checkpoints the DBP: every dirty frame is staged out of the
// DBP and written to storage (after the write-ahead barrier, when
// installed).
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
		err := f.dbp.readFrame(clk, ps.off, img)
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
	return lt.Store64(clk, lockWordOff(ps.off), id)
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
	return lt.Store64(clk, lockWordOff(ps.off), 0)
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

// UnlockWrite releases node's write lock after it published its update —
// flushed its dirty lines to CXL, or pushed the whole page over RDMA — and
// first invalidates every OTHER node where the page is active: one CXL flag
// store, or one network message, per node. The releasing worker bears the
// fan-out latency: the paper notes the RDMA full-page flush plus
// invalidation "prolong[s] the lock release time".
func (f *Fusion) UnlockWrite(clk *simclock.Clock, node string, pageID uint64) error {
	return f.unlockWrite(clk, node, pageID, true, true)
}

// unlockWriteClean releases node's write lock whose holder modified
// nothing: no publication, no invalidation fan-out.
func (f *Fusion) unlockWriteClean(clk *simclock.Clock, node string, pageID uint64) error {
	return f.unlockWrite(clk, node, pageID, false, false)
}

// unlockWrite releases node's write lock. changed marks the page diverged
// from storage; invalidate first fans invalidations out to the other
// active nodes (a hardware-coherent cluster changes pages without: the
// fabric kept every cache coherent).
func (f *Fusion) unlockWrite(clk *simclock.Clock, node string, pageID uint64, changed, invalidate bool) error {
	if err := f.rpc(clk, node); err != nil {
		return err
	}
	f.mu.Lock()
	ps, ok := f.pages[pageID]
	if ok && changed {
		ps.dirty = true
		if invalidate {
			if err := f.invalidateLocked(clk, ps, node); err != nil {
				f.mu.Unlock()
				return err
			}
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

// invalidateLocked sets the invalid flag of every node but skip where ps
// is active. Caller holds f.mu.
func (f *Fusion) invalidateLocked(clk *simclock.Clock, ps *pageState, skip string) error {
	for _, n := range f.sortedNodes(ps.active) {
		if n == skip {
			continue
		}
		if err := f.dbp.signal(clk, n, ps.active[n].invalid, 1, ps.id); err != nil {
			return err
		}
		f.invalidations.Inc()
		// Actor is the TARGET: from here until that node flushes and acks,
		// its cached copy of the page is suspect.
		f.emit(clk.Now(), obs.EvInvalidSet, n, ps.id, 0)
	}
	return nil
}

// dropLocked removes ps from the DBP: every node but skip where it is
// active gets its removal flag, then the frame is freed. Caller holds f.mu.
func (f *Fusion) dropLocked(clk *simclock.Clock, ps *pageState, skip string) error {
	for _, n := range f.sortedNodes(ps.active) {
		if n == skip {
			continue
		}
		if err := f.dbp.signal(clk, n, ps.active[n].removal, 1, ps.id); err != nil {
			return err
		}
	}
	delete(f.pages, ps.id)
	f.free = append(f.free, ps.off)
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
		if err := f.dbp.readFrame(clk, victim.off, img); err != nil {
			return err
		}
		if err := f.store.WritePage(clk, victim.id, img); err != nil {
			return err
		}
	}
	if err := f.dropLocked(clk, victim, ""); err != nil {
		return err
	}
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
