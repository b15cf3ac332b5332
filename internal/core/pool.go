package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/frametab"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simcpu"
	"polarcxlmem/internal/simmem"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/tier"
)

// lruMoveWindowMult: a block touched within the last nblocks*mult Gets is
// "young enough" and is not re-spliced to MRU. Real buffer pools (InnoDB's
// old-sublist access window) use the same trick; here it also keeps the
// uncached CXL pointer-store cost off the hot path — under uniform access
// a block's expected re-touch gap is nblocks Gets, so a 4x window makes
// splices rare while still refreshing genuinely cold blocks before the
// eviction clock reaches them.
const lruMoveWindowMult = 4

// CXLPool is PolarCXLMem's buffer pool: every page and its metadata live
// directly in the node's CXL region; there is no local tier.
//
// The in-DRAM side (page index, pins, latches, statistics) and the pool
// surface are the embedded buffer.WritebackPool; cxlStore below contributes
// everything CXL-resident — the durable free/in-use lists, lock words, and
// flags stay exactly where the paper puts them, so PolarRecv and Fsck are
// behaviorally untouched. The SetObserver registry also receives the tier.*
// events. The table's capacity policy is disabled (Capacity 0): eviction is
// driven from inside the store, because victim selection walks the
// CXL-resident LRU list.
type CXLPool struct {
	*buffer.WritebackPool
	host   *cxl.HostPort
	region *simmem.Region
	cache  *simcpu.Cache
	store  *storage.Store

	nblocks int64
	blocks  []block // block idx's page accessor is blocks[idx-1]

	cst *cxlStore

	// fastP is the optional inclusive DRAM fast tier (see tier.go); quota is
	// the optional in-use block bound under it.
	fastP atomic.Pointer[fastTier]
	quota atomic.Int64

	// hook, when set, is called at named protocol steps; returning an error
	// aborts the operation mid-way, leaving exactly the partial CXL state a
	// crash at that point would leave. Tests use it to exercise PolarRecv.
	hook func(step string) error
}

var _ buffer.Pool = (*CXLPool)(nil)

// cxlStore is CXLPool's frametab backend. Its mutex serializes every
// CXL-resident list/metadata mutation (miss fill, create, eviction, drop) —
// the instrumented op sequence of those paths is what the crash-point
// sweeps replay, so it must stay single-file. Hit-path pins and latches are
// the table's business and scale across shards.
type cxlStore struct {
	p *CXLPool

	mu    sync.Mutex
	ids   []uint64 // idx-1 -> resident page id: pin checks without CXL reads
	stage []byte   // the one page image staged between storage and CXL; mu held

	epoch  atomic.Int64
	touch  []atomic.Int64 // idx-1 -> last-touch epoch (LRU move window)
	window int64          // nblocks * lruMoveWindowMult, min 1 (precomputed)
}

// newPool wires an empty pool+store+table over region (Format and Open).
func newPool(host *cxl.HostPort, region *simmem.Region, cache *simcpu.Cache, store *storage.Store, n int64) *CXLPool {
	p := &CXLPool{host: host, region: region, cache: cache, store: store, nblocks: n, blocks: make([]block, n)}
	for i := range p.blocks {
		p.blocks[i] = block{p: p, idx: int64(i) + 1}
	}
	w := n * lruMoveWindowMult
	if w < 1 {
		w = 1
	}
	p.cst = &cxlStore{p: p, ids: make([]uint64, n), stage: make([]byte, page.Size), touch: make([]atomic.Int64, n), window: w}
	p.WritebackPool = buffer.NewWritebackPool(frametab.Config{Store: p.cst}, "cxl", store, medium{p})
	return p
}

// Format initializes a fresh PolarCXLMem pool over region: writes the
// header and chains every block into the free list. The region must be at
// least RegionSizeFor(1) bytes.
func Format(host *cxl.HostPort, region *simmem.Region, cache *simcpu.Cache, store *storage.Store) (*CXLPool, error) {
	n := BlocksFor(region.Size())
	if n < 1 {
		return nil, fmt.Errorf("core: region of %d bytes holds no blocks (need >= %d)", region.Size(), RegionSizeFor(1))
	}
	p := newPool(host, region, cache, store, n)
	// Formatting is a one-time startup action; charge nothing (raw writes).
	w := func(off int64, v uint64) error { return region.Store64Raw(off, v) }
	if err := w(hMagic, Magic); err != nil {
		return nil, err
	}
	if err := w(hNBlocks, uint64(n)); err != nil {
		return nil, err
	}
	for i := int64(1); i <= n; i++ {
		off := blockOff(i)
		next := uint64(i + 1)
		if i == n {
			next = 0
		}
		for _, kv := range [][2]uint64{{mPageID, 0}, {mLock, lockFree}, {mPrev, 0}, {mNext, next}, {mLSN, 0}, {mFlags, 0}} {
			if err := w(off+int64(kv[0]), kv[1]); err != nil {
				return nil, err
			}
		}
	}
	if err := w(hFreeHead, 1); err != nil {
		return nil, err
	}
	for _, o := range []int64{hInuseHead, hInuseTail, hLRULock, hInuseCount} {
		if err := w(o, 0); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// SetHook installs the crash-point hook (tests only).
func (p *CXLPool) SetHook(h func(step string) error) { p.hook = h }

func (p *CXLPool) step(name string) error {
	if p.hook != nil {
		return p.hook(name)
	}
	return nil
}

// Region exposes the pool's CXL region (recovery, diagnostics).
func (p *CXLPool) Region() *simmem.Region { return p.region }

// Cache exposes the node's CPU cache.
func (p *CXLPool) Cache() *simcpu.Cache { return p.cache }

// --- costed metadata access -------------------------------------------------

// Metadata accessors panic on region errors: a failed flag-word access means
// the CXL device itself failed out from under the pool, which no caller can
// handle locally. The panic value wraps the region error, so crash-sweep
// harnesses can recover() it and recognise injected host crashes
// (fault.IsCrash) without matching message strings.

func (p *CXLPool) metaLoad(clk *simclock.Clock, idx, field int64) uint64 {
	v, err := p.region.Load64(clk, blockOff(idx)+field)
	if err != nil {
		panic(fmt.Errorf("core: meta load block %d field %d: %w", idx, field, err))
	}
	return v
}

func (p *CXLPool) metaStore(clk *simclock.Clock, idx, field int64, v uint64) {
	if err := p.region.Store64(clk, blockOff(idx)+field, v); err != nil {
		panic(fmt.Errorf("core: meta store block %d field %d: %w", idx, field, err))
	}
}

func (p *CXLPool) headLoad(clk *simclock.Clock, off int64) uint64 {
	v, err := p.region.Load64(clk, off)
	if err != nil {
		panic(fmt.Errorf("core: header load %d: %w", off, err))
	}
	return v
}

func (p *CXLPool) headStore(clk *simclock.Clock, off int64, v uint64) {
	if err := p.region.Store64(clk, off, v); err != nil {
		panic(fmt.Errorf("core: header store %d: %w", off, err))
	}
}

// --- CXL-resident list operations -------------------------------------------
// Callers hold cst.mu. Every splice is bracketed by the lruLock word so a
// crash mid-splice is detectable (§3.2 challenge 1).

func (p *CXLPool) lruLockSet(clk *simclock.Clock) error {
	p.headStore(clk, hLRULock, 1)
	return p.step("lru-locked")
}

func (p *CXLPool) lruLockClear(clk *simclock.Clock) {
	p.headStore(clk, hLRULock, 0)
}

// listRemove unlinks idx from the in-use list.
func (p *CXLPool) listRemove(clk *simclock.Clock, idx int64) error {
	prev := int64(p.metaLoad(clk, idx, mPrev))
	next := int64(p.metaLoad(clk, idx, mNext))
	if prev != 0 {
		p.metaStore(clk, prev, mNext, uint64(next))
	} else {
		p.headStore(clk, hInuseHead, uint64(next))
	}
	if err := p.step("lru-mid-splice"); err != nil {
		return err
	}
	if next != 0 {
		p.metaStore(clk, next, mPrev, uint64(prev))
	} else {
		p.headStore(clk, hInuseTail, uint64(prev))
	}
	p.headStore(clk, hInuseCount, p.headLoad(clk, hInuseCount)-1)
	return nil
}

// listPushFront links idx at the in-use MRU position.
func (p *CXLPool) listPushFront(clk *simclock.Clock, idx int64) error {
	head := int64(p.headLoad(clk, hInuseHead))
	p.metaStore(clk, idx, mPrev, 0)
	p.metaStore(clk, idx, mNext, uint64(head))
	if err := p.step("lru-mid-push"); err != nil {
		return err
	}
	if head != 0 {
		p.metaStore(clk, head, mPrev, uint64(idx))
	} else {
		p.headStore(clk, hInuseTail, uint64(idx))
	}
	p.headStore(clk, hInuseHead, uint64(idx))
	p.headStore(clk, hInuseCount, p.headLoad(clk, hInuseCount)+1)
	return nil
}

// popFree takes a block off the free list, or 0 if empty.
func (p *CXLPool) popFree(clk *simclock.Clock) int64 {
	head := int64(p.headLoad(clk, hFreeHead))
	if head == 0 {
		return 0
	}
	next := p.metaLoad(clk, head, mNext)
	p.headStore(clk, hFreeHead, next)
	p.metaStore(clk, head, mNext, 0)
	return head
}

// pushFree returns a block to the free list.
func (p *CXLPool) pushFree(clk *simclock.Clock, idx int64) {
	head := p.headLoad(clk, hFreeHead)
	p.metaStore(clk, idx, mNext, head)
	p.metaStore(clk, idx, mPrev, 0)
	p.headStore(clk, hFreeHead, uint64(idx))
}

// rawImage copies block idx's page image without cost (recovery, eviction
// after a cache flush).
func (p *CXLPool) rawImage(idx int64, buf []byte) error {
	return p.region.ReadRaw(dataOff(idx), buf)
}

// --- frametab backend -------------------------------------------------------

// evictOne frees one unpinned LRU-tail block, flushing it to storage if
// dirty. Called with cst.mu held; performs its I/O inline (the store mutex
// is a functional lock, not a timing model). The victim's frame is taken
// out of the table (atomically with its pin check) BEFORE the flush: a
// concurrent Get for the victim page then misses and blocks on cst.mu in
// Fetch until the eviction — including the storage write — has completed.
func (s *cxlStore) evictOne(clk *simclock.Clock) (int64, error) {
	p := s.p
	for {
		idx := int64(p.headLoad(clk, hInuseTail))
		for idx != 0 && p.Table().Pinned(s.ids[idx-1]) {
			idx = int64(p.metaLoad(clk, idx, mPrev))
		}
		if idx == 0 {
			return 0, fmt.Errorf("core: all in-use blocks pinned, cannot evict")
		}
		id := p.metaLoad(clk, idx, mPageID)
		fr, ok := p.Table().TakeIfIdle(id)
		if !ok {
			continue // pinned between walk and take; re-walk the list
		}
		// An inclusive fast-tier mirror must not outlive its CXL home: demote
		// before the block is dismantled (reason 2 = eviction of the durable
		// copy; the obs TierChecker enforces this ordering).
		p.Demote(clk, id, tier.DemoteEvict)
		if fr.Dirty() {
			// The block's lines may be resident (clean) in this node's
			// cache; unlocked pages were flushed at release, so CXL holds
			// the latest.
			img := s.stage
			if err := p.rawImage(idx, img); err != nil {
				return 0, err
			}
			// Charge the bulk CXL->DRAM staging read that precedes the
			// storage write, then the storage write itself.
			if err := p.host.TransferRead(clk, page.Size); err != nil {
				return 0, err
			}
			p.Barrier(clk, page.RawLSN(img))
			if err := p.store.WritePage(clk, id, img); err != nil {
				return 0, err
			}
			p.Table().Counters.StorageWrites.Add(1)
		}
		if err := p.lruLockSet(clk); err != nil {
			return 0, err
		}
		if err := p.listRemove(clk, idx); err != nil {
			return 0, err
		}
		p.lruLockClear(clk)
		p.metaStore(clk, idx, mPageID, 0)
		p.metaStore(clk, idx, mFlags, 0)
		p.metaStore(clk, idx, mLSN, 0)
		// Drop any cached lines of the dead block so a future tenant of the
		// block never sees them.
		if err := p.cache.Flush(clk, p.region, dataOff(idx), page.Size); err != nil {
			return 0, err
		}
		s.ids[idx-1] = 0
		p.Table().Counters.Evictions.Add(1)
		p.emitTier(clk.Now(), obs.EvFrameEvict, id, 0)
		return idx, nil
	}
}

// allocBlock returns a free block, evicting if necessary. cst.mu held.
// Under a block quota (elastic allotments, see SetBlockQuota) a pool at its
// quota evicts even when the free list is non-empty: the carved region is
// the instance's MAXIMUM, the quota is what it currently owns.
func (s *cxlStore) allocBlock(clk *simclock.Clock) (int64, error) {
	if q := s.p.quota.Load(); q > 0 && int64(s.p.headLoad(clk, hInuseCount)) >= q {
		return s.evictOne(clk)
	}
	if idx := s.p.popFree(clk); idx != 0 {
		return idx, nil
	}
	return s.evictOne(clk)
}

// install fills block idx for page id: image bytes in bulk, then the
// metadata words, then the in-use list splice. cst.mu held. chargeXfer
// charges the DRAM->CXL staging write (a page fetched from storage; a
// zero-fill create writes nothing across the link worth modelling).
func (s *cxlStore) install(clk *simclock.Clock, idx int64, id uint64, img []byte, lsn, flags uint64, chargeXfer bool) error {
	p := s.p
	if err := p.region.WriteRaw(dataOff(idx), img); err != nil {
		p.pushFree(clk, idx)
		return err
	}
	if chargeXfer {
		if err := p.host.TransferWrite(clk, page.Size); err != nil {
			return err
		}
	}
	p.metaStore(clk, idx, mPageID, id)
	p.metaStore(clk, idx, mLSN, lsn)
	p.metaStore(clk, idx, mFlags, flags)
	s.touch[idx-1].Store(s.epoch.Load())
	if err := p.lruLockSet(clk); err != nil {
		return err
	}
	if err := p.listPushFront(clk, idx); err != nil {
		return err
	}
	p.lruLockClear(clk)
	s.ids[idx-1] = id
	return nil
}

// Fetch implements frametab.FrameStore: stage the page from storage in the
// store's staging image and copy it into a CXL block in bulk.
func (s *cxlStore) Fetch(clk *simclock.Clock, id uint64) (any, bool, error) {
	p := s.p
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, err := s.allocBlock(clk)
	if err != nil {
		return nil, false, err
	}
	img := s.stage
	if err := p.store.ReadPage(clk, id, img); err != nil {
		p.pushFree(clk, idx)
		return nil, false, err
	}
	p.Table().Counters.StorageReads.Add(1)
	if err := s.install(clk, idx, id, img, page.RawLSN(img), flagInUse, true); err != nil {
		return nil, false, err
	}
	return idx, false, nil
}

// zeroPage is the image a created block is installed from; never written.
var zeroPage = make([]byte, page.Size)

// Create implements frametab.FrameStore: a zeroed block, dirty from birth.
func (s *cxlStore) Create(clk *simclock.Clock, id uint64) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, err := s.allocBlock(clk)
	if err != nil {
		return nil, err
	}
	if err := s.install(clk, idx, id, zeroPage, 0, flagInUse|flagDirty, false); err != nil {
		return nil, err
	}
	return idx, nil
}

// Touched implements frametab.Toucher: move the block to MRU unless it was
// touched recently (the lruMoveWindowMult window).
func (s *cxlStore) Touched(clk *simclock.Clock, id uint64, slot any) error {
	p := s.p
	idx := slot.(int64)
	e := s.epoch.Add(1)
	if lt := s.touch[idx-1].Load(); e-lt <= s.window && lt != 0 {
		return nil // still young: skip the CXL pointer stores
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check now that we hold the list mutex: concurrent getters of the
	// same page all pass the unlocked window check together, and only the
	// first should pay the CXL pointer stores. Single-threaded callers see
	// an unchanged value, so fault-sweep op sequences are unaffected.
	if lt := s.touch[idx-1].Load(); e-lt <= s.window && lt != 0 {
		return nil
	}
	s.touch[idx-1].Store(e)
	if int64(p.headLoad(clk, hInuseHead)) == idx {
		return nil
	}
	if err := p.lruLockSet(clk); err != nil {
		return err
	}
	if err := p.listRemove(clk, idx); err != nil {
		return err
	}
	if err := p.listPushFront(clk, idx); err != nil {
		return err
	}
	p.lruLockClear(clk)
	return nil
}

// WriteLatched implements frametab.WriteLatchNotifier: persist the
// write-lock word BEFORE any modification — if the host crashes mid-update,
// PolarRecv sees the lock and rebuilds from redo (§3.2). The same
// pre-modification point invalidates the page's fast-tier mirror (reason 1 =
// write), so a mirror can never serve bytes a writer is about to change.
func (s *cxlStore) WriteLatched(clk *simclock.Clock, id uint64, slot any) error {
	s.p.Demote(clk, id, tier.DemoteWrite)
	s.p.metaStore(clk, slot.(int64), mLock, lockWritten)
	return s.p.step("write-locked")
}

// Writeback implements frametab.WritebackStore: persist one dirty resident
// page without evicting it — CXL is the buffer pool, so the page stays. The
// background flusher and the checkpoint (the embedded pool's FlushAll) both
// write pages this way: cache flush (make CXL current), staging read,
// barrier, storage write, flags word. No cst.mu: the frame is read-latched
// (writers are excluded) and no list pointers move. The flusher also pins
// it, so eviction cannot take the block; the checkpoint walk does not pin.
func (s *cxlStore) Writeback(clk *simclock.Clock, id uint64, slot any) error {
	p := s.p
	idx := slot.(int64)
	if err := p.cache.Flush(clk, p.region, dataOff(idx), page.Size); err != nil {
		return err
	}
	img := make([]byte, page.Size)
	if err := p.rawImage(idx, img); err != nil {
		return err
	}
	if err := p.host.TransferRead(clk, page.Size); err != nil {
		return err
	}
	p.Barrier(clk, page.RawLSN(img))
	if err := p.store.WritePage(clk, id, img); err != nil {
		return err
	}
	p.metaStore(clk, idx, mFlags, flagInUse)
	p.Table().Counters.StorageWrites.Add(1)
	return nil
}

// Crash simulates a host failure: the CPU cache is lost (dirty unflushed
// lines and all), every in-DRAM structure is dropped. The CXL region — the
// pool itself — is untouched. Recovery reopens it with Open (internal) via
// recovery.PolarRecv.
func (p *CXLPool) Crash() {
	p.cache.Drop()
	// The fast tier lives in host DRAM: it dies with the host. Recovery
	// rebuilds from the CXL durable copies alone — the inclusive design's
	// "CXL copy must win" guarantee is exactly this line.
	p.fastP.Store(nil)
	// The table stays readable (Stats on a dead pool is a diagnostic the
	// benchmark rigs use), but the store's DRAM mirrors are gone: any page
	// access on the crashed pool is a bug, and nilling cst makes it loud.
	p.cst = nil
}
