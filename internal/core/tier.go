package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/frametab"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simmem"
	"polarcxlmem/internal/tier"
)

// fastTier is CXLPool's inclusive host-DRAM mirror of hot pages.
//
// Inclusive is the load-bearing word: a promoted page KEEPS its CXL block —
// lock word, LSN, flags, LRU membership, durable image, all of it. The
// mirror is a read accelerator only, so PolarRecv, Fsck, and the crash-point
// sweeps see a pool that is bit-for-bit the non-tiered one. The three rules
// that keep the mirror coherent:
//
//  1. Promotion copies the image under a read latch (writers excluded), so
//     the mirror is born current — Release's publish protocol guarantees
//     CXL holds the latest bytes whenever no write latch is held.
//  2. A write latch invalidates the mirror BEFORE the first modification
//     (the WriteLatched hook, the same pre-modification point that persists
//     the durable lock word), so the mirror can never serve stale bytes.
//  3. Eviction of the durable CXL copy demotes first — a mirror must not
//     outlive its home (the obs TierChecker enforces exactly this ordering).
//
// Demotion is therefore free: drop the map entry. There is never a dirty
// mirror to copy back, which is also why "crash mid-migration: the CXL
// durable copy must win" holds trivially — host DRAM (and the mirror with
// it) evaporates at Crash, and recovery rebuilds from CXL alone.
type fastTier struct {
	prof simmem.Profile // per-access cost of a mirror read (DRAM)

	mu     sync.RWMutex
	mirror map[uint64]*mirror

	hits atomic.Int64
}

// lookup returns page id's mirror, or nil.
func (ft *fastTier) lookup(id uint64) *mirror {
	ft.mu.RLock()
	m := ft.mirror[id]
	ft.mu.RUnlock()
	return m
}

func (ft *fastTier) install(id uint64, m *mirror) int {
	ft.mu.Lock()
	ft.mirror[id] = m
	n := len(ft.mirror)
	ft.mu.Unlock()
	return n
}

func (ft *fastTier) remove(id uint64) bool {
	ft.mu.Lock()
	_, ok := ft.mirror[id]
	delete(ft.mirror, id)
	ft.mu.Unlock()
	return ok
}

// EnableTiering attaches an inclusive DRAM fast tier to the pool and feeds
// heat from the frame table's touch sampler. prof is the per-access cost of
// a mirror read (cxl.BufferDRAMProfile in the facade wiring). The pool then
// implements tier.Mover; pair it with a tier.Daemon for placement policy.
// Call before serving traffic; a crashed pool loses the tier with the rest
// of host DRAM.
func (p *CXLPool) EnableTiering(heat *tier.Heat, prof simmem.Profile) {
	p.fastP.Store(&fastTier{prof: prof, mirror: make(map[uint64]*mirror)})
	p.Table().SetTouchSampler(heat.Touch)
}

// TieringEnabled reports whether a fast tier is attached.
func (p *CXLPool) TieringEnabled() bool { return p.fastP.Load() != nil }

// FastHits reports how many reads the fast tier served.
func (p *CXLPool) FastHits() int64 {
	if ft := p.fastP.Load(); ft != nil {
		return ft.hits.Load()
	}
	return 0
}

// emitTier publishes one tier.* trace event with this pool as the actor.
func (p *CXLPool) emitTier(vnanos int64, typ string, id uint64, aux int64) {
	if p.reg != nil {
		p.reg.Emit(vnanos, typ, "cxl", id, aux)
	}
}

// --- tier.Mover --------------------------------------------------------------

var _ tier.Mover = (*CXLPool)(nil)

// Promote implements tier.Mover: copy page id's current image into the fast
// tier. The frame is pinned (TryPin — a non-resident page is skipped, never
// faulted in just to promote) and read-latched without blocking (a
// write-latched page is skipped; parking the daemon behind a writer would
// stall the commit path that ticks it). The bulk CXL->DRAM staging read is
// charged to clk and is fault-injectable — a crash mid-copy leaves no mirror
// and an untouched CXL home.
func (p *CXLPool) Promote(clk *simclock.Clock, id uint64) (bool, error) {
	ft := p.fastP.Load()
	if ft == nil || ft.lookup(id) != nil {
		return false, nil
	}
	fr, ok := p.Table().TryPin(id)
	if !ok {
		return false, nil
	}
	defer p.Table().Unpin(fr)
	if !fr.TryLock(frametab.Read) {
		return false, nil
	}
	defer fr.Unlock(frametab.Read)
	idx := fr.Slot().(int64)
	m := &mirror{Image: buffer.NewImage(&ft.prof), hits: &ft.hits}
	if err := p.rawImage(idx, m.Buf); err != nil {
		return false, err
	}
	if err := p.host.TransferRead(clk, page.Size); err != nil {
		return false, err
	}
	if err := p.step("tier-promote-staged"); err != nil {
		return false, err
	}
	n := ft.install(id, m)
	p.emitTier(clk.Now(), obs.EvTierPromote, id, int64(n))
	return true, nil
}

// Demote implements tier.Mover: drop page id's mirror. No latch and no
// device operation — a live mirror is always clean (rule 2 above), so there
// is nothing to copy back.
func (p *CXLPool) Demote(clk *simclock.Clock, id uint64, reason tier.DemoteReason) bool {
	ft := p.fastP.Load()
	if ft == nil || !ft.remove(id) {
		return false
	}
	p.emitTier(clk.Now(), obs.EvTierDemote, id, int64(reason))
	return true
}

// Promoted implements tier.Mover: fast-tier page ids, ascending (canonical
// order — map iteration must not leak into the daemon's placement order).
func (p *CXLPool) Promoted() []uint64 {
	ft := p.fastP.Load()
	if ft == nil {
		return nil
	}
	ft.mu.RLock()
	out := make([]uint64, 0, len(ft.mirror))
	for id := range ft.mirror {
		out = append(out, id)
	}
	ft.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FastResident implements tier.Mover.
func (p *CXLPool) FastResident() int {
	ft := p.fastP.Load()
	if ft == nil {
		return 0
	}
	ft.mu.RLock()
	defer ft.mu.RUnlock()
	return len(ft.mirror)
}

// --- elastic capacity --------------------------------------------------------

// SetBlockQuota bounds the pool's in-use CXL blocks at n, the mechanism
// under the facade's elastic allotments (CXL 3.0 dynamic-capacity framing:
// the region is physically carved at its maximum size up front; what grows
// and shrinks at runtime is this logical quota). n <= 0 clears the quota.
// Shrinking below current residency evicts LRU-tail overflow immediately —
// dirty victims flush to storage first, exactly the normal eviction path —
// and fails if the overflow is pinned. Allocation under quota evicts instead
// of taking a free block (see allocBlock).
func (p *CXLPool) SetBlockQuota(clk *simclock.Clock, n int64) error {
	if n > p.nblocks {
		n = p.nblocks
	}
	if n <= 0 {
		p.quota.Store(0)
		p.emitTier(clk.Now(), obs.EvTierResize, 0, 0)
		return nil
	}
	p.quota.Store(n)
	p.emitTier(clk.Now(), obs.EvTierResize, 0, n)
	s := p.cst
	s.mu.Lock()
	defer s.mu.Unlock()
	for int64(p.headLoad(clk, hInuseCount)) > n {
		if _, err := s.evictOne(clk); err != nil {
			return err
		}
	}
	return nil
}

// BlockQuota reports the current in-use block quota (0 = unlimited).
func (p *CXLPool) BlockQuota() int64 { return p.quota.Load() }
