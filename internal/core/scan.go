package core

import (
	"fmt"

	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simcpu"
	"polarcxlmem/internal/simmem"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/tier"
)

// BlockInfo describes one in-use block found by the post-crash scan.
type BlockInfo struct {
	Index  int64
	PageID uint64
	Locked bool   // write-lock word was set at crash time
	Dirty  bool   // diverged from the durable storage image
	LSN    uint64 // metadata LSN (last published update)
}

// ScanReport is what Open learned from the surviving CXL metadata; the
// recovery package turns it into repair actions.
type ScanReport struct {
	Blocks       []BlockInfo
	LRULock      bool // the lruLock word was set: a list splice was in flight
	LRURebuilt   bool // the in-use list failed validation and was rebuilt
	FreeRebuilt  int  // blocks returned to the rebuilt free list
	ScannedBytes int64
}

// Open attaches to a formatted PolarCXLMem region after a crash (or clean
// restart): it scans every block's metadata line, rebuilds the in-DRAM page
// index, validates the CXL-resident LRU list (rebuilding it if the lruLock
// word shows a splice was interrupted, §3.2 challenge 1), and rebuilds the
// free list from the flags. It does NOT repair page contents — that is
// PolarRecv's decision logic in internal/recovery, which uses the returned
// ScanReport.
func Open(clk *simclock.Clock, host *cxl.HostPort, region *simmem.Region, cache *simcpu.Cache, store *storage.Store) (*CXLPool, *ScanReport, error) {
	magic, err := region.Load64Raw(hMagic)
	if err != nil {
		return nil, nil, err
	}
	if magic != Magic {
		return nil, nil, fmt.Errorf("core: region is not a PolarCXLMem pool (magic %#x)", magic)
	}
	nraw, err := region.Load64Raw(hNBlocks)
	if err != nil {
		return nil, nil, err
	}
	n := int64(nraw)
	if n < 1 || RegionSizeFor(n) > region.Size() {
		return nil, nil, fmt.Errorf("core: corrupt header: nblocks=%d for region of %d bytes", n, region.Size())
	}
	p := newPool(host, region, cache, store, n)
	rep := &ScanReport{}

	// One sequential pass over the metadata lines. Charged as a bulk read:
	// this is the entire cost of rediscovering the buffer pool, versus
	// re-reading every page in the baselines.
	rep.ScannedBytes = n * metaSize
	if err := host.TransferRead(clk, rep.ScannedBytes); err != nil {
		return nil, nil, err
	}

	inUse := make(map[int64]BlockInfo)
	for i := int64(1); i <= n; i++ {
		off := blockOff(i)
		flags, err := region.Load64Raw(off + mFlags)
		if err != nil {
			return nil, nil, err
		}
		if flags&flagInUse == 0 {
			continue
		}
		id, _ := region.Load64Raw(off + mPageID)
		lock, _ := region.Load64Raw(off + mLock)
		lsn, _ := region.Load64Raw(off + mLSN)
		bi := BlockInfo{Index: i, PageID: id, Locked: lock != lockFree, Dirty: flags&flagDirty != 0, LSN: lsn}
		inUse[i] = bi
		rep.Blocks = append(rep.Blocks, bi)
		p.Table().Seed(id, i, bi.Dirty)
		p.cst.ids[i-1] = id
	}

	lruLock, _ := region.Load64Raw(hLRULock)
	rep.LRULock = lruLock != 0
	if !rep.LRULock {
		rep.LRURebuilt = !p.validateList(inUse)
	}
	if rep.LRULock || rep.LRURebuilt {
		if err := p.rebuildInUseList(rep.Blocks); err != nil {
			return nil, nil, err
		}
		rep.LRURebuilt = true
		if err := region.Store64Raw(hLRULock, 0); err != nil {
			return nil, nil, err
		}
	}

	// The free list is always rebuilt from flags: a crash mid-pop can orphan
	// a block, and rebuilding is one raw pass.
	free := 0
	prevFree := uint64(0)
	for i := n; i >= 1; i-- {
		if _, used := inUse[i]; used {
			continue
		}
		off := blockOff(i)
		region.Store64Raw(off+mPageID, 0)
		region.Store64Raw(off+mLock, lockFree)
		region.Store64Raw(off+mFlags, 0)
		region.Store64Raw(off+mNext, prevFree)
		region.Store64Raw(off+mPrev, 0)
		prevFree = uint64(i)
		free++
	}
	if err := region.Store64Raw(hFreeHead, prevFree); err != nil {
		return nil, nil, err
	}
	rep.FreeRebuilt = free
	if err := host.TransferWrite(clk, int64(free)*metaSize); err != nil {
		return nil, nil, err
	}
	return p, rep, nil
}

// validateList walks the CXL in-use list and checks it visits exactly the
// flagged blocks with consistent back-pointers.
func (p *CXLPool) validateList(inUse map[int64]BlockInfo) bool {
	head, _ := p.region.Load64Raw(hInuseHead)
	seen := make(map[int64]bool)
	prev := int64(0)
	cur := int64(head)
	for cur != 0 {
		if cur < 1 || cur > p.nblocks || seen[cur] {
			return false
		}
		if _, ok := inUse[cur]; !ok {
			return false
		}
		bp, _ := p.region.Load64Raw(blockOff(cur) + mPrev)
		if int64(bp) != prev {
			return false
		}
		seen[cur] = true
		prev = cur
		nx, _ := p.region.Load64Raw(blockOff(cur) + mNext)
		cur = int64(nx)
	}
	tail, _ := p.region.Load64Raw(hInuseTail)
	if int64(tail) != prev {
		return false
	}
	cnt, _ := p.region.Load64Raw(hInuseCount)
	return len(seen) == len(inUse) && int(cnt) == len(inUse)
}

// rebuildInUseList relinks every in-use block, ordered by metadata LSN
// descending (recently-updated pages are the best MRU approximation the
// surviving metadata offers).
func (p *CXLPool) rebuildInUseList(blocks []BlockInfo) error {
	ordered := append([]BlockInfo(nil), blocks...)
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j].LSN > ordered[j-1].LSN; j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	var prev int64
	for _, b := range ordered {
		off := blockOff(b.Index)
		if err := p.region.Store64Raw(off+mPrev, uint64(prev)); err != nil {
			return err
		}
		if prev != 0 {
			if err := p.region.Store64Raw(blockOff(prev)+mNext, uint64(b.Index)); err != nil {
				return err
			}
		} else {
			if err := p.region.Store64Raw(hInuseHead, uint64(b.Index)); err != nil {
				return err
			}
		}
		if err := p.region.Store64Raw(off+mNext, 0); err != nil {
			return err
		}
		prev = b.Index
	}
	if err := p.region.Store64Raw(hInuseTail, uint64(prev)); err != nil {
		return err
	}
	if len(ordered) == 0 {
		if err := p.region.Store64Raw(hInuseHead, 0); err != nil {
			return err
		}
	}
	return p.region.Store64Raw(hInuseCount, uint64(len(ordered)))
}

// RepairPage overwrites page id's block with img (a redo-rebuilt image),
// marks it dirty relative to storage when dirty is set, and clears the
// persisted lock word. Used by PolarRecv for write-locked or too-new pages.
func (p *CXLPool) RepairPage(clk *simclock.Clock, id uint64, img []byte, dirty bool) error {
	if len(img) != page.Size {
		return fmt.Errorf("core: repair image of %d bytes", len(img))
	}
	fr := p.Table().Lookup(id)
	if fr == nil {
		return fmt.Errorf("core: repair of unknown page %d", id)
	}
	idx := fr.Slot().(int64)
	if err := p.region.WriteRaw(dataOff(idx), img); err != nil {
		return err
	}
	if err := p.host.TransferWrite(clk, page.Size); err != nil {
		return err
	}
	flags := flagInUse
	if dirty {
		flags |= flagDirty
	}
	off := blockOff(idx)
	p.region.Store64Raw(off+mLSN, page.RawLSN(img))
	p.region.Store64Raw(off+mFlags, flags)
	p.region.Store64Raw(off+mLock, lockFree)
	if dirty {
		fr.MarkDirty()
	} else {
		fr.ClearDirty()
	}
	return nil
}

// DropPage discards page id's block back to the free list — the case where
// a crash interrupted a page that has no durable history at all (e.g. a
// NewPage whose mini-transaction never committed).
func (p *CXLPool) DropPage(clk *simclock.Clock, id uint64) error {
	p.cst.mu.Lock()
	defer p.cst.mu.Unlock()
	fr := p.Table().Lookup(id)
	if fr == nil {
		return fmt.Errorf("core: drop of unknown page %d", id)
	}
	// Like eviction: a fast-tier mirror must not outlive its CXL home.
	p.Demote(clk, id, tier.DemoteEvict)
	idx := fr.Slot().(int64)
	// The block may or may not be on the (possibly rebuilt) in-use list;
	// remove it if linked.
	if err := p.lruLockSet(clk); err != nil {
		return err
	}
	if err := p.listRemove(clk, idx); err != nil {
		return err
	}
	p.lruLockClear(clk)
	p.metaStore(clk, idx, mPageID, 0)
	p.metaStore(clk, idx, mFlags, 0)
	p.metaStore(clk, idx, mLock, lockFree)
	p.pushFree(clk, idx)
	p.cst.ids[idx-1] = 0
	p.Table().Discard(id)
	return nil
}
