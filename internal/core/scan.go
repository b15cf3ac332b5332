package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/frametab"
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

// metaLine is one block's metadata line, decoded.
type metaLine struct{ pageID, lock, prev, next, lsn, flags uint64 }

const metaWords = mFlags + 8 // the part of a metadata line its six words occupy
var le = binary.LittleEndian

func (m metaLine) inUse() bool { return m.flags&flagInUse != 0 }

// writeMeta writes block idx's whole metadata line with one raw access.
func writeMeta(region *simmem.Region, idx int64, m metaLine) error {
	var b [metaWords]byte
	le.PutUint64(b[mPageID:], m.pageID)
	le.PutUint64(b[mLock:], m.lock)
	le.PutUint64(b[mPrev:], m.prev)
	le.PutUint64(b[mNext:], m.next)
	le.PutUint64(b[mLSN:], m.lsn)
	le.PutUint64(b[mFlags:], m.flags)
	return region.WriteRaw(blockOff(idx), b[:])
}

// readMetaLines is the one metadata decoder: it reads each block's line
// with one raw access; lines[i-1] is block i's. A dropped read decodes as
// a zero (free) line, as dropped word loads did.
func readMetaLines(region *simmem.Region, n int64) ([]metaLine, error) {
	lines := make([]metaLine, n)
	var b [metaWords]byte
	for i := range lines {
		b = [metaWords]byte{}
		if err := region.ReadRaw(blockOff(int64(i)+1), b[:]); err != nil {
			return nil, err
		}
		lines[i] = metaLine{pageID: le.Uint64(b[mPageID:]), lock: le.Uint64(b[mLock:]), prev: le.Uint64(b[mPrev:]),
			next: le.Uint64(b[mNext:]), lsn: le.Uint64(b[mLSN:]), flags: le.Uint64(b[mFlags:])}
	}
	return lines, nil
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
	lines, err := readMetaLines(region, n)
	if err != nil {
		return nil, nil, err
	}
	used := 0
	for _, m := range lines {
		if m.inUse() {
			used++
		}
	}
	rep.Blocks = make([]BlockInfo, 0, used)
	seeds := make([]frametab.SeedFrame, 0, used)
	for i, m := range lines {
		if !m.inUse() {
			continue
		}
		idx := int64(i) + 1
		bi := BlockInfo{Index: idx, PageID: m.pageID, Locked: m.lock != lockFree, Dirty: m.flags&flagDirty != 0, LSN: m.lsn}
		rep.Blocks = append(rep.Blocks, bi)
		seeds = append(seeds, frametab.SeedFrame{ID: m.pageID, Slot: &p.blocks[i], Dirty: bi.Dirty})
		p.cst.ids[i] = m.pageID
	}
	p.Table().Seed(seeds)

	lruLock, _ := region.Load64Raw(hLRULock)
	rep.LRULock = lruLock != 0
	if !rep.LRULock {
		inUse := func(idx int64) bool { return lines[idx-1].inUse() }
		p.walkInUse(lines, inUse, len(rep.Blocks), func(string, ...any) { rep.LRURebuilt = true })
	}
	if rep.LRULock || rep.LRURebuilt {
		if err := p.rebuildInUseList(lines, rep.Blocks); err != nil {
			return nil, nil, err
		}
		rep.LRURebuilt = true
		if err := region.Store64Raw(hLRULock, 0); err != nil {
			return nil, nil, err
		}
	}

	// The free list is always rebuilt from flags (a crash mid-pop can orphan
	// a block): one raw write per free line, which keeps only its LSN word.
	free := 0
	prevFree := uint64(0)
	for i := n; i >= 1; i-- {
		if lines[i-1].inUse() {
			continue
		}
		if err := writeMeta(region, i, metaLine{next: prevFree, lsn: lines[i-1].lsn}); err != nil {
			return nil, nil, err
		}
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

// rebuildInUseList relinks every in-use block, ordered by metadata LSN
// descending (recently-updated pages are the best MRU approximation the
// surviving metadata offers), rewriting each block's scanned line whole.
func (p *CXLPool) rebuildInUseList(lines []metaLine, blocks []BlockInfo) error {
	ordered := slices.Clone(blocks)
	slices.SortStableFunc(ordered, func(a, b BlockInfo) int { return cmp.Compare(b.LSN, a.LSN) })
	var head, tail uint64
	for i, b := range ordered {
		m := lines[b.Index-1]
		m.prev, m.next, tail = tail, 0, uint64(b.Index)
		if i+1 < len(ordered) {
			m.next = uint64(ordered[i+1].Index)
		}
		if err := writeMeta(p.region, b.Index, m); err != nil {
			return err
		}
	}
	if len(ordered) > 0 {
		head = uint64(ordered[0].Index)
	}
	for _, kv := range [][2]uint64{{hInuseHead, head}, {hInuseTail, tail}, {hInuseCount, uint64(len(ordered))}} {
		if err := p.region.Store64Raw(int64(kv[0]), kv[1]); err != nil {
			return err
		}
	}
	return nil
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
	idx := fr.Slot().(*block).idx
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
	idx := fr.Slot().(*block).idx
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
