package core

import (
	"fmt"

	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/frametab"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simcpu"
	"polarcxlmem/internal/simmem"
	"polarcxlmem/internal/storage"
)

// This file keeps the word-by-word post-crash scan — one raw 8-byte access
// per metadata word, map-based scan state, five word stores per free block —
// as the reference the line decoder is checked against (scan_diff_test.go).

// refOpen is Open with every metadata word read and written on its own.
func refOpen(clk *simclock.Clock, host *cxl.HostPort, region *simmem.Region, cache *simcpu.Cache, store *storage.Store) (*CXLPool, *ScanReport, error) {
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
		p.Table().Seed([]frametab.SeedFrame{{ID: id, Slot: &p.blocks[i-1], Dirty: bi.Dirty}})
		p.cst.ids[i-1] = id
	}

	lruLock, _ := region.Load64Raw(hLRULock)
	rep.LRULock = lruLock != 0
	if !rep.LRULock {
		rep.LRURebuilt = !refValidateList(p, inUse)
	}
	if rep.LRULock || rep.LRURebuilt {
		if err := refRebuildInUseList(p, rep.Blocks); err != nil {
			return nil, nil, err
		}
		rep.LRURebuilt = true
		if err := region.Store64Raw(hLRULock, 0); err != nil {
			return nil, nil, err
		}
	}

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

// refRebuildInUseList relinks the in-use list word by word, ordered by an
// insertion sort on LSN, descending.
func refRebuildInUseList(p *CXLPool, blocks []BlockInfo) error {
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

// refValidateList walks the in-use list word by word.
func refValidateList(p *CXLPool, inUse map[int64]BlockInfo) bool {
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

// refFsck is Fsck with every metadata word read on its own.
func refFsck(p *CXLPool) FsckReport {
	rep := FsckReport{Blocks: p.nblocks}
	magic, err := p.region.Load64Raw(hMagic)
	if err != nil || magic != Magic {
		rep.problemf("bad magic %#x (%v)", magic, err)
		return rep
	}
	nraw, _ := p.region.Load64Raw(hNBlocks)
	if int64(nraw) != p.nblocks {
		rep.problemf("header nblocks %d != pool nblocks %d", nraw, p.nblocks)
	}
	if lru, _ := p.region.Load64Raw(hLRULock); lru != 0 {
		rep.problemf("lruLock held (%d): splice in flight or crash residue", lru)
	}

	inUse := make(map[int64]uint64)
	pageOwners := make(map[uint64]int64)
	for i := int64(1); i <= p.nblocks; i++ {
		off := blockOff(i)
		flags, _ := p.region.Load64Raw(off + mFlags)
		if flags&flagInUse == 0 {
			continue
		}
		id, _ := p.region.Load64Raw(off + mPageID)
		if id == 0 {
			rep.problemf("block %d in-use with page id 0", i)
			continue
		}
		if prev, dup := pageOwners[id]; dup {
			rep.problemf("page %d owned by blocks %d and %d", id, prev, i)
		}
		pageOwners[id] = i
		inUse[i] = id
		lock, _ := p.region.Load64Raw(off + mLock)
		if lock != lockFree {
			rep.LockedPages = append(rep.LockedPages, id)
		} else {
			img := make([]byte, 16)
			if err := p.region.ReadRaw(dataOff(i), img); err == nil {
				if hdrID := page.RawID(img); hdrID != 0 && hdrID != id {
					rep.problemf("block %d: metadata says page %d, image header says %d", i, id, hdrID)
				}
			}
		}
	}
	rep.InUse = len(inUse)

	head, _ := p.region.Load64Raw(hInuseHead)
	seen := make(map[int64]bool)
	var prev int64
	cur := int64(head)
	for cur != 0 {
		if cur < 1 || cur > p.nblocks {
			rep.problemf("in-use list points at invalid block %d", cur)
			break
		}
		if seen[cur] {
			rep.problemf("in-use list cycles at block %d", cur)
			break
		}
		seen[cur] = true
		if _, ok := inUse[cur]; !ok {
			rep.problemf("in-use list visits block %d whose flags say free", cur)
		}
		bp, _ := p.region.Load64Raw(blockOff(cur) + mPrev)
		if int64(bp) != prev {
			rep.problemf("block %d back-pointer %d, want %d", cur, bp, prev)
		}
		prev = cur
		nx, _ := p.region.Load64Raw(blockOff(cur) + mNext)
		cur = int64(nx)
	}
	tail, _ := p.region.Load64Raw(hInuseTail)
	if int64(tail) != prev {
		rep.problemf("in-use tail %d, want %d", tail, prev)
	}
	cnt, _ := p.region.Load64Raw(hInuseCount)
	if int(cnt) != len(seen) {
		rep.problemf("in-use count %d, list has %d", cnt, len(seen))
	}
	if len(seen) != len(inUse) {
		rep.problemf("in-use list visits %d blocks, flags mark %d", len(seen), len(inUse))
	}

	fhead, _ := p.region.Load64Raw(hFreeHead)
	fseen := make(map[int64]bool)
	cur = int64(fhead)
	for cur != 0 {
		if cur < 1 || cur > p.nblocks {
			rep.problemf("free list points at invalid block %d", cur)
			break
		}
		if fseen[cur] {
			rep.problemf("free list cycles at block %d", cur)
			break
		}
		if _, used := inUse[cur]; used {
			rep.problemf("free list visits in-use block %d", cur)
		}
		fseen[cur] = true
		nx, _ := p.region.Load64Raw(blockOff(cur) + mNext)
		cur = int64(nx)
	}
	rep.Free = len(fseen)
	if int64(len(fseen)+len(inUse)) != p.nblocks {
		rep.problemf("block accounting: %d free + %d in-use != %d blocks", len(fseen), len(inUse), p.nblocks)
	}
	return rep
}
