package core

import (
	"fmt"

	"polarcxlmem/internal/page"
)

// FsckReport is the result of a structural check of the CXL-resident pool
// state.
type FsckReport struct {
	Blocks      int64
	InUse       int
	Free        int
	LockedPages []uint64
	Problems    []string
}

// OK reports whether the pool passed every check.
func (r FsckReport) OK() bool { return len(r.Problems) == 0 }

func (r *FsckReport) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Fsck verifies every durable invariant of the pool's CXL layout:
//
//   - header magic and block count are sane;
//   - the in-use list is a consistent doubly-linked chain visiting exactly
//     the blocks whose flags say in-use, with a correct count;
//   - the free list visits exactly the not-in-use blocks, with no cycles;
//   - no two in-use blocks claim the same page id;
//   - every in-use block's page image carries the id its metadata claims
//     (unless the block is write-locked: a torn page is expected there);
//   - the lruLock word is clear (no splice in flight).
//
// Fsck reads raw (uncosted) state, one access per metadata line: it is a
// diagnostic, not a workload. Run it on a quiesced or crashed pool;
// concurrent mutation gives false positives.
func (p *CXLPool) Fsck() FsckReport {
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

	lines, err := readMetaLines(p.region, p.nblocks)
	if err != nil {
		rep.problemf("metadata scan: %v", err)
		return rep
	}
	pageOwners := make(map[uint64]int64)
	for i, m := range lines {
		if !m.inUse() {
			continue
		}
		idx := int64(i) + 1
		if m.pageID == 0 {
			rep.problemf("block %d in-use with page id 0", idx)
			continue
		}
		if prev, dup := pageOwners[m.pageID]; dup {
			rep.problemf("page %d owned by blocks %d and %d", m.pageID, prev, idx)
		}
		pageOwners[m.pageID] = idx
		rep.InUse++
		if m.lock != lockFree {
			rep.LockedPages = append(rep.LockedPages, m.pageID)
		} else {
			// Unlocked pages must have a coherent image: the id in the page
			// header matches the metadata (zero-LSN fresh pages excepted).
			img := make([]byte, 16)
			if err := p.region.ReadRaw(dataOff(idx), img); err == nil {
				if hdrID := page.RawID(img); hdrID != 0 && hdrID != m.pageID {
					rep.problemf("block %d: metadata says page %d, image header says %d", idx, m.pageID, hdrID)
				}
			}
		}
	}
	// The list walks take a block flagged in-use with page id 0 as free.
	inUse := func(idx int64) bool { m := lines[idx-1]; return m.inUse() && m.pageID != 0 }
	p.walkInUse(lines, inUse, rep.InUse, rep.problemf)

	// Walk the free list.
	fhead, _ := p.region.Load64Raw(hFreeHead)
	seen := make([]bool, p.nblocks)
	for cur := int64(fhead); cur != 0; cur = int64(lines[cur-1].next) {
		if cur < 1 || cur > p.nblocks {
			rep.problemf("free list points at invalid block %d", cur)
			break
		}
		if seen[cur-1] {
			rep.problemf("free list cycles at block %d", cur)
			break
		}
		if inUse(cur) {
			rep.problemf("free list visits in-use block %d", cur)
		}
		seen[cur-1] = true
		rep.Free++
	}
	if int64(rep.Free+rep.InUse) != p.nblocks {
		rep.problemf("block accounting: %d free + %d in-use != %d blocks", rep.Free, rep.InUse, p.nblocks)
	}
	return rep
}

// walkInUse walks the in-use list over the scanned lines, reporting each way
// it fails to visit the nInUse blocks inUse accepts once each, with
// consistent back-pointers, tail and count. Open rebuilds on any report.
func (p *CXLPool) walkInUse(lines []metaLine, inUse func(idx int64) bool, nInUse int, problemf func(format string, args ...any)) {
	head, _ := p.region.Load64Raw(hInuseHead)
	seen := make([]bool, p.nblocks)
	visited := 0
	var prev int64
	for cur := int64(head); cur != 0; cur = int64(lines[cur-1].next) {
		if cur < 1 || cur > p.nblocks {
			problemf("in-use list points at invalid block %d", cur)
			break
		}
		if seen[cur-1] {
			problemf("in-use list cycles at block %d", cur)
			break
		}
		seen[cur-1] = true
		visited++
		if !inUse(cur) {
			problemf("in-use list visits block %d whose flags say free", cur)
		}
		if bp := lines[cur-1].prev; int64(bp) != prev {
			problemf("block %d back-pointer %d, want %d", cur, bp, prev)
		}
		prev = cur
	}
	tail, _ := p.region.Load64Raw(hInuseTail)
	if int64(tail) != prev {
		problemf("in-use tail %d, want %d", tail, prev)
	}
	cnt, _ := p.region.Load64Raw(hInuseCount)
	if int(cnt) != visited {
		problemf("in-use count %d, list has %d", cnt, visited)
	}
	if visited != nInUse {
		problemf("in-use list visits %d blocks, flags mark %d", visited, nInUse)
	}
}
