package core

import (
	"fmt"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/frametab"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
)

// cxlFrame is a latched page operated on directly in CXL memory through the
// node's CPU cache. There is no local page copy: every ReadAt/WriteAt is a
// load/store against the block's data region, so traffic is cache-line
// granular — the paper's answer to read/write amplification.
type cxlFrame struct {
	pool     *CXLPool
	clk      *simclock.Clock
	idx      int64
	fr       *frametab.Frame
	mode     buffer.Mode
	released bool
	wrote    bool
}

// ID implements buffer.Frame.
func (f *cxlFrame) ID() uint64 { return f.fr.ID() }

// ReadAt implements page.Accessor: a load from CXL through the CPU cache —
// unless the page is promoted into the fast tier, in which case the read is
// served from the host-DRAM mirror at DRAM cost with no CXL traffic at all.
// The mirror is always current under this frame's latch: promotion copies
// under a read latch, and any write latch invalidated the mirror before its
// first store (see tier.go).
func (f *cxlFrame) ReadAt(off int, buf []byte) error {
	if f.released {
		return fmt.Errorf("core: read on released frame of page %d", f.fr.ID())
	}
	if ft := f.pool.fastP.Load(); ft != nil && f.mode == buffer.Read {
		if ft.lookupCopy(f.clk, f.fr.ID(), off, buf) {
			return nil
		}
	}
	return f.pool.cache.Read(f.clk, f.pool.dataRegion(f.idx), int64(off), buf)
}

// WriteAt implements page.Accessor: a store to CXL through the CPU cache
// (write-back; published by the flush on release).
func (f *cxlFrame) WriteAt(off int, data []byte) error {
	if f.released {
		return fmt.Errorf("core: write on released frame of page %d", f.fr.ID())
	}
	if f.mode != buffer.Write {
		return fmt.Errorf("core: write to page %d under a read latch", f.fr.ID())
	}
	f.wrote = true
	return f.pool.cache.Write(f.clk, f.pool.dataRegion(f.idx), int64(off), data)
}

// MarkDirty implements buffer.Frame: records divergence from storage in the
// crash-visible flags word (once; the frame's dirty bit suppresses repeats).
func (f *cxlFrame) MarkDirty() {
	if f.fr.Dirty() {
		return
	}
	f.fr.MarkDirty()
	f.pool.metaStore(f.clk, f.idx, mFlags, flagInUse|flagDirty)
}

// Release implements buffer.Frame. For a write latch this runs the paper's
// publish protocol: flush the page's dirty cache lines to CXL, update the
// metadata LSN, and only then clear the persisted lock word — so a crash at
// any intermediate point still presents a locked (hence redo-rebuilt) page
// to PolarRecv.
func (f *cxlFrame) Release() error {
	if f.released {
		return fmt.Errorf("core: double release of page %d", f.fr.ID())
	}
	f.released = true
	p := f.pool
	if f.mode == buffer.Write {
		if f.wrote {
			// Read the page LSN through the cache (almost certainly hot).
			var b [8]byte
			if err := p.cache.Read(f.clk, p.dataRegion(f.idx), 8, b[:]); err != nil {
				return err
			}
			if err := p.cache.Flush(f.clk, p.dataRegion(f.idx), 0, page.Size); err != nil {
				return err
			}
			if err := p.step("flushed-before-unlock"); err != nil {
				return err
			}
			lsn := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
				uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
			p.metaStore(f.clk, f.idx, mLSN, lsn)
		}
		p.metaStore(f.clk, f.idx, mLock, lockFree)
	}
	f.fr.Unlock(f.mode)
	p.Table().Unpin(f.fr)
	return nil
}
