package core

import (
	"encoding/binary"
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
	held     bool // the CPU cache is held for this frame's accesses
}

// ID implements buffer.Frame.
func (f *cxlFrame) ID() uint64 { return f.fr.ID() }

// Hold implements buffer.Frame: it holds the CPU cache, so the accesses
// until Unhold take its lock once between them. A read-latched frame of a
// page mirrored in the fast tier refuses the hold, and its reads keep going
// to the mirror one by one. The medium is thus chosen once per visit: a
// promotion that lands mid-visit serves from the next visit on. Holds do
// not nest: a Hold of a held frame does nothing, and the first Unhold
// ends the hold.
func (f *cxlFrame) Hold() {
	if f.released || f.held {
		return
	}
	if ft := f.pool.fastP.Load(); ft != nil && f.mode == buffer.Read && ft.contains(f.fr.ID()) {
		return
	}
	f.pool.cache.Hold()
	f.held = true
}

// Unhold implements buffer.Frame.
func (f *cxlFrame) Unhold() {
	if f.held {
		f.held = false
		f.pool.cache.Unhold()
	}
}

// ReadAt implements page.Accessor: a load from CXL through the CPU cache —
// unless the page is promoted into the fast tier, in which case the read is
// served from the host-DRAM mirror at DRAM cost with no CXL traffic at all.
// The mirror is always current under this frame's latch: promotion copies
// under a read latch, and any write latch invalidated the mirror before its
// first store (see tier.go). The page-bounds check runs first: the mirror
// is a bare page image, and a span past its end must fail, not panic.
func (f *cxlFrame) ReadAt(off int, buf []byte) error {
	if f.released {
		return fmt.Errorf("core: read on released frame of page %d", f.fr.ID())
	}
	at, err := pageSpan(f.idx, off, len(buf), "read")
	if err != nil {
		return err
	}
	if f.held {
		return f.pool.cache.ReadHeld(f.clk, f.pool.region, at, buf)
	}
	if ft := f.pool.fastP.Load(); ft != nil && f.mode == buffer.Read {
		if ft.lookupCopy(f.clk, f.fr.ID(), off, buf) {
			return nil
		}
	}
	return f.pool.cache.Read(f.clk, f.pool.region, at, buf)
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
	at, err := pageSpan(f.idx, off, len(data), "write")
	if err != nil {
		return err
	}
	if f.held {
		return f.pool.cache.WriteHeld(f.clk, f.pool.region, at, data)
	}
	return f.pool.cache.Write(f.clk, f.pool.region, at, data)
}

// Load implements page.Accessor: a ReadAt of n bytes into a stack word, or,
// while held, the cache's word load of the same span.
func (f *cxlFrame) Load(off, n int) (uint64, error) {
	if f.held {
		at, err := pageSpan(f.idx, off, n, "read")
		if err != nil {
			return 0, err
		}
		return f.pool.cache.LoadHeld(f.clk, f.pool.region, at, n)
	}
	var w [8]byte
	if err := f.ReadAt(off, w[:n]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(w[:]), nil
}

// Store implements page.Accessor: a WriteAt of v's low n bytes, or, while
// held, the cache's word store of the same span.
func (f *cxlFrame) Store(off, n int, v uint64) error {
	if f.held {
		if f.mode != buffer.Write {
			return fmt.Errorf("core: write to page %d under a read latch", f.fr.ID())
		}
		f.wrote = true
		at, err := pageSpan(f.idx, off, n, "write")
		if err != nil {
			return err
		}
		return f.pool.cache.StoreHeld(f.clk, f.pool.region, at, n, v)
	}
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	return f.WriteAt(off, w[:n])
}

// pageSpan returns the pool-region offset of [off, off+n) of block idx's
// page image, or an error if a non-empty span leaves the page.
func pageSpan(idx int64, off, n int, op string) (int64, error) {
	if n > 0 && (off < 0 || off+n > page.Size) {
		return 0, fmt.Errorf("core: cached %s [%d,%d) out of page bounds [0,%d)", op, off, off+n, page.Size)
	}
	return dataOff(idx) + int64(off), nil
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
	if f.held {
		return fmt.Errorf("core: release of page %d while it is held", f.fr.ID())
	}
	f.released = true
	p := f.pool
	if f.mode == buffer.Write {
		if f.wrote {
			// Read the page LSN through the cache (almost certainly hot).
			var b [8]byte
			if err := p.cache.Read(f.clk, p.region, dataOff(f.idx)+8, b[:]); err != nil {
				return err
			}
			if err := p.cache.Flush(f.clk, p.region, dataOff(f.idx), page.Size); err != nil {
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
