package core

import (
	"fmt"
	"sync/atomic"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
)

// block is one CXL block's page image as a visit's page.Accessor. There is
// no local page copy: every access is a load or store against the block's
// data region through the node's CPU cache, which the visit holds, so
// traffic is cache-line granular — the paper's answer to read/write
// amplification. The pool keeps one block per CXL block for its lifetime.
type block struct {
	p     *CXLPool
	idx   int64
	wrote bool // a store landed under the current write latch
}

// inPage reports whether the span [off, off+n) is empty or inside the
// page: the pool region spans every block, so the cache would serve a
// neighbour for a span that leaves it.
func inPage(off, n int) bool { return n == 0 || off >= 0 && off+n <= page.Size }

// outOfPage is the error for a span inPage refuses.
func outOfPage(off, n int, op string) error {
	return fmt.Errorf("core: cached %s [%d,%d) out of page bounds [0,%d)", op, off, off+n, page.Size)
}

// ReadAt implements page.Accessor: a load from CXL through the held cache.
func (b *block) ReadAt(clk *simclock.Clock, off int, buf []byte) error {
	if !inPage(off, len(buf)) {
		return outOfPage(off, len(buf), "read")
	}
	return b.p.cache.ReadHeld(clk, b.p.region, dataOff(b.idx)+int64(off), buf)
}

// WriteAt implements page.Accessor: a store to CXL through the held cache
// (write-back; published by the flush on release).
func (b *block) WriteAt(clk *simclock.Clock, off int, data []byte) error {
	b.wrote = true
	if !inPage(off, len(data)) {
		return outOfPage(off, len(data), "write")
	}
	return b.p.cache.WriteHeld(clk, b.p.region, dataOff(b.idx)+int64(off), data)
}

// Load implements page.Accessor: the cache's word load.
func (b *block) Load(clk *simclock.Clock, off, n int) (uint64, error) {
	if !inPage(off, n) {
		return 0, outOfPage(off, n, "read")
	}
	return b.p.cache.LoadHeld(clk, b.p.region, dataOff(b.idx)+int64(off), n)
}

// Store implements page.Accessor: the cache's word store.
func (b *block) Store(clk *simclock.Clock, off, n int, v uint64) error {
	b.wrote = true
	if !inPage(off, n) {
		return outOfPage(off, n, "write")
	}
	return b.p.cache.StoreHeld(clk, b.p.region, dataOff(b.idx)+int64(off), n, v)
}

// mirror is a fast-tier page image as a read visit's page.Accessor: an
// Image in host DRAM, read at DRAM cost with no CXL traffic at all, whose
// every read counts a fast-tier hit. The mirror is always current under a
// read latch: promotion copies under a read latch, and any write latch
// invalidated the mirror before its first store (see tier.go). A read
// visit's page refuses writes, so the Image's own never run.
type mirror struct {
	*buffer.Image
	hits *atomic.Int64
}

// ReadAt implements page.Accessor.
func (m *mirror) ReadAt(clk *simclock.Clock, off int, buf []byte) error {
	if err := m.Image.ReadAt(clk, off, buf); err != nil {
		return err
	}
	m.hits.Add(1)
	return nil
}

// Load implements page.Accessor.
func (m *mirror) Load(clk *simclock.Clock, off, n int) (uint64, error) {
	v, err := m.Image.Load(clk, off, n)
	if err == nil {
		m.hits.Add(1)
	}
	return v, err
}

// medium is CXLPool's buffer.Medium.
type medium struct{ p *CXLPool }

// Open implements buffer.Medium. A read visit of a page mirrored in the
// fast tier reads the mirror; every other visit holds the CPU cache and
// reaches the block through it. The medium is thus chosen once per visit:
// a promotion that lands mid-visit serves from the next visit on.
func (m medium) Open(f buffer.Frame) page.Accessor {
	p := m.p
	if ft := p.fastP.Load(); ft != nil && f.Mode() == buffer.Read {
		if mr := ft.lookup(f.ID()); mr != nil {
			return mr
		}
	}
	p.cache.Hold()
	return &p.blocks[f.Entry().Slot().(int64)-1]
}

// Close implements buffer.Medium.
func (m medium) Close(f buffer.Frame, a page.Accessor) {
	if _, ok := a.(*block); ok {
		m.p.cache.Unhold()
	}
}

// MarkDirty implements buffer.Medium: records divergence from storage in
// the crash-visible flags word (once; the frame's dirty bit suppresses
// repeats).
func (m medium) MarkDirty(f buffer.Frame) {
	fr := f.Entry()
	if fr.Dirty() {
		return
	}
	fr.MarkDirty()
	m.p.metaStore(f.Clock(), fr.Slot().(int64), mFlags, flagInUse|flagDirty)
}

// Release implements buffer.Medium. For a write latch this runs the
// paper's publish protocol: flush the page's dirty cache lines to CXL,
// update the metadata LSN, and only then clear the persisted lock word — so
// a crash at any intermediate point still presents a locked (hence
// redo-rebuilt) page to PolarRecv.
func (m medium) Release(f buffer.Frame) error {
	p, fr, clk := m.p, f.Entry(), f.Clock()
	idx := fr.Slot().(int64)
	if f.Mode() == buffer.Write {
		if b := &p.blocks[idx-1]; b.wrote {
			b.wrote = false
			// Read the page LSN through the cache (almost certainly hot).
			p.cache.Hold()
			lsn, err := p.cache.LoadHeld(clk, p.region, dataOff(idx)+8, 8)
			p.cache.Unhold()
			if err != nil {
				return err
			}
			if err := p.cache.Flush(clk, p.region, dataOff(idx), page.Size); err != nil {
				return err
			}
			if err := p.step("flushed-before-unlock"); err != nil {
				return err
			}
			p.metaStore(clk, idx, mLSN, lsn)
		}
		p.metaStore(clk, idx, mLock, lockFree)
	}
	fr.Unlock(f.Mode())
	p.Table().Unpin(fr)
	return nil
}
