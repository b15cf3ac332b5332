// Package buffer defines the buffer-pool abstraction the transaction engine
// runs on, and implements the two baseline pools:
//
//   - DRAMPool: the conventional local buffer pool (the paper's DRAM-BP).
//   - TieredPool: the RDMA-based disaggregated design used by LegoBase /
//     PolarDB Serverless — a local buffer pool (LBP) sized as a fraction of
//     the dataset in front of a remote memory pool, moving whole 16 KB pages
//     over RDMA on every miss and dirty eviction. This page-granular motion
//     is the read/write amplification the paper measures (§2.2).
//
// PolarCXLMem's pool (no tiering, everything directly on CXL) lives in
// internal/core and satisfies the same Pool interface, so the identical
// B+tree and transaction engine run on all three.
//
// Every pool in the repo embeds one TablePool (tablepool.go): the frametab
// table, page-id source, flush barrier and observer registration, and the
// generic Get / NewPage / GetOrCreate that hand out a Frame — a value
// handle on a latched frametab frame that nothing allocates. A pool
// contributes only its medium: a frametab.FrameStore that moves pages (DRAM
// slab, RDMA remote tier, CXL block, shared DBP slot) and a Medium that
// gives a page visit those bytes and runs the pool's release protocol.
// Pools whose slots are local page Images (DRAM, tiered, RDMA-shared) share
// the Image accessor. Pools whose store writes pages back itself embed a
// WritebackPool, which adds the checkpoint walk (FlushAll) and the
// flusher.Target methods. Mode and Stats below are aliases of the frametab
// types so the engine-facing API is unchanged. The frame-table shard count
// is a frametab.Config knob; the sorted-iteration rule that keeps
// fault-sweep replay deterministic is documented in the frametab package
// comment.
//
// Page access: Visit is the only way to a frame's bytes. It hands fn a
// page.Page for one visit; the B+tree, mini-transactions and recovery redo
// all run their page operations inside visits, and page.Wrap is called
// nowhere else.
//
// Latching: frames carry a page latch for functional mutual exclusion among
// a node's worker goroutines. Latch *wait time* in the performance figures
// is modelled by the closed-network solver (internal/perf), not by
// wall-clock blocking, because simulation time is virtual.
package buffer

import (
	"fmt"

	"polarcxlmem/internal/frametab"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
)

// Mode is a latch mode (alias of frametab.Mode).
type Mode = frametab.Mode

// Latch modes.
const (
	Read  = frametab.Read
	Write = frametab.Write
)

// Frame is a latched, pinned buffer page: a small value handle holding the
// pool's medium, the frame-table frame, the worker clock its visits charge
// and the latch mode. Get, NewPage and GetOrCreate return it by value, and
// nothing allocates it. Visit is the only way to its page's bytes.
type Frame struct {
	m    Medium
	fr   *frametab.Frame
	clk  *simclock.Clock
	mode Mode
}

// Medium is what a pool contributes to the frames it hands out: where a
// visit finds the page's bytes, and what MarkDirty and Release do in the
// pool's medium. Visit calls Open and Close around each visit; Release
// runs once the handle's bookkeeping has accepted the release.
type Medium interface {
	// Open starts a visit of f and returns the accessor its page calls
	// use. It chooses the medium once per visit.
	Open(f Frame) page.Accessor
	// Close ends the visit Open started with a.
	Close(f Frame, a page.Accessor)
	// MarkDirty records that f's page diverged from its durable image.
	MarkDirty(f Frame)
	// Release runs the medium's release protocol and drops f's latch and
	// pin.
	Release(f Frame) error
}

// Handle misuse is reported with these errors (test with errors.Is).
var (
	// ErrReleased: a Release or Visit of a frame already released.
	ErrReleased = frametab.ErrReleased
	// ErrInVisit: a Release from inside a Visit of the frame.
	ErrInVisit = frametab.ErrInVisit
	// ErrReadLatch: a write to a page visited under a read latch.
	ErrReadLatch = page.ErrReadOnly
)

// NewFrame hands out a handle on fr, latched in mode and pinned, whose
// visits charge clk. Pools call it from Get, NewPage and GetOrCreate.
func NewFrame(m Medium, fr *frametab.Frame, clk *simclock.Clock, mode Mode) Frame {
	fr.Handed()
	return Frame{m: m, fr: fr, clk: clk, mode: mode}
}

// ID reports the page id.
func (f Frame) ID() uint64 { return f.fr.ID() }

// Entry reports the frame-table frame the handle holds: nil for the zero
// Frame and after a Release through this variable.
func (f Frame) Entry() *frametab.Frame { return f.fr }

// Clock reports the clock the frame's visits charge.
func (f Frame) Clock() *simclock.Clock { return f.clk }

// Mode reports the latch mode.
func (f Frame) Mode() Mode { return f.mode }

// MarkDirty records that the page diverged from its durable image.
func (f Frame) MarkDirty() { f.m.MarkDirty(f) }

// Release drops the latch and pin and zeroes f. Neither f nor any copy of
// it may be used after; a second Release, or a Release from inside a Visit
// of the frame, fails with ErrReleased or ErrInVisit and releases nothing.
func (f *Frame) Release() error {
	h := *f
	if h.fr == nil {
		return fmt.Errorf("buffer: release: %w", ErrReleased)
	}
	if err := h.fr.Unhand(); err != nil {
		return fmt.Errorf("buffer: release of page %d: %w", h.fr.ID(), err)
	}
	*f = Frame{}
	return h.m.Release(h)
}

// Visit runs fn over f's page in one visit: the medium is chosen once, and
// a pool whose pages sit behind a CPU cache holds the cache for the whole
// visit, so its accesses take the cache's lock once between them. Every
// access costs the same however the visits are cut. A page visited under a
// read latch refuses writes with ErrReadLatch.
//
// The rule: inside a visit, run only page calls on that one page. Never a
// Get, Release, latch, log or table call, and never a visit of another
// frame — the visit may own the node's CPU-cache lock, which those can
// take or wait behind.
func Visit(f Frame, fn func(page.Page) error) error {
	if f.fr == nil {
		return fmt.Errorf("buffer: visit: %w", ErrReleased)
	}
	if err := f.fr.EnterVisit(); err != nil {
		return fmt.Errorf("buffer: visit of page %d: %w", f.fr.ID(), err)
	}
	defer f.fr.ExitVisit()
	a := f.m.Open(f)
	defer f.m.Close(f, a)
	return fn(page.Wrap(a, f.clk, f.mode == Write))
}

// FlushBarrier runs before a dirty page image is written to storage; the
// engine installs one that forces the WAL durable up to the page's LSN
// (write-ahead rule).
type FlushBarrier func(clk *simclock.Clock, pageLSN uint64)

// Stats counts pool events (alias of frametab.Stats; pools maintain the
// live counters with sync/atomic adds so a Stats() snapshot can never tear).
type Stats = frametab.Stats

// Pool is a buffer pool.
type Pool interface {
	// Get latches page id in mode and returns its frame; the frame's
	// accessors charge clk.
	Get(clk *simclock.Clock, id uint64, mode Mode) (Frame, error)
	// NewPage allocates a fresh page id and returns its write-latched,
	// zeroed frame.
	NewPage(clk *simclock.Clock) (Frame, error)
	// FlushAll writes every dirty page to storage (checkpoint support).
	FlushAll(clk *simclock.Clock) error
	// SetFlushBarrier installs the write-ahead-logging barrier.
	SetFlushBarrier(fb FlushBarrier)
	// Stats snapshots the pool counters.
	Stats() Stats
	// Resident reports how many pages the pool currently holds locally
	// (memory-overhead accounting for the cost comparisons).
	Resident() int
}

// Creator is the optional pool capability recovery relies on: GetOrCreate
// write-latches a page, materializing a zeroed frame when the page has no
// durable image yet (recovery redo of pages created after the last
// checkpoint: their PageInit record is in the log, not on storage).
type Creator interface {
	Pool
	GetOrCreate(clk *simclock.Clock, id uint64) (Frame, error)
}

var (
	_ Creator = (*DRAMPool)(nil)
	_ Creator = (*TieredPool)(nil)
)
