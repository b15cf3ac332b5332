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
// generic Get / NewPage / GetOrCreate that wrap a latched frametab frame in
// the pool's own Frame type. A pool contributes only its medium — a
// frametab.FrameStore that moves pages (DRAM slab, RDMA remote tier, CXL
// block, shared DBP slot) and that frame type. Pools whose store writes
// pages back itself embed a WritebackPool, which adds the checkpoint walk
// (FlushAll) and the flusher.Target methods. Mode and Stats below are
// aliases of the frametab types so the engine-facing API is unchanged. The
// frame-table shard count is a frametab.Config knob; the sorted-iteration
// rule that keeps fault-sweep replay deterministic is documented in the
// frametab package comment.
//
// Latching: frames carry a page latch for functional mutual exclusion among
// a node's worker goroutines. Latch *wait time* in the performance figures
// is modelled by the closed-network solver (internal/perf), not by
// wall-clock blocking, because simulation time is virtual.
package buffer

import (
	"polarcxlmem/internal/frametab"
	"polarcxlmem/internal/simclock"
)

// Mode is a latch mode (alias of frametab.Mode).
type Mode = frametab.Mode

// Latch modes.
const (
	Read  = frametab.Read
	Write = frametab.Write
)

// Frame is a latched, pinned buffer page. Its accessor methods (ReadAt /
// WriteAt, satisfying page.Accessor) charge the owning medium's costs to
// the clock bound at Get time.
type Frame interface {
	// ReadAt / WriteAt implement page.Accessor over this page's bytes.
	ReadAt(off int, buf []byte) error
	WriteAt(off int, data []byte) error
	// ID reports the page id.
	ID() uint64
	// Release drops the latch and pin. The frame must not be used after.
	Release() error
	// MarkDirty records that the page diverged from its durable image.
	MarkDirty()
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
