// Package flusher is the background dirty-page writeback daemon.
//
// Inline eviction writes put storage latency on the transaction's critical
// path: a committer that needs a free frame pays a full page write before it
// can make progress, and between checkpoints the dirty set — and with it the
// redo fraction PolarRecv must replay after a crash (§3.2) — grows without
// bound. The flusher trickles dirty pages back to durable storage from the
// background instead, sized adaptively: the more redo bytes the WAL has
// accumulated past the last checkpoint, the larger each writeback batch, so
// recovery time stays bounded without over-flushing a lightly-loaded engine.
//
// There is no goroutine. The simulator's time is virtual, so a wall-clock
// timer would be meaningless; instead the engine calls Tick from its commit
// path and Tick decides — against the caller's virtual clock — whether a
// flush interval has elapsed. This keeps single-threaded instrumented runs
// deterministic (the fault-sweep harness replays the identical operation
// sequence) while still modeling "a daemon that runs every interval".
package flusher

import (
	"sync"
	"sync/atomic"

	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
)

// Target is the pool-side surface the flusher drives; every frametab-backed
// pool whose store implements frametab.WritebackStore satisfies it.
type Target interface {
	// FlushBatch writes back up to max dirty pages, returning how many.
	FlushBatch(clk *simclock.Clock, max int) (int, error)
	// DirtyResident counts resident dirty pages (backlog signal).
	DirtyResident() int
}

// Policy tunes the flusher. The zero value selects the defaults.
type Policy struct {
	// IntervalNanos is the virtual time between flush runs; zero means
	// DefaultIntervalNanos.
	IntervalNanos int64
	// MinBatch / MaxBatch bound the pages written per run; the actual batch
	// interpolates between them by the redo-bytes fill fraction. Zero means
	// DefaultMinBatch / DefaultMaxBatch.
	MinBatch int
	MaxBatch int
	// RedoBudgetBytes is the redo-log backlog at which the flusher runs at
	// MaxBatch; zero means DefaultRedoBudgetBytes. This is the knob that ties
	// flushing to recovery time: PolarRecv replays the redo tail past the
	// last checkpoint, so capping the tail caps the replay.
	RedoBudgetBytes int64
}

// Policy defaults: a 1 ms cadence with small batches keeps the dirty set
// near-flat under the bench workloads while staying invisible in per-commit
// latency.
const (
	DefaultIntervalNanos   = simclock.Millisecond
	DefaultMinBatch        = 4
	DefaultMaxBatch        = 64
	DefaultRedoBudgetBytes = 1 << 20
)

// Flusher schedules adaptive dirty-page writeback against virtual time.
// Tick is safe for concurrent callers (each with its own clock); overlapping
// ticks do not stack — whoever holds the run lock flushes, everyone else
// returns immediately.
type Flusher struct {
	tgt  Target
	pol  Policy
	redo func() int64 // redo bytes past the last checkpoint

	mu      sync.Mutex // held across one flush run; TryLock in Tick
	nextDue int64      // virtual deadline for the next run (guarded by mu)

	runs  atomic.Int64
	pages atomic.Int64

	// Registry handles, fixed at construction; nil (a no-op) without one.
	runsC      *obs.Counter   // flush.runs
	pagesC     *obs.Counter   // flush.pages
	batchPages *obs.Histogram // flush.batch_pages: pages per run
	redoBytes  *obs.Gauge     // flush.redo_bytes: backlog at each run
}

// New builds a flusher over tgt. redoBytes reports the redo-log backlog the
// batch size adapts to (pass the engine's bytes-past-checkpoint reader);
// nil means "no signal", which pins every batch at Policy.MinBatch. Zero
// policy fields select the defaults. reg (nil for none) receives the
// flusher's metrics (flush.runs, flush.pages, flush.batch_pages,
// flush.redo_bytes).
func New(tgt Target, pol Policy, redoBytes func() int64, reg *obs.Registry) *Flusher {
	if pol.IntervalNanos <= 0 {
		pol.IntervalNanos = DefaultIntervalNanos
	}
	if pol.MinBatch <= 0 {
		pol.MinBatch = DefaultMinBatch
	}
	if pol.MaxBatch < pol.MinBatch {
		pol.MaxBatch = DefaultMaxBatch
		if pol.MaxBatch < pol.MinBatch {
			pol.MaxBatch = pol.MinBatch
		}
	}
	if pol.RedoBudgetBytes <= 0 {
		pol.RedoBudgetBytes = DefaultRedoBudgetBytes
	}
	return &Flusher{
		tgt:        tgt,
		pol:        pol,
		redo:       redoBytes,
		runsC:      reg.Counter("flush.runs"),
		pagesC:     reg.Counter("flush.pages"),
		batchPages: reg.Histogram("flush.batch_pages"),
		redoBytes:  reg.Gauge("flush.redo_bytes"),
	}
}

// Runs reports how many flush runs have executed.
func (f *Flusher) Runs() int64 { return f.runs.Load() }

// PagesFlushed reports the total pages written back.
func (f *Flusher) PagesFlushed() int64 { return f.pages.Load() }

// batchFor sizes a run: linear interpolation from MinBatch at zero backlog
// to MaxBatch at RedoBudgetBytes (and beyond).
func (f *Flusher) batchFor(redoBytes int64) int {
	if redoBytes <= 0 {
		return f.pol.MinBatch
	}
	if redoBytes >= f.pol.RedoBudgetBytes {
		return f.pol.MaxBatch
	}
	span := int64(f.pol.MaxBatch - f.pol.MinBatch)
	return f.pol.MinBatch + int(span*redoBytes/f.pol.RedoBudgetBytes)
}

// Tick runs one flush cycle if the interval has elapsed on clk and no other
// caller is mid-run. It charges the writeback I/O to clk — in virtual time
// the "daemon" borrows the ticking worker's timeline, which models stolen
// background cycles without a scheduler. Returns the Writeback error, if
// any, so the commit path surfaces injected crashes.
func (f *Flusher) Tick(clk *simclock.Clock) error {
	if !f.mu.TryLock() {
		return nil // a concurrent tick is already flushing
	}
	defer f.mu.Unlock()
	if clk.Now() < f.nextDue {
		return nil
	}
	var backlog int64
	if f.redo != nil {
		backlog = f.redo()
	}
	max := f.batchFor(backlog)
	n, err := f.tgt.FlushBatch(clk, max)
	f.nextDue = clk.Now() + f.pol.IntervalNanos
	f.runs.Add(1)
	f.pages.Add(int64(n))
	f.runsC.Inc()
	f.pagesC.Add(int64(n))
	f.batchPages.Observe(int64(n))
	f.redoBytes.Set(backlog)
	return err
}
