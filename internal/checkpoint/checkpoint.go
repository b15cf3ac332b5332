package checkpoint

import (
	"sync"
	"sync/atomic"

	"polarcxlmem/internal/flusher"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/wal"
)

// Policy tunes the fuzzy checkpointer. The zero value selects the defaults.
type Policy struct {
	// IntervalNanos is the virtual time between checkpoint attempts; zero
	// means DefaultIntervalNanos. This is the recovery-bound knob: after a
	// crash, redo replays at most the records committed since the last
	// published checkpoint, so roughly one interval's worth of work —
	// independent of uptime.
	IntervalNanos int64
	// DirtyWatermark is the resident-dirty-page count the background flusher
	// must have drained the pool below before a checkpoint publishes; zero
	// means DefaultDirtyWatermark. It bounds the checkpointer's own inline
	// writeback: at publish it force-drains the remainder, which is at most
	// this many pages.
	DirtyWatermark int
}

// Policy defaults: five flusher intervals per checkpoint keeps the flusher
// doing the draining, with a small remainder for the checkpointer to mop up.
const (
	DefaultIntervalNanos  = 5 * simclock.Millisecond
	DefaultDirtyWatermark = 16
)

// maxDrainRounds caps the publish-time drain loop. Each round writes up to
// DirtyWatermark+1 pages; the cap only matters when concurrent committers
// re-dirty pages faster than the drain clears them, in which case the
// checkpoint defers to a later tick instead of spinning.
const maxDrainRounds = 64

// Checkpointer publishes fuzzy checkpoints against virtual time. Like the
// flusher there is no goroutine: the engine ticks it from the commit path
// (right after the flusher's tick) and Tick decides, against the caller's
// clock, whether a checkpoint interval has elapsed. Ticks never stack —
// whoever holds the run lock checkpoints, everyone else returns immediately.
//
// The published LSN is safe for a FUZZY checkpoint — no quiescing — because
// it is capped at min(durable LSN, oldest open unit's first LSN − 1) at
// capture time: every record at or below it belongs to a unit whose commit
// marker is already durable, and the page images carrying those records'
// effects are force-drained to storage before the record seals. Records
// appended later necessarily get higher LSNs, and redo application is
// LSN-gated per page, so storage images running ahead of the checkpoint are
// harmless.
type Checkpointer struct {
	area *Area
	tgt  flusher.Target
	log  *wal.Log
	pol  Policy

	mu      sync.Mutex // held across one attempt; TryLock in Tick
	nextDue int64      // virtual deadline for the next attempt (guarded by mu)

	published atomic.Int64
	deferred  atomic.Int64

	obsP atomic.Pointer[cpObs]
}

// cpObs carries the checkpointer's registry handles.
type cpObs struct {
	publishedC *obs.Counter   // checkpoint.published
	deferredC  *obs.Counter   // checkpoint.deferred
	lsnG       *obs.Gauge     // checkpoint.lsn
	truncG     *obs.Gauge     // checkpoint.truncated_lsn
	drainH     *obs.Histogram // checkpoint.drain_pages: inline pages per publish
}

// New builds a checkpointer publishing to area, draining tgt, and
// truncating log. Zero policy fields select the defaults.
func New(area *Area, tgt flusher.Target, log *wal.Log, pol Policy) *Checkpointer {
	if pol.IntervalNanos <= 0 {
		pol.IntervalNanos = DefaultIntervalNanos
	}
	if pol.DirtyWatermark <= 0 {
		pol.DirtyWatermark = DefaultDirtyWatermark
	}
	return &Checkpointer{area: area, tgt: tgt, log: log, pol: pol}
}

// Area exposes the durable record (recovery rigs reattach it).
func (c *Checkpointer) Area() *Area { return c.area }

// Published reports how many checkpoints have been published.
func (c *Checkpointer) Published() int64 { return c.published.Load() }

// Deferred reports how many due attempts were postponed (dirty backlog
// above the watermark, or drain churn under concurrency).
func (c *Checkpointer) Deferred() int64 { return c.deferred.Load() }

// SetObserver registers the checkpointer's metrics (checkpoint.published,
// checkpoint.deferred counters; checkpoint.lsn, checkpoint.truncated_lsn
// gauges; checkpoint.drain_pages histogram) with reg; nil detaches.
func (c *Checkpointer) SetObserver(reg *obs.Registry) {
	if reg == nil {
		c.obsP.Store(nil)
		return
	}
	c.obsP.Store(&cpObs{
		publishedC: reg.Counter("checkpoint.published"),
		deferredC:  reg.Counter("checkpoint.deferred"),
		lsnG:       reg.Gauge("checkpoint.lsn"),
		truncG:     reg.Gauge("checkpoint.truncated_lsn"),
		drainH:     reg.Histogram("checkpoint.drain_pages"),
	})
}

// defer1 counts one postponed attempt. The deadline is NOT advanced: the
// attempt stays due and retries on the next tick, so a temporarily deep
// backlog delays the checkpoint instead of skipping a whole interval.
func (c *Checkpointer) defer1() {
	c.deferred.Add(1)
	if o := c.obsP.Load(); o != nil {
		o.deferredC.Inc()
	}
}

// Tick runs one checkpoint attempt if the interval has elapsed on clk and
// no other caller is mid-attempt. Like the flusher, the "daemon" borrows
// the ticking worker's timeline for its inline drain and the record stores.
// Returns any writeback or CXL store error so the commit path surfaces
// injected crashes.
func (c *Checkpointer) Tick(clk *simclock.Clock) error {
	if !c.mu.TryLock() {
		return nil // a concurrent tick is already checkpointing
	}
	defer c.mu.Unlock()
	if clk.Now() < c.nextDue {
		return nil
	}
	// Watermark gate: the background flusher owns steady-state draining;
	// publish only once it has the backlog below the watermark, so the
	// inline remainder stays small.
	if c.tgt.DirtyResident() > c.pol.DirtyWatermark {
		c.defer1()
		return nil
	}
	st := c.log.Store()
	// Capture the candidate BEFORE draining. Undo safety: no unit open at
	// capture has records at or below it, and units that open later log
	// above the durable tail, hence above it too.
	candidate := st.DurableLSN()
	if first, ok := st.OldestOpenLSN(); ok && first-1 < candidate {
		candidate = first - 1
	}
	prev := c.area.LSN()
	if candidate <= prev {
		// No durable progress since the last checkpoint; nothing to bound.
		c.nextDue = clk.Now() + c.pol.IntervalNanos
		return nil
	}
	// Drain every page that was dirty at capture: their images carry the
	// committed effects of records <= candidate. Each FlushBatch writes the
	// CURRENT image, so one writeback per page suffices even if the page is
	// re-dirtied immediately after.
	drained := 0
	for rounds := 0; c.tgt.DirtyResident() > 0 && rounds < maxDrainRounds; rounds++ {
		n, err := c.tgt.FlushBatch(clk, c.pol.DirtyWatermark+1)
		if err != nil {
			return err
		}
		if n == 0 {
			break // remaining dirty pages are pinned/latched right now
		}
		drained += n
	}
	if c.tgt.DirtyResident() > 0 {
		c.defer1() // churn or pins kept the pool dirty; retry next tick
		return nil
	}
	// Publish with the WAL truncation BETWEEN the record body and the
	// checksum flip: the log drops only history below the PREVIOUS
	// checkpoint, so whichever record a crash leaves in force still has its
	// full redo tail.
	if err := c.area.Publish(clk, candidate, func() error {
		if prev > 0 {
			c.log.TruncateBefore(prev + 1)
		}
		return nil
	}); err != nil {
		return err
	}
	c.nextDue = clk.Now() + c.pol.IntervalNanos
	c.published.Add(1)
	if o := c.obsP.Load(); o != nil {
		o.publishedC.Inc()
		o.lsnG.Set(int64(candidate))
		o.truncG.Set(int64(c.log.Store().TruncatedBefore()))
		o.drainH.Observe(int64(drained))
	}
	return nil
}
