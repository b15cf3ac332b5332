package wal

import (
	"runtime"
	"sync"
	"sync/atomic"

	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
)

// GroupPolicy tunes batch formation in a GroupCommitter. The zero value
// selects the defaults.
type GroupPolicy struct {
	// MaxBatchBytes closes a batch to new joiners once its encoded record
	// bytes reach this size; zero means DefaultMaxBatchBytes. Large batches
	// trade commit latency for fewer device fsyncs.
	MaxBatchBytes int64
	// MaxWaitNanos bounds the virtual-time window a batch accepts joiners:
	// a committer arriving more than this after the batch opened starts the
	// next batch instead of stretching the current one. Zero means
	// DefaultMaxWaitNanos.
	MaxWaitNanos int64
}

// Group-commit policy defaults: a window twice the device fsync keeps the
// log device under ~50% fsync occupancy even at full batching, and a 256 KB
// batch is far above anything a commit-marker burst produces (the cap
// matters for bulk loads that commit large redo payloads).
const (
	DefaultMaxBatchBytes int64 = 256 << 10
	DefaultMaxWaitNanos  int64 = 50 * simclock.Microsecond
)

// Leader collection loop bounds (wall-clock scheduling, no virtual cost):
// the leader keeps yielding while new joiners keep arriving, and gives up
// after collectQuietRounds consecutive quiet yields or collectMaxRounds
// total. A lone committer exits after collectQuietRounds Goscheds.
const (
	collectQuietRounds = 4
	collectMaxRounds   = 1024
)

// batch is one leader-driven flush group.
type batch struct {
	openedV int64 // leader's arrival (virtual time, leader's clock)
	latestV int64 // latest member arrival seen so far
	bytes   int64 // encoded size of the members' records
	members int
	doneV   int64              // virtual completion time; valid once done is closed
	done    chan struct{}      // closed after the leader's persist completes
	parked  []*simclock.Worker // scheduled followers to wake at doneV
}

// GroupCommitter batches concurrent committers onto shared leader-driven WAL
// flushes. The first committer to find no open batch becomes the leader: it
// opens a batch, queues behind any in-flight persist (flushMu), collects
// joiners, then closes the batch and drives ONE Log.Flush for the whole
// group. Followers piggyback: they append their commit marker, join the open
// batch, and sleep until the leader's flush lands, then advance their clocks
// to the batch's virtual completion time. One device fsync thus covers many
// commits — the classic ARIES / Aurora-lineage group commit the paper's
// log-path latency argument (§2.2) presumes.
//
// In virtual time the leader waits for its latest joiner (the batch window)
// before flushing, so a follower's commit latency is (leader flush completion
// − its own arrival) — observable per commit in the wal.commit_wait_ns
// histogram, with batch sizes in wal.batch_size.
type GroupCommitter struct {
	log *Log
	pol GroupPolicy

	mu  sync.Mutex // guards cur and the fields of the open batch
	cur *batch

	// flushMu serializes leader persists. While one leader's flush is in
	// flight, the next leader queues here and its batch soaks up arrivals —
	// that queueing is where batches come from under load.
	flushMu sync.Mutex

	batches atomic.Int64
	commits atomic.Int64

	// Registry handles, fixed at construction; nil (a no-op) without one.
	batchSize  *obs.Histogram // wal.batch_size: commits per flushed batch
	commitWait *obs.Histogram // wal.commit_wait_ns: durability wait per commit
	batchesC   *obs.Counter   // wal.batches
	commitsC   *obs.Counter   // wal.group_commits
}

// NewGroupCommitter builds a group committer over log. Zero policy fields
// select the defaults. reg (nil for none) receives the committer's metrics
// (wal.batch_size, wal.commit_wait_ns, wal.batches, wal.group_commits).
func NewGroupCommitter(log *Log, pol GroupPolicy, reg *obs.Registry) *GroupCommitter {
	if pol.MaxBatchBytes <= 0 {
		pol.MaxBatchBytes = DefaultMaxBatchBytes
	}
	if pol.MaxWaitNanos <= 0 {
		pol.MaxWaitNanos = DefaultMaxWaitNanos
	}
	return &GroupCommitter{
		log:        log,
		pol:        pol,
		batchSize:  reg.Histogram("wal.batch_size"),
		commitWait: reg.Histogram("wal.commit_wait_ns"),
		batchesC:   reg.Counter("wal.batches"),
		commitsC:   reg.Counter("wal.group_commits"),
	}
}

// Batches reports how many leader flushes have completed.
func (g *GroupCommitter) Batches() int64 { return g.batches.Load() }

// Commits reports how many commits have been made durable.
func (g *GroupCommitter) Commits() int64 { return g.commits.Load() }

// Commit appends rec (a commit marker, typically) and returns its LSN once
// it is durable, either by leading a batch flush or by piggybacking on one.
// Safe for concurrent committers, each with its own clock; single-threaded
// callers see one flush per commit, exactly like Append+Flush, so
// deterministic fault-sweep runs are unaffected by enabling group commit.
//
// Committers that run as workers of a simclock.Sched (clk.Worker() is set)
// form batches by virtual arrival time alone: the leader sleeps until every
// other runnable worker has passed openedV+MaxWaitNanos, so exactly the
// committers arriving inside the window join, and followers park on the
// scheduler instead of blocking. Batch membership then does not depend on
// the OS scheduler. Free goroutines keep the wall-clock collection loop. One
// committer's callers must be all workers of one Sched or all free
// goroutines: a free leader cannot wake a parked worker.
func (g *GroupCommitter) Commit(clk *simclock.Clock, rec Record) uint64 {
	lsn := g.log.Append(rec)
	arrival := clk.Now()
	size := rec.EncodedSize()
	g.commits.Add(1)
	w := clk.Worker()

	g.mu.Lock()
	if b := g.cur; b != nil &&
		arrival-b.openedV <= g.pol.MaxWaitNanos &&
		b.bytes+size <= g.pol.MaxBatchBytes {
		// Follower: the marker is already in the Log buffer (appended above,
		// before joining), so the leader's flush snapshot will include it.
		b.members++
		b.bytes += size
		if arrival > b.latestV {
			b.latestV = arrival
		}
		if w != nil {
			b.parked = append(b.parked, w)
		}
		g.mu.Unlock()
		if w != nil {
			w.Park()
		} else {
			<-b.done
		}
		clk.AdvanceTo(b.doneV)
		g.commitsC.Inc()
		g.commitWait.Observe(b.doneV - arrival)
		return lsn
	}
	b := &batch{openedV: arrival, latestV: arrival, bytes: size, members: 1, done: make(chan struct{})}
	g.cur = b
	g.mu.Unlock()

	if w != nil {
		// Leader under a scheduler: every committer that can still arrive
		// inside the window, its last nanosecond included, runs before this
		// one resumes. No virtual cost.
		w.SleepUntil(b.openedV + g.pol.MaxWaitNanos + 1)
		g.flushMu.Lock()
	} else {
		g.flushMu.Lock()
		g.collect(b)
	}
	// Close the batch; later arrivals lead the next one.
	g.mu.Lock()
	if g.cur == b {
		g.cur = nil
	}
	members, latest := b.members, b.latestV
	g.mu.Unlock()

	// Wait (in virtual time) for the latest joiner, then drive one flush for
	// the whole group. Every member's record was appended before it joined,
	// and joins stopped when the batch closed, so the flush snapshot covers
	// the batch completely.
	clk.AdvanceTo(latest)
	g.log.Flush(clk)
	b.doneV = clk.Now()
	g.flushMu.Unlock()
	g.batches.Add(1)
	g.batchesC.Inc()
	g.commitsC.Inc()
	g.batchSize.Observe(int64(members))
	g.commitWait.Observe(b.doneV - arrival)
	close(b.done)
	for _, p := range b.parked {
		p.Wake(b.doneV)
	}
	return lsn
}

// collect holds a leader's collection window open while joiners keep
// arriving (cooperative yields; no virtual cost — the virtual window is
// bounded by MaxWaitNanos at join time). The caller holds flushMu, so the
// window also soaks up arrivals while a previous persist is in flight.
func (g *GroupCommitter) collect(b *batch) {
	last, quiet := 1, 0
	for spins := 0; quiet < collectQuietRounds && spins < collectMaxRounds; spins++ {
		runtime.Gosched()
		g.mu.Lock()
		m, bytes := b.members, b.bytes
		g.mu.Unlock()
		if bytes >= g.pol.MaxBatchBytes {
			break
		}
		if m == last {
			quiet++
		} else {
			last, quiet = m, 0
		}
	}
}
