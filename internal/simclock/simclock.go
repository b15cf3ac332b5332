// Package simclock provides virtual time for the PolarCXLMem simulator.
//
// Every logical execution context (a database worker thread, a recovery
// scanner, a background recycler) owns a Clock that advances in virtual
// nanoseconds as the context charges the cost of the primitives it executes:
// memory loads, CXL flits, RDMA verbs, storage I/O.  Shared hardware —
// a NIC, a CXL link, a disk — is modelled as a Resource: a queueing server
// with a fixed service rate.  When several clocks charge the same Resource,
// later requests queue behind earlier ones in virtual time, which is what
// produces the saturation behaviour the paper measures (throughput plateaus,
// linearly rising latency past the knee).
//
// Virtual time replaces wall-clock measurement deliberately: the paper's
// hardware (a CXL 2.0 switch, ConnectX-6 NICs, 192-vCPU hosts) is not
// available, and the figures' shapes are queueing phenomena that a calibrated
// model reproduces deterministically.
package simclock

import (
	"fmt"
	"sync"
)

// Common virtual-time unit conversions, all in nanoseconds.
const (
	Nanosecond  int64 = 1
	Microsecond int64 = 1_000
	Millisecond int64 = 1_000_000
	Second      int64 = 1_000_000_000
)

// Clock is the virtual-time position of one logical execution context.
// A Clock is owned by a single goroutine and is not safe for concurrent use;
// shared state lives in Resource.
type Clock struct {
	now int64
	w   *Worker // the Sched worker running on this clock, if any
}

// New returns a Clock positioned at virtual time zero.
func New() *Clock { return &Clock{} }

// NewAt returns a Clock positioned at virtual time t.
func NewAt(t int64) *Clock { return &Clock{now: t} }

// Now reports the clock's current virtual time in nanoseconds.
func (c *Clock) Now() int64 { return c.now }

// Advance moves the clock forward by d nanoseconds. Negative d is ignored:
// virtual time never runs backwards.
func (c *Clock) Advance(d int64) {
	if d > 0 {
		c.now += d
	}
}

// AdvanceTo moves the clock forward to absolute virtual time t if t is in
// the future; otherwise it is a no-op.
func (c *Clock) AdvanceTo(t int64) {
	if t > c.now {
		c.now = t
	}
}

// Worker reports the Sched worker currently running on this clock, or nil
// when the clock's context is a free goroutine.
func (c *Clock) Worker() *Worker { return c.w }

// Seconds reports the clock position as floating-point seconds.
func (c *Clock) Seconds() float64 { return float64(c.now) / float64(Second) }

// ResourceStats is a snapshot of a Resource's accounting counters.
type ResourceStats struct {
	Name       string
	Requests   int64 // number of Use calls
	Units      int64 // total units served (bytes, ops, ...)
	BusyNanos  int64 // total virtual time the server spent serving
	QueueNanos int64 // total virtual time requests spent waiting to start
	LastFree   int64 // virtual time at which the server next becomes free
}

// Throughput reports units served per virtual second over the horizon
// [0, horizon]. For a byte-rated resource this is the observed bandwidth.
func (s ResourceStats) Throughput(horizon int64) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(s.Units) / (float64(horizon) / float64(Second))
}

// Utilization reports the fraction of [0, horizon] the server was busy.
func (s ResourceStats) Utilization(horizon int64) float64 {
	if horizon <= 0 {
		return 0
	}
	u := float64(s.BusyNanos) / float64(horizon)
	if u > 1 {
		u = 1
	}
	return u
}

// Resource is a single-queue, single-server station with a fixed service
// rate, shared by many Clocks. It is safe for concurrent use.
type Resource struct {
	name string
	rate float64 // units per virtual second

	mu       sync.Mutex
	nextFree int64
	stats    ResourceStats
	wait     func(waitNanos int64)
}

// NewResource returns a Resource named name that serves ratePerSec units per
// virtual second. It panics if ratePerSec is not positive, because a
// zero-rate server would deadlock every caller.
func NewResource(name string, ratePerSec float64) *Resource {
	if ratePerSec <= 0 {
		panic(fmt.Sprintf("simclock: resource %q must have positive rate, got %g", name, ratePerSec))
	}
	return &Resource{name: name, rate: ratePerSec, stats: ResourceStats{Name: name}}
}

// Name reports the resource's name.
func (r *Resource) Name() string { return r.name }

// Rate reports the configured service rate in units per virtual second.
func (r *Resource) Rate() float64 { return r.rate }

// ServiceTime reports the uncontended virtual nanoseconds needed to serve
// units.
func (r *Resource) ServiceTime(units int64) int64 {
	return int64(float64(units) / r.rate * float64(Second))
}

// UseAt requests service of units starting no earlier than virtual time now,
// and returns the virtual completion time. If the server is busy, the
// request queues (FIFO in call order).
func (r *Resource) UseAt(now, units int64) int64 {
	if units <= 0 {
		return now
	}
	dur := r.ServiceTime(units)
	r.mu.Lock()
	start := now
	if r.nextFree > start {
		start = r.nextFree
	}
	done := start + dur
	r.nextFree = done
	r.stats.Requests++
	r.stats.Units += units
	r.stats.BusyNanos += dur
	r.stats.QueueNanos += start - now
	r.stats.LastFree = done
	wait := r.wait
	r.mu.Unlock()
	if wait != nil {
		wait(start - now)
	}
	return done
}

// Use charges service of units to clock c, advancing c to the completion
// time (queueing delay included).
func (r *Resource) Use(c *Clock, units int64) {
	c.AdvanceTo(r.UseAt(c.Now(), units))
}

// UseRun charges n requests of units each to clock c, each issued gap
// nanoseconds after the previous one completes: by definition n times
// c.Advance(gap) then Use(c, units), with every counter and the wait
// observer (called n times) as those calls would leave them. It takes the
// lock once, so no other request queues between the run's: only the
// first can wait, since each later one arrives after its predecessor
// completes.
func (r *Resource) UseRun(c *Clock, units int64, n int, gap int64) {
	if n <= 0 {
		return
	}
	gap = max(gap, 0)
	if units <= 0 {
		c.Advance(int64(n) * gap)
		return
	}
	dur := r.ServiceTime(units)
	now := c.now + gap
	r.mu.Lock()
	start := max(now, r.nextFree)
	done := start + dur + int64(n-1)*(gap+dur)
	r.nextFree = done
	r.stats.Requests += int64(n)
	r.stats.Units += int64(n) * units
	r.stats.BusyNanos += int64(n) * dur
	r.stats.QueueNanos += start - now
	r.stats.LastFree = done
	wait := r.wait
	r.mu.Unlock()
	c.AdvanceTo(done)
	if wait != nil {
		wait(start - now)
		for range n - 1 {
			wait(0)
		}
	}
}

// OccupyAt queues a fixed-duration occupancy of the server (a device-side
// fsync, a fixed per-request setup phase) starting no earlier than virtual
// time now, and returns the virtual completion time. It differs from UseAt
// only in that the service time is given directly instead of derived from a
// unit count, and no units are accounted — Stats.Units keeps meaning
// "payload served". Concurrent occupancies serialize FIFO exactly like unit
// service; that is the point: a log device runs one fsync at a time, so
// concurrent per-transaction flushes queue behind each other in virtual time
// even though their payload bytes are tiny.
func (r *Resource) OccupyAt(now, nanos int64) int64 {
	if nanos <= 0 {
		return now
	}
	r.mu.Lock()
	start := now
	if r.nextFree > start {
		start = r.nextFree
	}
	done := start + nanos
	r.nextFree = done
	r.stats.Requests++
	r.stats.BusyNanos += nanos
	r.stats.QueueNanos += start - now
	r.stats.LastFree = done
	wait := r.wait
	r.mu.Unlock()
	if wait != nil {
		wait(start - now)
	}
	return done
}

// Occupy charges a fixed-duration occupancy to clock c, advancing c to the
// completion time (queueing delay included).
func (r *Resource) Occupy(c *Clock, nanos int64) {
	c.AdvanceTo(r.OccupyAt(c.Now(), nanos))
}

// SetWaitObserver installs fn to be called with each request's queueing wait
// (virtual nanoseconds; zero when the server was idle). Install before the
// resource sees traffic. fn runs on the requesting goroutine outside the
// resource's lock and must not call back into the Resource; observability
// sinks (e.g. an obs.Histogram, which is all-atomic) are the intended use.
func (r *Resource) SetWaitObserver(fn func(waitNanos int64)) {
	r.mu.Lock()
	r.wait = fn
	r.mu.Unlock()
}

// Stats returns a snapshot of the resource's counters.
func (r *Resource) Stats() ResourceStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Reset clears the accounting counters and frees the server immediately.
// Use between experiment phases that reuse a topology.
func (r *Resource) Reset() {
	r.mu.Lock()
	r.nextFree = 0
	r.stats = ResourceStats{Name: r.name}
	r.mu.Unlock()
}
