// Package obs is the runtime observability layer: a race-safe metrics
// registry (counters, gauges, virtual-time histograms) plus a structured
// trace-event stream with pluggable invariant checkers.
//
// The package sits at the very bottom of the repo's layering — it imports
// only the standard library — so every simulation substrate (simmem, simcpu,
// simnet, cxl, frametab, sharing, recovery) can emit into one registry
// without import cycles. Instrumented code pays nothing when no registry is
// installed: every metric handle and the registry itself are nil-safe, so
// hot paths call Add/Observe/Emit unconditionally.
//
// Two consumers read the event stream:
//
//   - invariant checkers (checkers.go) receive EVERY event synchronously at
//     Emit time, so their verdicts never depend on sampling;
//   - the bounded trace ring (ring.go) records a seeded deterministic sample
//     for post-run dumps (--trace), keeping memory constant on long runs.
//
// Metric values are virtual-time quantities (nanoseconds off a
// simclock.Clock) or event counts; the registry itself never looks at wall
// clocks, so snapshots are deterministic for a deterministic workload.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The nil Counter is a
// valid no-op handle.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d. No-op on a nil handle.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one. No-op on a nil handle.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter. Zero on a nil handle.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins instantaneous quantity. The nil Gauge is a
// valid no-op handle.
type Gauge struct {
	v atomic.Int64
}

// Set records the gauge value. No-op on a nil handle.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by d. No-op on a nil handle.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value reads the gauge. Zero on a nil handle.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Options configures a Registry.
type Options struct {
	// RingCapacity bounds the trace ring (default 4096 events).
	RingCapacity int
	// SampleEvery keeps roughly one in SampleEvery events in the ring
	// (<= 1 keeps every event). Checkers always see every event.
	SampleEvery int64
	// SampleSeed seeds the deterministic sampling decision, so two runs of
	// the same workload record the same event subset.
	SampleSeed int64
}

// Registry is the root of the observability layer. All methods are safe for
// concurrent use, and every method is a no-op on a nil *Registry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// emitMu serializes the event stream: checkers see a totally ordered
	// event sequence even when several simulated hosts emit concurrently.
	emitMu   sync.Mutex
	seq      uint64
	checkers []Checker
	ring     *ring
	sample   int64
	seed     uint64
}

// New builds a registry. The zero Options give a 4096-event unsampled ring.
func New(opts Options) *Registry {
	cap := opts.RingCapacity
	if cap <= 0 {
		cap = 4096
	}
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		ring:     newRing(cap),
		sample:   opts.SampleEvery,
		seed:     uint64(opts.SampleSeed),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a valid no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// AddChecker attaches an invariant checker to the event stream. Attach
// checkers before the instrumented workload runs: a checker only judges
// events emitted after it was added.
func (r *Registry) AddChecker(c Checker) {
	if r == nil {
		return
	}
	r.emitMu.Lock()
	r.checkers = append(r.checkers, c)
	r.emitMu.Unlock()
}

// Emit publishes one trace event: every attached checker consumes it
// synchronously, then the ring records it subject to sampling. No-op on a
// nil registry.
func (r *Registry) Emit(vnanos int64, typ, actor string, page uint64, aux int64) {
	if r == nil {
		return
	}
	r.emitMu.Lock()
	r.seq++
	ev := Event{Seq: r.seq, VNanos: vnanos, Type: typ, Actor: actor, Page: page, Aux: aux}
	for _, c := range r.checkers {
		c.OnEvent(ev)
	}
	if r.sample <= 1 || mix64(r.seed^ev.Seq)%uint64(r.sample) == 0 {
		r.ring.record(ev)
	}
	r.emitMu.Unlock()
}

// Events returns the ring's sampled events, oldest first.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	r.emitMu.Lock()
	defer r.emitMu.Unlock()
	return r.ring.events()
}

// Violations collects the live violations of every attached checker without
// running their end-of-run leak analysis.
func (r *Registry) Violations() []Violation {
	if r == nil {
		return nil
	}
	r.emitMu.Lock()
	defer r.emitMu.Unlock()
	var out []Violation
	for _, c := range r.checkers {
		out = append(out, c.Violations()...)
	}
	return out
}

// Finish runs every checker's end-of-run analysis (leak detection) and
// returns all violations, live and terminal. Call once, after the workload.
func (r *Registry) Finish() []Violation {
	if r == nil {
		return nil
	}
	r.emitMu.Lock()
	defer r.emitMu.Unlock()
	var out []Violation
	for _, c := range r.checkers {
		out = append(out, c.Finish()...)
	}
	return out
}

// HistSnapshot is one histogram's summary in a Snapshot.
type HistSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
}

// Snapshot is a point-in-time copy of every metric, JSON-encodable.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
	Violations []Violation             `json:"violations,omitempty"`
}

// Snapshot copies every registered metric plus the checkers' live
// violations. Counters touched concurrently may be mid-update; each value is
// individually consistent.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	r.mu.Unlock()
	s.Violations = r.Violations()
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteTrace writes the sampled events as JSON lines, oldest first.
func (r *Registry) WriteTrace(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range r.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// mix64 is a splitmix64 finalizer: the deterministic sampling hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
