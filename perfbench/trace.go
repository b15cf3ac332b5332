package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/obs"
)

// span is one traced interval on both clocks.
type span struct {
	name   string
	parent int   // index of the causing span, -1 for a root
	req    int64 // request (or transaction) id, 0 for a batch
	w0, w1 int64 // wall nanos since the tracer started
	v0, v1 int64 // virtual nanos
}

// tracer records spans in memory. Every method is a no-op on a nil tracer,
// so the untraced pass runs the same code without recording.
type tracer struct {
	t0      time.Time
	spans   []span
	current int           // the open dataplane.step span, or -1
	opSpan  map[int64]int // request id -> its dataplane.op span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), current: -1, opSpan: make(map[int64]int)}
}

// begin opens a span at virtual time v0 and returns its index.
func (t *tracer) begin(name string, parent int, req int64, v0 int64) int {
	if t == nil {
		return -1
	}
	w := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, w0: w, w1: w, v0: v0, v1: v0})
	return len(t.spans) - 1
}

// end closes span i at virtual time v1.
func (t *tracer) end(i int, v1 int64) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].w1 = time.Since(t.t0).Nanoseconds()
	t.spans[i].v1 = v1
}

// opOf is the dataplane.op span of request id, or -1.
func (t *tracer) opOf(id int64) int {
	if t == nil {
		return -1
	}
	if i, ok := t.opSpan[id]; ok {
		return i
	}
	return -1
}

// spanAgg sums one span name's durations and self times.
type spanAgg struct {
	n                  int64
	wall, virt         int64
	selfWall, selfVirt int64
}

// aggregate sums durations per span name. A span's self time is its
// duration minus its children's.
func (t *tracer) aggregate() map[string]*spanAgg {
	childW := make([]int64, len(t.spans))
	childV := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childW[s.parent] += s.w1 - s.w0
			childV[s.parent] += s.v1 - s.v0
		}
	}
	out := make(map[string]*spanAgg)
	for i, s := range t.spans {
		a := out[s.name]
		if a == nil {
			a = &spanAgg{}
			out[s.name] = a
		}
		a.n++
		a.wall += s.w1 - s.w0
		a.virt += s.v1 - s.v0
		a.selfWall += s.w1 - s.w0 - childW[i]
		a.selfVirt += s.v1 - s.v0 - childV[i]
	}
	return out
}

// write stores the spans as gzipped CSV, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id,name,parent,req,wall_start_ns,wall_end_ns,v_start_ns,v_end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d,%d,%d\n", i, s.name, s.parent, s.req, s.w0, s.w1, s.v0, s.v1)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counter is a fault.Injector that lets every operation through and counts
// the instrumented points it sees, per operation.
type counter struct {
	mu sync.Mutex
	n  map[fault.Op]int64
}

func newCounter() *counter { return &counter{n: make(map[fault.Op]int64)} }

// Point implements fault.Injector.
func (c *counter) Point(op fault.Op, bytes int64) error {
	c.mu.Lock()
	c.n[op]++
	c.mu.Unlock()
	return nil
}

func (c *counter) count(op fault.Op) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[op]
}

// observed is the traced pass's instrumentation: a registry with the
// default checkers armed, a counting injector, and the span tracer.
type observed struct {
	reg *obs.Registry
	inj *counter
	tr  *tracer
}

func newObserved() *observed {
	reg := obs.New(obs.Options{})
	for _, c := range obs.DefaultCheckers() {
		reg.AddChecker(c)
	}
	return &observed{reg: reg, inj: newCounter(), tr: newTracer()}
}

// violations closes the checkers and reports what they found.
func (o *observed) violations() error {
	if v := o.reg.Finish(); len(v) > 0 {
		return fmt.Errorf("%d checker violations, first: %+v", len(v), v[0])
	}
	return nil
}

// counts is a snapshot of named layer counters.
type counts map[string]float64

// regCounts reads the registry's counters and histogram sums and counts.
func regCounts(reg *obs.Registry, into counts) {
	s := reg.Snapshot()
	for k, v := range s.Counters {
		into[k] = float64(v)
	}
	for k, h := range s.Histograms {
		into[k+".sum"] = float64(h.Sum)
		into[k+".count"] = float64(h.Count)
	}
}

// ledger accumulates counter deltas over the measured intervals only, so
// set-up, crash, recovery and oracle reads are left out, and counters that
// restart with a recovered instance are summed across incarnations.
type ledger struct {
	snap  func() counts
	open  counts
	total counts
}

func newLedger(snap func() counts) *ledger { return &ledger{snap: snap, total: counts{}} }

// start opens a measured interval.
func (l *ledger) start() {
	if l != nil {
		l.open = l.snap()
	}
}

// stop closes the interval and adds its deltas.
func (l *ledger) stop() {
	if l == nil || l.open == nil {
		return
	}
	for k, v := range l.snap() {
		l.total[k] += v - l.open[k]
	}
	l.open = nil
}

// per divides a counter total by n (0 when n is 0).
func (c counts) per(k string, n float64) float64 {
	if n == 0 {
		return 0
	}
	return c[k] / n
}

// ratio is a/(a+b) of two counter totals.
func (c counts) ratio(a, b string) float64 {
	if c[a]+c[b] == 0 {
		return 0
	}
	return c[a] / (c[a] + c[b])
}

// gcStats reads the Go runtime's GC counters.
type gcStats struct {
	cycles, gcCPU, totalCPU float64
}

func readGC() gcStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return gcStats{cycles: val(s[0].Value), gcCPU: val(s[1].Value), totalCPU: val(s[2].Value)}
}
