package main

import (
	"fmt"
	"math"
	"math/rand"

	"polarcxlmem/internal/dataplane"
	"polarcxlmem/internal/txn"
)

// The open-loop generator feeds a Step-mode dataplane.Router from a Poisson
// arrival stream in virtual time, on one goroutine, so every virtual number
// is a function of the seed alone.
//
// Arrivals wait in the generator's own per-shard queues until their shard can
// start a batch. The generator then submits exactly the requests that have
// arrived by the batch's start (at most BatchSize) and calls Step, which
// runs that shard, the only one with a pending request. A shard is stepped
// as soon as its clock reaches a pending arrival, never later: batches form
// only from requests that queued while the shard was busy, so the measured
// wait is the model's queueing, not an artefact of the generator.

// request is one routed request and its record.
type request struct {
	id      int64
	session int
	arrival int64 // scheduled virtual arrival
	start   int64 // virtual time its op started
	done    int64 // virtual completion (worker clock at Done)
	err     error
	kind    string                  // "get", "update", "insert" or "scan"
	body    func(tx *txn.Txn) error // the workload's op, checked by its oracle
	acked   func()                  // runs on Done(nil)
	refused bool                    // the shard queue was full
	span    int                     // traced: the req span
}

// loop is the generator over one router.
type loop struct {
	router  *dataplane.Router
	workers int
	batch   int
	depth   int
	queues  [][]*request
	rng     *rand.Rand
	nextID  int64
	tr      *tracer
	ops     []*request // ops run by the current Step, for batch attribution
	failure error      // first batch-attribution mismatch
}

func newLoop(router *dataplane.Router, cfg dataplane.Config, rng *rand.Rand) *loop {
	return &loop{
		router:  router,
		workers: cfg.Workers,
		batch:   cfg.BatchSize,
		depth:   cfg.QueueDepth,
		queues:  make([][]*request, cfg.Workers),
		rng:     rng,
	}
}

// clock is the virtual time shard s has executed through.
func (l *loop) clock(s int) int64 { return l.router.ShardVNanos(s) }

// maxClock is the furthest shard clock.
func (l *loop) maxClock() int64 {
	var m int64
	for s := 0; s < l.workers; s++ {
		m = max(m, l.clock(s))
	}
	return m
}

// run offers n requests at rate per virtual second, starting at start, and
// returns them once all have completed or been refused. gen fills in each
// request's session, kind and body.
func (l *loop) run(n int, rate float64, start int64, gen func(r *request)) []*request {
	out := make([]*request, 0, n)
	gap := 1e9 / rate
	t := l.rng.ExpFloat64() * gap
	next := start + int64(t)
	for {
		best, bestStart := -1, int64(0)
		for s, q := range l.queues {
			if len(q) == 0 {
				continue
			}
			st := max(l.clock(s), q[0].arrival)
			if best < 0 || st < bestStart {
				best, bestStart = s, st
			}
		}
		if best >= 0 && (len(out) == n || bestStart < next) {
			l.step(best, bestStart)
			continue
		}
		if len(out) == n {
			return out
		}
		l.nextID++
		r := &request{id: l.nextID, arrival: next, span: -1}
		gen(r)
		out = append(out, r)
		s := r.session % l.workers
		if len(l.queues[s]) >= l.depth {
			r.refused = true
		} else {
			l.queues[s] = append(l.queues[s], r)
			r.span = l.tr.begin("req", -1, r.id, next)
		}
		t += l.rng.ExpFloat64() * gap
		next = start + int64(t)
	}
}

// step submits shard s's requests that arrived by batchStart and runs them
// as one batch.
func (l *loop) step(s int, batchStart int64) {
	q := l.queues[s]
	k := 0
	for k < len(q) && k < l.batch && q[k].arrival <= batchStart {
		k++
	}
	for _, r := range q[:k] {
		if err := l.router.Submit(l.routed(r)); err != nil {
			r.err = fmt.Errorf("submit: %w", err)
		}
	}
	l.queues[s] = append(q[:0], q[k:]...)

	var before dataplane.Stats
	step := -1
	if l.tr != nil {
		before = l.router.Stats()
		step = l.tr.begin("dataplane.step", -1, 0, batchStart)
		l.tr.current = step
		l.ops = l.ops[:0]
	}
	if !l.router.Step() && l.failure == nil {
		l.failure = fmt.Errorf("shard %d: Step found no pending request", s)
	}
	if l.tr != nil {
		end := l.clock(s)
		l.tr.end(step, end)
		l.tr.current = -1
		var opV int64
		for _, r := range l.ops {
			opV += l.tr.spans[l.tr.opSpan[r.id]].v1 - l.tr.spans[l.tr.opSpan[r.id]].v0
		}
		overhead := l.router.Stats().OverheadNanos - before.OverheadNanos
		if got := end - batchStart; got != opV+overhead && l.failure == nil {
			l.failure = fmt.Errorf("batch at %d ns: span %d ns != ops %d ns + overhead %d ns", batchStart, got, opV, overhead)
		}
	}
}

// routed wraps r as a dataplane request.
func (l *loop) routed(r *request) dataplane.Request {
	return dataplane.Request{
		Session: r.session,
		Arrival: r.arrival,
		Op: func(tx *txn.Txn) error {
			clk := tx.Clock()
			r.start = clk.Now()
			if l.tr == nil {
				return r.body(tx)
			}
			op := l.tr.begin("dataplane.op", l.tr.current, r.id, r.start)
			l.tr.opSpan[r.id] = op
			l.ops = append(l.ops, r)
			err := r.body(tx)
			l.tr.end(op, clk.Now())
			return err
		},
		Done: func(err error) {
			r.done = l.clock(r.session % l.workers)
			if err != nil && r.err == nil {
				r.err = err
			}
			if err == nil && r.acked != nil {
				r.acked()
			}
			l.tr.end(r.span, r.done)
		},
	}
}

// outcome summarises a run: latencies of the completed requests in arrival
// order, and failures (errors, wrong results, refusals).
type outcome struct {
	lat    []int64
	failed int64
	first  error
}

func summarize(reqs []*request) outcome {
	var o outcome
	o.lat = make([]int64, 0, len(reqs))
	for _, r := range reqs {
		switch {
		case r.refused:
			o.failed++
			if o.first == nil {
				o.first = fmt.Errorf("request %d refused: shard queue full", r.id)
			}
		case r.err != nil:
			o.failed++
			if o.first == nil {
				o.first = fmt.Errorf("request %d (%s): %w", r.id, r.kind, r.err)
			}
		default:
			o.lat = append(o.lat, r.done-r.arrival)
		}
	}
	return o
}

// meets reports whether a probe at some rate met the latency limit: nothing
// failed or was refused, the p99.9 is within the limit, and the backlog did
// not grow (the last tenth's median latency is within the limit too).
func meets(reqs []*request, limit int64) bool {
	o := summarize(reqs)
	if o.failed > 0 || len(o.lat) == 0 {
		return false
	}
	tail := o.lat[len(o.lat)-len(o.lat)/10:]
	return quantile(o.lat, 0.999) <= float64(limit) && quantile(tail, 0.5) <= float64(limit)
}

// capacity finds, by bisection on a geometric scale, the highest offered
// rate (requests per virtual second) whose probe of n requests meets limit.
// lo is expected to pass and hi to fail; both are widened if not. Each
// probe starts where the previous one ended.
func (l *loop) capacity(lo, hi float64, n int, limit int64, gen func(r *request), account func([]*request)) float64 {
	probe := func(rate float64) bool {
		reqs := l.run(n, rate, l.maxClock(), gen)
		account(reqs)
		return meets(reqs, limit)
	}
	for !probe(lo) && lo > 1 {
		hi, lo = lo, lo/2
	}
	for probe(hi) {
		lo, hi = hi, hi*2
	}
	for hi/lo > 1.01 {
		mid := math.Sqrt(lo * hi)
		if probe(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
