// Package dataplane is the front-end request router: the single traffic
// front door between simulated client sessions and a txn.Engine, modelling
// the ingress tier PolarDB puts in front of CXL-backed storage nodes
// (PAPER.md §2 — cloud tenants never talk to the buffer pool directly).
//
// Requests are sharded by session onto per-worker FIFO queues and executed
// in batches: one txn.Engine.RunBatch call per batch, so the per-transaction
// commit costs (the daemon ticks, and for a batch that writes the
// commit-marker append and the log force) and the router's own dispatch CPU
// are amortized over BatchSize requests instead of paid per request. A
// read-only batch forces no log, so for point selects batching amortizes
// dispatch and the daemon ticks only. Admission control is two-stage: a
// per-tenant token bucket (rate + burst in virtual time) and a bounded
// per-worker queue; both rejections are typed ErrOverloaded so callers can
// apply backpressure with errors.Is.
//
// A Router has two mutually exclusive drive modes:
//
//   - Run/Close/Abort: real goroutines per worker, for concurrent use under
//     -race (and the facade). Close drains, Abort discards.
//   - Step: no goroutines; each call executes one batch on the pending
//     worker with the LOWEST virtual clock, on the caller's goroutine. This
//     is the deterministic mode the bench uses — same seed, same output,
//     independent of the host scheduler.
//
// Every queue transition emits an obs event (dp.enqueue / dp.dequeue /
// dp.discard, Aux = queue depth after the transition) under the worker's
// queue mutex, so the per-actor event order matches the real queue order and
// obs.QueueChecker can replay depth accounting exactly.
package dataplane

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/txn"
)

// ErrOverloaded is the typed admission-control rejection: the target
// worker's queue is at capacity, or the request's tenant is out of
// token-bucket budget. Callers should back off and retry; the request was
// NOT enqueued.
var ErrOverloaded = errors.New("dataplane: overloaded")

// ErrRateLimited is the tenant-budget rejection. It wraps ErrOverloaded, so
// errors.Is(err, ErrOverloaded) still matches; branch on ErrRateLimited when
// tenant throttling (drop, bill, report) and queue pressure (back off, retry)
// deserve different handling — retrying a rate-limited request before its
// tenant's bucket refills can never succeed.
var ErrRateLimited = fmt.Errorf("%w: tenant over rate limit", ErrOverloaded)

// ErrClosed reports a submit to (or a request discarded by) a router that
// has been closed or aborted.
var ErrClosed = errors.New("dataplane: router closed")

// NoQueue configures a zero-capacity router: every submit is rejected with
// ErrOverloaded. (QueueDepth 0 means the default depth, per the repo's
// zero-value convention, so zero capacity needs an explicit sentinel.)
const NoQueue = -1

// Defaults for zero-valued Config fields.
const (
	DefaultWorkers    = 4
	DefaultQueueDepth = 1024
	DefaultBatchSize  = 16
	// DefaultDispatchNanos is the router's per-batch dispatch CPU: parsing,
	// routing, and completion bookkeeping, charged once per batch.
	DefaultDispatchNanos = 2_000
)

// Config sizes a Router. The zero value of every field means its default;
// QueueDepth takes NoQueue for a zero-capacity router.
type Config struct {
	// Workers is the number of execution shards (default 4). Requests are
	// sharded by session id, so one session's requests stay FIFO.
	Workers int
	// QueueDepth bounds each worker's queue (default 1024; NoQueue = 0
	// capacity). Beyond it, Submit rejects with ErrOverloaded.
	QueueDepth int
	// BatchSize caps requests per RunBatch call (default 16; 1 = per-request
	// dispatch, the unbatched baseline the ablation compares against).
	BatchSize int
	// DispatchNanos is the router CPU charged once per batch (default 2000).
	DispatchNanos int64
	// TenantRate is each tenant's admission rate in requests per virtual
	// second; 0 disables tenant rate limiting.
	TenantRate float64
	// TenantBurst is each tenant's token-bucket capacity (default 16 when
	// TenantRate > 0). Buckets start full.
	TenantBurst int
	// Registry receives the router's metrics and queue events (nil = none):
	// dataplane.queue_depth gauge, dataplane.batch_size and
	// dataplane.queue_wait_ns histograms, dataplane.{admitted,rejected,
	// batches,requests} counters, dp.* events.
	Registry *obs.Registry
	// Actor prefixes event actors ("<actor>/w<i>", default "dp").
	Actor string
	// TenantTag, when non-nil, is called on the executing worker's clock
	// immediately before each request op runs, carrying the request's tenant
	// id. The tiering facade wires it to tier.Heat.Bind so page touches made
	// while the op executes are attributed to the right tenant — the link
	// that lets per-tenant QoS budgets see through the batched front door.
	TenantTag func(clk *simclock.Clock, tenant int)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = DefaultQueueDepth
	case c.QueueDepth < 0:
		c.QueueDepth = 0 // NoQueue
	}
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.DispatchNanos <= 0 {
		c.DispatchNanos = DefaultDispatchNanos
	}
	if c.TenantRate > 0 && c.TenantBurst <= 0 {
		c.TenantBurst = 16
	}
	if c.Actor == "" {
		c.Actor = "dp"
	}
	return c
}

// Request is one front-end request: a session's single operation against
// the engine, submitted at a virtual arrival time.
type Request struct {
	// Session identifies the issuing session; it picks the worker shard
	// (session % workers), so one session's requests execute in order.
	Session int
	// Tenant is the session's tenant, for token-bucket admission.
	Tenant int
	// Arrival is the submit-time virtual time, read off the SUBMITTER's
	// clock. Queue wait is measured from it.
	Arrival int64
	// Op is the request body, run inside the batch's shared transaction.
	// Batched requests share one transaction (see txn.RunBatch): they see
	// each other's effects and fail as a unit, which is sound because the
	// router only batches requests from distinct, independent sessions.
	Op func(*txn.Txn) error
	// Done, when non-nil, runs on the executing worker after the batch
	// commits (or fails — every request in a failed batch gets the error).
	// Discarded requests (Abort) get ErrClosed. It may Submit, but must not
	// Step or Drain: the worker reuses its batch buffer on the next pop.
	Done func(error)
}

// request is the queued form.
type request struct {
	Request
}

// Router is the batched front-end dataplane over one txn.Engine.
type Router struct {
	cfg Config
	eng *txn.Engine

	workers []*worker
	wg      sync.WaitGroup
	running atomic.Bool

	admitted atomic.Int64
	rejected atomic.Int64
	batches  atomic.Int64
	requests atomic.Int64
	overhead atomic.Int64 // batch span minus op spans, virtual nanos

	bucketMu sync.Mutex
	buckets  map[int]*tokenBucket

	// metric handles (nil-safe when cfg.Registry is nil)
	depthGauge  *obs.Gauge
	batchHist   *obs.Histogram
	waitHist    *obs.Histogram
	admittedCtr *obs.Counter
	rejectedCtr *obs.Counter
	batchesCtr  *obs.Counter
	requestsCtr *obs.Counter
}

// worker is one execution shard: a bounded FIFO queue plus a private
// virtual clock. The queue (q, closed, waiter tickets) is guarded by mu;
// the clock is touched only by the executing goroutine (the worker's run
// loop, or the Step caller).
type worker struct {
	r     *Router
	id    int
	actor string

	mu     sync.Mutex
	cond   *sync.Cond // signalled on enqueue and close (run loop waits)
	space  *sync.Cond // signalled on dequeue and close (SubmitWait waiters)
	q      []request  // FIFO; a pop shifts the rest down, so the array is reused
	batch  []request  // the popped batch; owned by the executing goroutine
	closed bool
	drain  bool // closed with drain (Close) vs discard (Abort)

	// FIFO tickets for SubmitWait backpressure: waiters are admitted in
	// arrival order, and Submit never jumps a waiting line.
	waitHead, waitTail uint64

	clk *simclock.Clock
}

// New builds a Router executing against eng. Call Run for the concurrent
// drive mode, or drive it with Step; don't mix the two.
func New(eng *txn.Engine, cfg Config) *Router {
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:     cfg,
		eng:     eng,
		buckets: make(map[int]*tokenBucket),

		depthGauge:  cfg.Registry.Gauge("dataplane.queue_depth"),
		batchHist:   cfg.Registry.Histogram("dataplane.batch_size"),
		waitHist:    cfg.Registry.Histogram("dataplane.queue_wait_ns"),
		admittedCtr: cfg.Registry.Counter("dataplane.admitted"),
		rejectedCtr: cfg.Registry.Counter("dataplane.rejected"),
		batchesCtr:  cfg.Registry.Counter("dataplane.batches"),
		requestsCtr: cfg.Registry.Counter("dataplane.requests"),
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			r:     r,
			id:    i,
			actor: fmt.Sprintf("%s/w%d", cfg.Actor, i),
			clk:   simclock.New(),
		}
		w.cond = sync.NewCond(&w.mu)
		w.space = sync.NewCond(&w.mu)
		r.workers = append(r.workers, w)
	}
	return r
}

// Workers reports the shard count.
func (r *Router) Workers() int { return len(r.workers) }

// bucket returns tenant t's token bucket, creating it full on first use.
func (r *Router) bucket(t int) *tokenBucket {
	r.bucketMu.Lock()
	defer r.bucketMu.Unlock()
	b, ok := r.buckets[t]
	if !ok {
		b = newTokenBucket(r.cfg.TenantRate, r.cfg.TenantBurst)
		r.buckets[t] = b
	}
	return b
}

// admit runs tenant admission. It must happen BEFORE the queue-capacity
// check so a rate-limited tenant cannot consume queue space.
func (r *Router) admit(req Request) error {
	if r.cfg.TenantRate <= 0 {
		return nil
	}
	if !r.bucket(req.Tenant).take(req.Arrival) {
		r.rejected.Add(1)
		r.rejectedCtr.Inc()
		return fmt.Errorf("dataplane: tenant %d: %w", req.Tenant, ErrRateLimited)
	}
	return nil
}

func (r *Router) shard(session int) *worker {
	if session < 0 {
		session = -session
	}
	return r.workers[session%len(r.workers)]
}

// Submit offers a request without blocking: ErrOverloaded if the tenant is
// out of budget or the shard's queue is full (or has waiters ahead),
// ErrClosed after Close/Abort.
func (r *Router) Submit(req Request) error {
	if err := r.admit(req); err != nil {
		return err
	}
	return r.shard(req.Session).enqueue(request{req}, false)
}

// SubmitWait is the backpressure form: a tenant rejection still fails fast
// with ErrOverloaded, but a full queue blocks until space frees. Waiters
// are admitted strictly in arrival order. Returns ErrClosed if the router
// closes while waiting.
func (r *Router) SubmitWait(req Request) error {
	if err := r.admit(req); err != nil {
		return err
	}
	return r.shard(req.Session).enqueue(request{req}, true)
}

// enqueue appends req to the shard queue, emitting dp.enqueue with the new
// depth under mu so event order matches queue order.
func (w *worker) enqueue(req request, wait bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.r.cfg.QueueDepth == 0 {
		w.r.rejected.Add(1)
		w.r.rejectedCtr.Inc()
		return fmt.Errorf("dataplane: zero-capacity queue: %w", ErrOverloaded)
	}
	if !wait {
		if len(w.q) >= w.r.cfg.QueueDepth || w.waitTail != w.waitHead {
			w.r.rejected.Add(1)
			w.r.rejectedCtr.Inc()
			return fmt.Errorf("dataplane: worker %d queue full: %w", w.id, ErrOverloaded)
		}
		w.admitLocked(req)
		return nil
	}
	ticket := w.waitTail
	w.waitTail++
	for {
		if w.closed {
			w.bumpWaitLocked(ticket)
			return ErrClosed
		}
		if ticket == w.waitHead && len(w.q) < w.r.cfg.QueueDepth {
			w.bumpWaitLocked(ticket)
			w.admitLocked(req)
			return nil
		}
		w.space.Wait()
	}
}

// bumpWaitLocked retires a waiter ticket and wakes the line so the next
// ticket can check.
func (w *worker) bumpWaitLocked(ticket uint64) {
	if ticket == w.waitHead {
		w.waitHead++
		w.space.Broadcast()
	}
}

// admitLocked records an admitted request: queue append, metrics, event,
// and a nudge to the run loop.
func (w *worker) admitLocked(req request) {
	w.q = append(w.q, req)
	w.r.admitted.Add(1)
	w.r.admittedCtr.Inc()
	w.r.depthGauge.Add(1)
	w.r.cfg.Registry.Emit(req.Arrival, obs.EvDPEnqueue, w.actor, uint64(req.Session), int64(len(w.q)))
	w.cond.Signal()
}

// popBatchLocked removes up to BatchSize requests, emitting dp.dequeue (or
// dp.discard) per request with the depth after each removal. Caller holds
// mu and is the executing goroutine (the clock owner). The batch goes to the
// worker's batch buffer (valid until the next pop) and the rest of the queue
// shifts down in its array, so neither allocates once warm.
func (w *worker) popBatchLocked(discard bool) []request {
	n := min(w.r.cfg.BatchSize, len(w.q))
	batch := append(w.batch[:0], w.q[:n]...)
	w.batch = batch
	rest := copy(w.q, w.q[n:])
	clear(w.q[rest:]) // drop the moved-out requests' references
	w.q = w.q[:rest]
	ev := obs.EvDPDequeue
	if discard {
		ev = obs.EvDPDiscard
	}
	depth := int64(len(w.q)) + int64(n)
	for _, req := range batch {
		depth--
		w.r.cfg.Registry.Emit(w.clk.Now(), ev, w.actor, uint64(req.Session), depth)
	}
	w.r.depthGauge.Add(-int64(n))
	w.space.Broadcast()
	return batch
}

// execBatch runs one batch as a single transaction on the worker's clock,
// charging DispatchNanos once and attributing span-minus-op-time to router
// overhead. Runs on the executing goroutine with mu NOT held.
func (w *worker) execBatch(batch []request) {
	if len(batch) == 0 {
		return
	}
	clk := w.clk
	// A batch cannot start before its last request arrived; a busy worker's
	// clock may already be past every arrival, in which case the requests
	// simply waited longer.
	for _, req := range batch {
		clk.AdvanceTo(req.Arrival)
	}
	start := clk.Now()
	for _, req := range batch {
		w.r.waitHist.Observe(start - req.Arrival)
	}
	w.r.batchHist.Observe(int64(len(batch)))
	clk.Advance(w.r.cfg.DispatchNanos)

	var opNanos int64
	err := w.r.eng.RunBatch(clk, len(batch), func(i int, tx *txn.Txn) error {
		if tag := w.r.cfg.TenantTag; tag != nil {
			tag(clk, batch[i].Tenant)
		}
		t0 := clk.Now()
		err := batch[i].Op(tx)
		opNanos += clk.Now() - t0
		return err
	})
	w.r.overhead.Add(clk.Now() - start - opNanos)
	w.r.batches.Add(1)
	w.r.batchesCtr.Inc()
	w.r.requests.Add(int64(len(batch)))
	w.r.requestsCtr.Add(int64(len(batch)))
	finish(batch, err)
}

// finish reports err to every request of batch that asked for its outcome.
func finish(batch []request, err error) {
	for _, req := range batch {
		if req.Done != nil {
			req.Done(err)
		}
	}
}

// run is the concurrent-mode worker loop: drain batches until closed, then
// (Close) finish the backlog or (Abort) discard it.
func (w *worker) run() {
	for {
		w.mu.Lock()
		for len(w.q) == 0 && !w.closed {
			w.cond.Wait()
		}
		if len(w.q) == 0 {
			w.mu.Unlock()
			return
		}
		if w.closed && !w.drain {
			batch := w.popBatchLocked(true)
			w.mu.Unlock()
			finish(batch, ErrClosed)
			continue
		}
		batch := w.popBatchLocked(false)
		w.mu.Unlock()
		w.execBatch(batch)
	}
}

// Run starts the concurrent drive mode: one goroutine per worker. Pair with
// Close (drain) or Abort (discard). Never mix with Step.
func (r *Router) Run() {
	if !r.running.CompareAndSwap(false, true) {
		return
	}
	for _, w := range r.workers {
		w := w
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			w.run()
		}()
	}
}

func (r *Router) shutdown(drain bool) {
	for _, w := range r.workers {
		w.mu.Lock()
		w.closed = true
		w.drain = drain
		w.cond.Broadcast()
		w.space.Broadcast()
		w.mu.Unlock()
	}
	if r.running.Load() {
		r.wg.Wait()
		return
	}
	// Step mode: no goroutines to join; discard synchronously on Abort.
	if !drain {
		for _, w := range r.workers {
			for {
				w.mu.Lock()
				if len(w.q) == 0 {
					w.mu.Unlock()
					break
				}
				batch := w.popBatchLocked(true)
				w.mu.Unlock()
				finish(batch, ErrClosed)
			}
		}
	}
}

// Close stops admission and DRAINS: queued requests still execute. Blocks
// until every worker goroutine exits (immediately in Step mode, where
// Drain() is the equivalent).
func (r *Router) Close() { r.shutdown(true) }

// Abort stops admission and DISCARDS the backlog: every queued request gets
// Done(ErrClosed) and a dp.discard event. This is the crash/failover path.
func (r *Router) Abort() { r.shutdown(false) }

// Step executes ONE batch on the pending worker with the lowest virtual
// clock, on the caller's goroutine, and reports whether it did any work.
// This is the deterministic drive mode: with a fixed submit order, the
// execution order is a pure function of the configuration. Only for
// routers that never called Run.
func (r *Router) Step() bool {
	var pick *worker
	for _, w := range r.workers {
		w.mu.Lock()
		pending := len(w.q) > 0
		w.mu.Unlock()
		if !pending {
			continue
		}
		if pick == nil || w.clk.Now() < pick.clk.Now() {
			pick = w
		}
	}
	if pick == nil {
		return false
	}
	pick.mu.Lock()
	batch := pick.popBatchLocked(false)
	pick.mu.Unlock()
	pick.execBatch(batch)
	return true
}

// ShardVNanos reports the virtual clock of the worker that owns session's
// shard: the time through which that shard has executed. Step-mode drivers
// use it to model blocked-submitter time under backpressure — a client that
// had to wait for queue space was blocked (in virtual time) until its shard
// drained, so its retried request cannot arrive before this instant. Racy
// in Run mode; meaningful only for Step-driven routers.
func (r *Router) ShardVNanos(session int) int64 {
	return r.shard(session).clk.Now()
}

// Drain steps until every queue is empty (Step mode's Close analogue).
func (r *Router) Drain() {
	for r.Step() {
	}
}

// Waiting reports how many SubmitWait callers are currently blocked on
// full queues (backpressure depth, summed over workers).
func (r *Router) Waiting() int {
	n := 0
	for _, w := range r.workers {
		w.mu.Lock()
		n += int(w.waitTail - w.waitHead)
		w.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time router summary. Volatile while workers run;
// exact after Close/Abort/Drain.
type Stats struct {
	Admitted int64 // requests accepted into a queue
	Rejected int64 // admission-control rejections (ErrOverloaded)
	Batches  int64 // RunBatch calls issued
	Requests int64 // requests executed
	// OverheadNanos is the total virtual time batches spent OUTSIDE request
	// ops: dispatch CPU, begin/commit, the log force. Divide by Requests for
	// the per-request router+commit overhead the batch ablation measures.
	OverheadNanos int64
	// MaxVNanos is the furthest worker clock: the virtual makespan.
	MaxVNanos int64
}

// Stats snapshots the router counters.
func (r *Router) Stats() Stats {
	s := Stats{
		Admitted:      r.admitted.Load(),
		Rejected:      r.rejected.Load(),
		Batches:       r.batches.Load(),
		Requests:      r.requests.Load(),
		OverheadNanos: r.overhead.Load(),
	}
	for _, w := range r.workers {
		if t := w.clk.Now(); t > s.MaxVNanos {
			s.MaxVNanos = t
		}
	}
	return s
}
