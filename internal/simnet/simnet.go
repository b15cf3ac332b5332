// Package simnet provides a synchronous RPC fabric between simulated hosts.
//
// PolarCXLMem uses RPC sparingly — CXL memory allocation at startup, page
// address lookups against the buffer-fusion server — while the RDMA-MP
// baseline additionally sends invalidation messages over the network. The
// fabric charges a calibrated round-trip latency (plus optional per-byte
// bandwidth) to the caller's virtual clock and runs the handler inline, so
// server-side work done during the call (lock-table updates, CXL flag
// stores) is charged to the same logical timeline, exactly as a blocking RPC
// behaves.
//
// With a RetryPolicy installed, Call becomes an at-most-once RPC over a
// lossy link: each attempt re-consults the fault injector (a dropped or
// failed send is retried after a seeded backoff), every call carries a
// request ID, and replies are cached under that ID so a retry after a lost
// reply returns the cached result instead of re-running the handler.
package simnet

import (
	"errors"
	"fmt"
	"sync"

	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
)

// Handler serves one RPC method. It runs on the caller's virtual clock.
type Handler func(clk *simclock.Clock, req any) (any, error)

// ErrDeadline marks a Call that exhausted its retry budget or deadline.
// Use errors.Is; the concrete error is a *DeadlineError.
var ErrDeadline = errors.New("simnet: call deadline exceeded")

// ErrNoEndpoint marks a call to a deregistered (crashed) or unknown
// endpoint. Not retryable: retransmits cannot resurrect a dead process.
var ErrNoEndpoint = errors.New("simnet: no such endpoint or method")

// DeadlineError reports an RPC that could not be delivered within its
// retry/deadline budget.
type DeadlineError struct {
	Endpoint string
	Method   string
	Attempts int
	Elapsed  int64 // virtual ns spent, including backoff
	Last     error // the final attempt's injected error
}

// Error implements error.
func (e *DeadlineError) Error() string {
	return fmt.Sprintf("simnet: %s.%s deadline exceeded after %d attempts (%d ns): %v",
		e.Endpoint, e.Method, e.Attempts, e.Elapsed, e.Last)
}

// Unwrap makes errors.Is(err, ErrDeadline) true.
func (e *DeadlineError) Unwrap() error { return ErrDeadline }

// RetryPolicy makes Fabric.Call survive transient send/reply loss. The
// zero policy (or a nil *RetryPolicy) disables retries: the first injected
// fault is returned to the caller, the pre-hardening behaviour.
type RetryPolicy struct {
	// MaxAttempts bounds send attempts per call (minimum 1).
	MaxAttempts int
	// BackoffNanos is the virtual-time wait before the first retry.
	BackoffNanos int64
	// BackoffFactor multiplies the backoff after each failed attempt
	// (0 or 1 = constant backoff).
	BackoffFactor int64
	// JitterSeed seeds the deterministic per-(call, attempt) jitter added to
	// each backoff, so retries from different callers decorrelate without
	// breaking replay.
	JitterSeed int64
	// DeadlineNanos caps the total virtual time a Call may consume across
	// attempts and backoffs (0 = attempts-bounded only).
	DeadlineNanos int64
}

func (rp RetryPolicy) attempts() int {
	if rp.MaxAttempts < 1 {
		return 1
	}
	return rp.MaxAttempts
}

// mix64 is a splitmix64 finalizer: a cheap deterministic hash for jitter.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Backoff returns the virtual wait before retry number attempt (1-based)
// of request reqID: exponential in attempt with deterministic seeded jitter.
// Exported so services that charge RPCs directly (the fusion server) can
// share one policy shape with the fabric.
func (rp RetryPolicy) Backoff(reqID uint64, attempt int) int64 {
	b := rp.BackoffNanos
	if b <= 0 {
		return 0
	}
	for i := 1; i < attempt; i++ {
		if rp.BackoffFactor > 1 {
			b *= rp.BackoffFactor
		}
	}
	// Jitter in [0, b/4): enough to decorrelate, small enough that timing
	// expectations stay within the same order.
	if q := b / 4; q > 0 {
		b += int64(mix64(uint64(rp.JitterSeed)^reqID*0x9e3779b97f4a7c15^uint64(attempt)) % uint64(q))
	}
	return b
}

// replyCacheSize bounds the idempotency cache; entries are evicted FIFO.
// Retries arrive within a handful of virtual microseconds of the original
// attempt, so a small window is ample.
const replyCacheSize = 256

type cachedReply struct {
	resp any
	err  error
}

// Fabric is a named-endpoint RPC network. Safe for concurrent use.
type Fabric struct {
	rtt int64              // round-trip latency charged per call, ns
	bw  *simclock.Resource // optional per-byte resource (nil = latency only)

	mu        sync.RWMutex
	endpoints map[string]map[string]Handler // endpoint -> method -> handler
	calls     int64
	nextReq   uint64
	retry     *RetryPolicy
	inj       fault.Injector // optional fault injector; may be nil

	replies  map[uint64]cachedReply // reply cache by request ID
	replyLog []uint64               // FIFO eviction order

	metrics fabricObs
}

// fabricObs holds the fabric's registry handles, fixed at construction;
// each is nil (a no-op) without a registry.
type fabricObs struct {
	calls         *obs.Counter // Call invocations
	attempts      *obs.Counter // send attempts (>= calls under retries)
	retries       *obs.Counter // attempts beyond each call's first
	deadlines     *obs.Counter // calls failed with DeadlineError
	replyCacheHit *obs.Counter // attempts answered from the reply cache
	callNanos     *obs.Histogram
}

// New returns a fabric whose calls cost rttNanos round-trip latency. bw, if
// non-nil, is charged reqBytes per call (invalidation fan-out, page pushes
// accounted separately by callers that move bulk data). reg (nil for none)
// receives the RPC metrics: simnet.calls / attempts / retries /
// deadline_exceeded / replycache_hits counters and the simnet.call_ns
// virtual-latency histogram.
func New(rttNanos int64, bw *simclock.Resource, reg *obs.Registry) *Fabric {
	return &Fabric{
		rtt:       rttNanos,
		bw:        bw,
		endpoints: make(map[string]map[string]Handler),
		replies:   make(map[uint64]cachedReply),
		metrics: fabricObs{
			calls:         reg.Counter("simnet.calls"),
			attempts:      reg.Counter("simnet.attempts"),
			retries:       reg.Counter("simnet.retries"),
			deadlines:     reg.Counter("simnet.deadline_exceeded"),
			replyCacheHit: reg.Counter("simnet.replycache_hits"),
			callNanos:     reg.Histogram("simnet.call_ns"),
		},
	}
}

// RTT reports the configured round-trip latency.
func (f *Fabric) RTT() int64 { return f.rtt }

// Register installs handler for method on endpoint, creating the endpoint
// if needed. Re-registering a method replaces the previous handler.
func (f *Fabric) Register(endpoint, method string, handler Handler) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ep, ok := f.endpoints[endpoint]
	if !ok {
		ep = make(map[string]Handler)
		f.endpoints[endpoint] = ep
	}
	ep[method] = handler
}

// Deregister removes an endpoint entirely — the simulated process died.
// Subsequent calls to it fail, as they would against a crashed server.
func (f *Fabric) Deregister(endpoint string) {
	f.mu.Lock()
	delete(f.endpoints, endpoint)
	f.mu.Unlock()
}

// SetInjector installs (or, with nil, removes) the fault injector consulted
// on every send attempt (OpNetSend, before the handler) and every reply
// delivery (OpNetRecv, after it). Without a retry policy, injected errors
// surface to the caller as a failed call; with one, drop/fail triggers
// become transient faults absorbed by the retry loop — only a crash (which
// latches) or budget exhaustion still fails the call.
func (f *Fabric) SetInjector(inj fault.Injector) {
	f.mu.Lock()
	f.inj = inj
	f.mu.Unlock()
}

// SetRetryPolicy installs (or, with nil, removes) the fabric-wide retry
// policy applied to every Call.
func (f *Fabric) SetRetryPolicy(rp *RetryPolicy) {
	f.mu.Lock()
	f.retry = rp
	f.mu.Unlock()
}

// cacheReply records the reply for reqID so a retried request after a lost
// reply is answered without re-running the handler.
func (f *Fabric) cacheReply(reqID uint64, resp any, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.replies[reqID]; !ok {
		f.replyLog = append(f.replyLog, reqID)
		if len(f.replyLog) > replyCacheSize {
			delete(f.replies, f.replyLog[0])
			f.replyLog = f.replyLog[1:]
		}
	}
	f.replies[reqID] = cachedReply{resp: resp, err: err}
}

func (f *Fabric) takeCached(reqID uint64) (cachedReply, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	r, ok := f.replies[reqID]
	return r, ok
}

// Call invokes method on endpoint, charging the fabric RTT (and reqBytes on
// the bandwidth resource, when attached) to clk before the handler runs.
// With a retry policy installed, transiently dropped or failed sends and
// replies are retried with seeded backoff under one request ID; the handler
// runs at most once per call.
func (f *Fabric) Call(clk *simclock.Clock, endpoint, method string, reqBytes int64, req any) (any, error) {
	f.mu.Lock()
	f.nextReq++
	reqID := f.nextReq
	rp := f.retry
	f.mu.Unlock()

	attempts := 1
	var deadline int64
	if rp != nil {
		attempts = rp.attempts()
		if rp.DeadlineNanos > 0 {
			deadline = rp.DeadlineNanos
		}
	}
	start := clk.Now()
	o := &f.metrics
	o.calls.Inc()
	if o.callNanos != nil {
		defer func() { o.callNanos.Observe(clk.Now() - start) }()
	}
	var last error
	for attempt := 1; attempt <= attempts; attempt++ {
		o.attempts.Inc()
		if attempt > 1 {
			o.retries.Inc()
		}
		resp, herr, ferr := f.attempt(clk, endpoint, method, reqBytes, req, reqID)
		if ferr == nil {
			return resp, herr
		}
		last = ferr
		// Crashes latch (dead host: every later point fails too) and
		// missing handlers are not transient — neither is retryable.
		if fault.IsCrash(ferr) || errors.Is(ferr, ErrNoEndpoint) || rp == nil || attempt == attempts {
			break
		}
		clk.Advance(rp.Backoff(reqID, attempt))
		if deadline > 0 && clk.Now()-start >= deadline {
			o.deadlines.Inc()
			return nil, &DeadlineError{
				Endpoint: endpoint, Method: method,
				Attempts: attempt, Elapsed: clk.Now() - start, Last: last,
			}
		}
	}
	if rp != nil && !fault.IsCrash(last) && !errors.Is(last, ErrNoEndpoint) {
		o.deadlines.Inc()
		return nil, &DeadlineError{
			Endpoint: endpoint, Method: method,
			Attempts: attempts, Elapsed: clk.Now() - start, Last: last,
		}
	}
	return nil, last
}

// attempt performs one send/serve/reply round. ferr is the fabric-level
// (retryable) failure; herr is the handler's own result, never retried.
func (f *Fabric) attempt(clk *simclock.Clock, endpoint, method string, reqBytes int64, req any, reqID uint64) (resp any, herr, ferr error) {
	f.mu.RLock()
	ep, ok := f.endpoints[endpoint]
	var h Handler
	if ok {
		h = ep[method]
	}
	inj := f.inj
	f.mu.RUnlock()
	if inj != nil {
		if err := inj.Point(fault.OpNetSend, reqBytes); err != nil {
			if fault.IsDrop(err) {
				return nil, nil, fmt.Errorf("simnet: %s.%s request lost: %w", endpoint, method, err)
			}
			return nil, nil, err
		}
	}
	if h == nil {
		return nil, nil, fmt.Errorf("simnet: no handler for %s.%s: %w", endpoint, method, ErrNoEndpoint)
	}
	clk.Advance(f.rtt)
	if f.bw != nil && reqBytes > 0 {
		f.bw.Use(clk, reqBytes)
	}
	// Idempotent retransmit: the server already served this request ID and
	// the reply was lost in flight — answer from the reply cache without
	// re-running the handler.
	if cached, okc := f.takeCached(reqID); okc {
		f.metrics.replyCacheHit.Inc()
		resp, herr = cached.resp, cached.err
	} else {
		resp, herr = h(clk, req)
		f.mu.Lock()
		f.calls++
		f.mu.Unlock()
	}
	if inj != nil {
		if err := inj.Point(fault.OpNetRecv, 0); err != nil {
			// The handler ran; only the reply was lost. Remember the answer
			// so the retransmit is idempotent.
			f.cacheReply(reqID, resp, herr)
			if fault.IsDrop(err) {
				return nil, nil, fmt.Errorf("simnet: %s.%s reply lost: %w", endpoint, method, err)
			}
			return nil, nil, err
		}
	}
	return resp, herr, nil
}

// ResetStats zeroes the fabric's accounting (the handler-execution count)
// between experiment phases. Protocol state — registered endpoints, the
// request-ID sequence, the idempotency reply cache — is untouched: those are
// wire state, not accounting.
func (f *Fabric) ResetStats() {
	f.mu.Lock()
	f.calls = 0
	f.mu.Unlock()
}

// Calls reports the number of handler executions (retransmits answered from
// the reply cache are not counted twice).
func (f *Fabric) Calls() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.calls
}
