package workload

import (
	"math/rand"
	"sync/atomic"
)

// SessionConfig sizes a simulated client-session population. The paper's
// deployment story (§2) is cloud tenants whose requests funnel through a
// front end before touching CXL-backed buffer pools; this models the front
// end's session table: millions of OPEN sessions, each a few bytes of state,
// of which only a bounded number have a request in flight at any instant
// (the dataplane router's queue depth, not the session count, bounds
// in-flight work).
type SessionConfig struct {
	// Sessions is the number of open sessions (default 1024).
	Sessions int
	// Tenants is the number of cloud tenants the sessions belong to
	// (default 16). Session-to-tenant assignment is Zipfian: a few hot
	// tenants own most sessions, the realistic multi-tenant skew.
	Tenants int
	// ZipfS is the Zipf skew exponent (> 1; default 1.2).
	ZipfS float64
	// ZipfV is the Zipf value offset (>= 1; default 1).
	ZipfV float64
	// Seed fixes tenant assignment and every derived per-worker stream.
	Seed int64
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.Sessions <= 0 {
		c.Sessions = 1024
	}
	if c.Tenants <= 0 {
		c.Tenants = 16
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.ZipfV < 1 {
		c.ZipfV = 1
	}
	return c
}

// Sessions is an open-session table: per-session tenant assignment plus
// race-safe issue/completion accounting. All mutating methods are safe for
// concurrent use from parallel workers.
type Sessions struct {
	cfg    SessionConfig
	tenant []uint32 // session -> tenant, Zipf-skewed

	issued    []atomic.Uint32 // requests issued per session
	touched   atomic.Int64    // sessions that issued >= 1 request
	completed atomic.Int64
	failed    atomic.Int64
}

// NewSessions builds the session table: every session is assigned a tenant
// by one seeded Zipf draw, so tenant load skew is deterministic in the seed.
func NewSessions(cfg SessionConfig) *Sessions {
	cfg = cfg.withDefaults()
	s := &Sessions{
		cfg:    cfg,
		tenant: make([]uint32, cfg.Sessions),
		issued: make([]atomic.Uint32, cfg.Sessions),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	z := rand.NewZipf(rng, cfg.ZipfS, cfg.ZipfV, uint64(cfg.Tenants-1))
	for i := range s.tenant {
		s.tenant[i] = uint32(z.Uint64())
	}
	return s
}

// Open reports the number of open sessions.
func (s *Sessions) Open() int { return len(s.tenant) }

// Tenant reports which tenant owns session i.
func (s *Sessions) Tenant(i int) int { return int(s.tenant[i]) }

// Issue records that session i put a request on the wire. The first issue
// of a session counts it as touched.
func (s *Sessions) Issue(i int) {
	if s.issued[i].Add(1) == 1 {
		s.touched.Add(1)
	}
}

// Done records a request completion for accounting (err non-nil counts as
// failed). Safe to call from the executing worker's goroutine.
func (s *Sessions) Done(err error) {
	if err != nil {
		s.failed.Add(1)
		return
	}
	s.completed.Add(1)
}

// Touched reports how many distinct sessions have issued at least one
// request.
func (s *Sessions) Touched() int64 { return s.touched.Load() }

// Completed reports successfully completed requests.
func (s *Sessions) Completed() int64 { return s.completed.Load() }

// Failed reports failed requests.
func (s *Sessions) Failed() int64 { return s.failed.Load() }

// TenantShare reports the fraction of sessions owned by tenant t (skew
// verification).
func (s *Sessions) TenantShare(t int) float64 {
	n := 0
	for _, tn := range s.tenant {
		if int(tn) == t {
			n++
		}
	}
	return float64(n) / float64(len(s.tenant))
}

// Stream is one pump worker's deterministic view of the session table:
// worker w of W walks sessions w, w+W, w+2W, ... (wrapping), with a private
// child RNG for op parameters. Two runs with the same (seed, worker count)
// produce identical per-worker streams regardless of scheduling; a Stream
// itself is single-goroutine state.
type Stream struct {
	s      *Sessions
	rng    *rand.Rand
	next   int
	stride int
}

// Stream returns worker w's session stream (0 <= w < workers).
func (s *Sessions) Stream(worker, workers int) *Stream {
	if workers <= 0 {
		workers = 1
	}
	return &Stream{
		s:      s,
		rng:    WorkerRNG(s.cfg.Seed, worker),
		next:   worker % len(s.tenant),
		stride: workers,
	}
}

// Next returns the stream's next session id, round-robin over the worker's
// stride so a long run touches every session the worker owns.
func (st *Stream) Next() int {
	i := st.next
	st.next += st.stride
	if st.next >= st.s.Open() {
		st.next %= st.stride
	}
	return i
}

// RNG exposes the stream's private child RNG for op parameters.
func (st *Stream) RNG() *rand.Rand { return st.rng }
