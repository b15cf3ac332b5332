package sharing

// Distributed page-lock machinery with leases and bounded waits.
//
// The original protocol mapped every fusion page lock onto a sync.RWMutex,
// which has two fatal properties for a shared-memory cluster: a crashed
// holder strands the lock forever, and a waiter blocks unboundedly with no
// way to distinguish contention from deadlock. This file replaces the mutex
// with an explicit holder-tracking lock:
//
//   - every grant records WHO holds the lock and WHEN (virtual time), so the
//     fusion server can walk a dead node's holdings;
//   - every holder's grant is covered by a lease, renewed by the node's RPC
//     traffic (leaseTable); a lock whose holder is marked dead AND whose
//     lease has expired is reclaimable by EvictNode;
//   - waiting is bounded: a waiter spins in virtual time (charging its own
//     clock) up to the policy deadline and then fails with a typed
//     LockTimeoutError naming the holder — the caller can tell "slow peer"
//     from "deadlock" from "dead peer".
//
// Leases here are purely virtual-time: expiry is judged against the waiting
// node's clock, which in the simulator advances in lock-step with the work
// the cluster performs. Dead-marking (CrashNode) is the safety gate — an
// alive-but-stuck holder is never reclaimed, it surfaces as a timeout.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"polarcxlmem/internal/simclock"
)

// Default lock-service parameters, virtual nanoseconds.
const (
	// DefaultLeaseNanos is the lock lease: a dead holder's locks become
	// reclaimable once its last RPC (or the grant itself) is this old.
	DefaultLeaseNanos = 2_000_000
	// DefaultLockWaitNanos bounds a Lock conflict wait before it fails with
	// ErrLockTimeout. Generous by default so heavily contended (but live)
	// workloads never see spurious timeouts; tests install tighter policies.
	DefaultLockWaitNanos = 200_000_000
	// DefaultLockRetryNanos is the virtual time a waiter charges per retry
	// probe of a contended lock (the RPC-poll granularity of the wait loop).
	DefaultLockRetryNanos = 100_000
)

// realWaitQuantum bounds the wall-clock nap between probes when waiter and
// holder are separate goroutines; a release wakes waiters sooner. Waiting
// never spends more wall time than (WaitNanos/RetryNanos) quanta.
const realWaitQuantum = 200 * time.Microsecond

// ErrLockTimeout marks a bounded lock wait that expired while the holder
// stayed live. Use errors.Is; the concrete error is a *LockTimeoutError.
var ErrLockTimeout = errors.New("sharing: page lock wait timed out")

// ErrNodeEvicted marks an RPC or lock request from a node the cluster has
// declared dead (CrashNode/EvictNode). The node must Rejoin first.
var ErrNodeEvicted = errors.New("sharing: node has been evicted")

// LockTimeoutError reports who was holding the page when the wait expired,
// so callers can distinguish contention from deadlock (the holder identity
// is what a deadlock detector needs).
type LockTimeoutError struct {
	Page        uint64
	Node        string // the waiter
	Holder      string // the (first) conflicting holder at expiry
	HolderWrite bool   // the holder held the write side
	Write       bool   // the waiter wanted the write side
	WaitNanos   int64
}

// Error implements error.
func (e *LockTimeoutError) Error() string {
	mode := "read"
	if e.Write {
		mode = "write"
	}
	hmode := "read"
	if e.HolderWrite {
		hmode = "write"
	}
	return fmt.Sprintf("sharing: %s %s-lock wait on page %d timed out after %d ns (held %s by %s)",
		e.Node, mode, e.Page, e.WaitNanos, hmode, e.Holder)
}

// Unwrap makes errors.Is(err, ErrLockTimeout) true.
func (e *LockTimeoutError) Unwrap() error { return ErrLockTimeout }

// LockPolicy parameterizes the lock service. The zero value means defaults.
type LockPolicy struct {
	LeaseNanos int64 // lock lease length
	WaitNanos  int64 // bounded conflict wait before ErrLockTimeout
	RetryNanos int64 // virtual time charged per conflict probe
}

func (p LockPolicy) withDefaults() LockPolicy {
	if p.LeaseNanos <= 0 {
		p.LeaseNanos = DefaultLeaseNanos
	}
	if p.WaitNanos <= 0 {
		p.WaitNanos = DefaultLockWaitNanos
	}
	if p.RetryNanos <= 0 {
		p.RetryNanos = DefaultLockRetryNanos
	}
	return p
}

// leaseTable tracks per-node liveness: the virtual time of each node's last
// RPC, and which nodes the cluster has declared dead.
type leaseTable struct {
	mu       sync.Mutex
	lease    int64
	lastSeen map[string]int64
	dead     map[string]bool
}

func newLeaseTable(lease int64) *leaseTable {
	return &leaseTable{lease: lease, lastSeen: make(map[string]int64), dead: make(map[string]bool)}
}

func (t *leaseTable) setLease(d int64) {
	t.mu.Lock()
	t.lease = d
	t.mu.Unlock()
}

// touch renews node's lease: any successful RPC is proof of life.
func (t *leaseTable) touch(node string, now int64) {
	t.mu.Lock()
	if now > t.lastSeen[node] {
		t.lastSeen[node] = now
	}
	t.mu.Unlock()
}

func (t *leaseTable) markDead(node string) {
	t.mu.Lock()
	t.dead[node] = true
	t.mu.Unlock()
}

// revive readmits node, restarting its lease at now.
func (t *leaseTable) revive(node string, now int64) {
	t.mu.Lock()
	delete(t.dead, node)
	if now > t.lastSeen[node] {
		t.lastSeen[node] = now
	}
	t.mu.Unlock()
}

func (t *leaseTable) isDead(node string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dead[node]
}

// expiredAt reports whether node's lease on a lock granted at grant has run
// out by virtual time now. The lease covers max(grant, last RPC): traffic
// renews it.
func (t *leaseTable) expiredAt(node string, grant, now int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	last := t.lastSeen[node]
	if grant > last {
		last = grant
	}
	return now >= last+t.lease
}

// holderInfo is one conflicting grant reported by tryAcquire.
type holderInfo struct {
	node  string
	grant int64
	write bool
}

// pageLock is a holder-tracking reader/writer lock for one DBP page.
type pageLock struct {
	mu      sync.Mutex
	writer  string
	wgrant  int64
	readers map[string]int   // node -> reentrant read count
	rgrant  map[string]int64 // node -> first-grant time

	// wake is made by a conflicting tryAcquire and closed and cleared by
	// the next release, so a release with no waiter allocates nothing.
	wake chan struct{}
}

func newPageLock() *pageLock {
	return &pageLock{
		readers: make(map[string]int),
		rgrant:  make(map[string]int64),
	}
}

// tryAcquire attempts the grant. On conflict it reports the current holders
// (sorted for determinism) and the channel the next release will close.
func (l *pageLock) tryAcquire(node string, write bool, now int64) (bool, []holderInfo, chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if write {
		if l.writer == "" && len(l.readers) == 0 {
			l.writer, l.wgrant = node, now
			return true, nil, nil
		}
	} else if l.writer == "" {
		l.readers[node]++
		if l.readers[node] == 1 {
			l.rgrant[node] = now
		}
		return true, nil, nil
	}
	var hs []holderInfo
	if l.writer != "" {
		hs = append(hs, holderInfo{node: l.writer, grant: l.wgrant, write: true})
	} else {
		names := make([]string, 0, len(l.readers))
		for n := range l.readers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			hs = append(hs, holderInfo{node: n, grant: l.rgrant[n]})
		}
	}
	if l.wake == nil {
		l.wake = make(chan struct{})
	}
	return false, hs, l.wake
}

// wakeLocked signals all waiters, if any. Caller holds l.mu.
func (l *pageLock) wakeLocked() {
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}

// releaseWrite drops node's write grant. Unlike sync.RWMutex, release by a
// non-holder is an error, not corruption.
func (l *pageLock) releaseWrite(node string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.writer != node {
		return fmt.Errorf("sharing: write-unlock by %s but lock held by %q", node, l.writer)
	}
	l.writer, l.wgrant = "", 0
	l.wakeLocked()
	return nil
}

// releaseRead drops one of node's read grants.
func (l *pageLock) releaseRead(node string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.readers[node] == 0 {
		return fmt.Errorf("sharing: read-unlock by %s which holds no read lock", node)
	}
	l.readers[node]--
	if l.readers[node] == 0 {
		delete(l.readers, node)
		delete(l.rgrant, node)
	}
	l.wakeLocked()
	return nil
}

// forceRelease strips every grant node holds (eviction path). Reports
// whether anything was released.
func (l *pageLock) forceRelease(node string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	hit := false
	if l.writer == node {
		l.writer, l.wgrant = "", 0
		hit = true
	}
	if l.readers[node] > 0 {
		delete(l.readers, node)
		delete(l.rgrant, node)
		hit = true
	}
	if hit {
		l.wakeLocked()
	}
	return hit
}

// writerIs reports whether node currently holds the write side.
func (l *pageLock) writerIs(node string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writer != "" && l.writer == node
}

// holds reports whether node holds the lock in any mode.
func (l *pageLock) holds(node string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writer == node || l.readers[node] > 0
}

// snapshot reports the current holders (for fsck and eviction walks).
func (l *pageLock) snapshot() (writer string, readers []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	writer = l.writer
	for n := range l.readers {
		readers = append(readers, n)
	}
	sort.Strings(readers)
	return writer, readers
}

// acquirePageLock is the bounded-wait conflict loop shared by the CXL and
// RDMA fusion servers. The waiter charges its own clock pol.RetryNanos per
// probe up to pol.WaitNanos, then fails with a LockTimeoutError naming the
// holder. When a conflicting holder is marked dead and its lease has run
// out, reclaim (when non-nil) is invoked with the dead holder's name —
// EvictNode — and the acquisition retries immediately.
func acquirePageLock(clk *simclock.Clock, l *pageLock, lt *leaseTable, pol LockPolicy,
	node string, pageID uint64, write bool, reclaim func(*simclock.Clock, string) error) error {
	pol = pol.withDefaults()
	deadline := clk.Now() + pol.WaitNanos
	for {
		ok, blockers, wake := l.tryAcquire(node, write, clk.Now())
		if ok {
			return nil
		}
		reclaimed := false
		for _, b := range blockers {
			if b.node == node || lt == nil || reclaim == nil {
				continue
			}
			if lt.isDead(b.node) && lt.expiredAt(b.node, b.grant, clk.Now()) {
				if err := reclaim(clk, b.node); err != nil {
					return err
				}
				reclaimed = true
			}
		}
		if reclaimed {
			continue
		}
		now := clk.Now()
		if now >= deadline {
			e := &LockTimeoutError{Page: pageID, Node: node, Write: write, WaitNanos: pol.WaitNanos}
			if len(blockers) > 0 {
				e.Holder, e.HolderWrite = blockers[0].node, blockers[0].write
			}
			return e
		}
		step := pol.RetryNanos
		if rem := deadline - now; rem < step {
			step = rem
		}
		clk.Advance(step)
		// Nap until a release wakes us or the quantum elapses: virtual time
		// governs the deadline, wall time only paces the actual goroutines.
		select {
		case <-wake:
		case <-time.After(realWaitQuantum):
		}
	}
}
