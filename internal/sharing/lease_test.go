package sharing

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simnet"
)

// Lock leases, bounded waits, and RPC retry: the crash-tolerance layer of
// the multi-primary lock service.

// TestLockTimeoutNamesHolder: a live-but-stuck holder is NEVER reclaimed —
// the waiter gets a typed timeout naming the holder (deadlock evidence),
// and the holder's grant survives intact.
func TestLockTimeoutNamesHolder(t *testing.T) {
	r := newRig(t, 4, 2, 16)
	pid := r.seedPage(t, 0x01)
	buf := make([]byte, 8)
	for _, n := range r.nodes {
		if err := n.Read(r.clk, pid, 4096, buf); err != nil {
			t.Fatal(err)
		}
	}
	r.fusion.SetLockPolicy(LockPolicy{WaitNanos: 2_000_000, RetryNanos: 100_000})
	if err := r.fusion.Lock(r.clk, "node-1", pid, true); err != nil {
		t.Fatal(err)
	}
	err := r.fusion.Lock(r.clk, "node-0", pid, true)
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("want ErrLockTimeout, got %v", err)
	}
	var lte *LockTimeoutError
	if !errors.As(err, &lte) {
		t.Fatalf("want *LockTimeoutError, got %T", err)
	}
	if lte.Holder != "node-1" || !lte.HolderWrite || lte.Page != pid || lte.Node != "node-0" || !lte.Write {
		t.Fatalf("timeout metadata wrong: %+v", lte)
	}
	// The live holder was not disturbed: it can still release cleanly.
	if err := r.fusion.unlockWriteClean(r.clk, "node-1", pid); err != nil {
		t.Fatal(err)
	}
	// And the lock is usable again.
	if err := r.fusion.Lock(r.clk, "node-0", pid, true); err != nil {
		t.Fatal(err)
	}
	if err := r.fusion.unlockWriteClean(r.clk, "node-0", pid); err != nil {
		t.Fatal(err)
	}
}

// TestCrossedPagePairDeadlock: two primaries lock page pairs in opposite
// order — the classic deadlock. Both waits are bounded, so both surface a
// LockTimeoutError naming the opposing holder instead of hanging forever.
func TestCrossedPagePairDeadlock(t *testing.T) {
	r := newRig(t, 4, 2, 16)
	p1 := r.seedPage(t, 0x01)
	p2 := r.seedPage(t, 0x02)
	buf := make([]byte, 8)
	for _, n := range r.nodes {
		for _, pid := range []uint64{p1, p2} {
			if err := n.Read(r.clk, pid, 4096, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.fusion.SetLockPolicy(LockPolicy{WaitNanos: 3_000_000, RetryNanos: 100_000})

	// One simclock per goroutine — clocks are not thread-safe.
	clkA, clkB := simclock.New(), simclock.New()
	clkA.AdvanceTo(r.clk.Now())
	clkB.AdvanceTo(r.clk.Now())
	var (
		ready sync.WaitGroup
		done  sync.WaitGroup
		errA  error
		errB  error
	)
	ready.Add(2)
	done.Add(2)
	go func() {
		defer done.Done()
		if err := r.fusion.Lock(clkA, "node-0", p1, true); err != nil {
			errA = fmt.Errorf("first lock: %w", err)
			ready.Done()
			return
		}
		ready.Done()
		ready.Wait() // both first locks held: the cycle exists
		errA = r.fusion.Lock(clkA, "node-0", p2, true)
	}()
	go func() {
		defer done.Done()
		if err := r.fusion.Lock(clkB, "node-1", p2, true); err != nil {
			errB = fmt.Errorf("first lock: %w", err)
			ready.Done()
			return
		}
		ready.Done()
		ready.Wait()
		errB = r.fusion.Lock(clkB, "node-1", p1, true)
	}()
	done.Wait()

	for name, err := range map[string]error{"node-0": errA, "node-1": errB} {
		if !errors.Is(err, ErrLockTimeout) {
			t.Fatalf("%s: crossed-pair deadlock must surface ErrLockTimeout, got %v", name, err)
		}
	}
	var lte *LockTimeoutError
	if errors.As(errA, &lte) && lte.Holder != "node-1" {
		t.Fatalf("node-0's timeout should name node-1, got %q", lte.Holder)
	}
	if errors.As(errB, &lte) && lte.Holder != "node-0" {
		t.Fatalf("node-1's timeout should name node-0, got %q", lte.Holder)
	}
	// Both first-acquired locks are still held by live nodes; release them.
	if err := r.fusion.unlockWriteClean(r.clk, "node-0", p1); err != nil {
		t.Fatal(err)
	}
	if err := r.fusion.unlockWriteClean(r.clk, "node-1", p2); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseReclaimWithinInterval: a DEAD holder's write lock is reclaimed by
// the first conflicting waiter within one lease interval, the durable lock
// word is cleared, and the evicted node's RPCs are rejected until it
// rejoins.
func TestLeaseReclaimWithinInterval(t *testing.T) {
	r := newRig(t, 4, 2, 16)
	attachLockTable(t, r.clk, r.topo, r.fusion)
	pid := r.seedPage(t, 0x01)
	buf := make([]byte, 8)
	for _, n := range r.nodes {
		if err := n.Read(r.clk, pid, 4096, buf); err != nil {
			t.Fatal(err)
		}
	}
	// node-1 dies holding the write lock (its durable lock word is set).
	if err := r.fusion.Lock(r.clk, "node-1", pid, true); err != nil {
		t.Fatal(err)
	}
	r.fusion.CrashNode("node-1")
	if !r.fusion.NodeDead("node-1") {
		t.Fatal("CrashNode did not mark the node dead")
	}

	start := r.clk.Now()
	if err := r.fusion.Lock(r.clk, "node-0", pid, true); err != nil {
		t.Fatalf("survivor lock after crash: %v", err)
	}
	elapsed := r.clk.Now() - start
	// Within one lease interval (plus the retry-probe granularity).
	if limit := int64(DefaultLeaseNanos) + 10*DefaultLockRetryNanos; elapsed > limit {
		t.Fatalf("reclaim took %d ns, want <= %d (one lease interval)", elapsed, limit)
	}
	if err := r.fusion.unlockWriteClean(r.clk, "node-0", pid); err != nil {
		t.Fatal(err)
	}
	if rep := r.fusion.Fsck(); !rep.OK() {
		t.Fatalf("fsck after reclaim: %v", rep.Problems)
	}

	// The dead node is fenced out until it rejoins.
	if err := r.fusion.Lock(r.clk, "node-1", pid, false); !errors.Is(err, ErrNodeEvicted) {
		t.Fatalf("evicted node's RPC should be rejected, got %v", err)
	}
	if err := r.fusion.RejoinNode(r.clk, "node-1"); err != nil {
		t.Fatal(err)
	}
	if err := r.fusion.Lock(r.clk, "node-1", pid, false); err != nil {
		t.Fatalf("rejoined node should lock again: %v", err)
	}
	if err := r.fusion.UnlockRead(r.clk, "node-1", pid); err != nil {
		t.Fatal(err)
	}
}

// rpcSweepWorkload runs a fixed two-primary record workload and returns the
// final committed bytes of every page. plan (may be nil) is installed as the
// fusion injector for the duration. Every run feeds the full event stream
// through the default invariant checkers; a run that completes its workload
// must also be violation-free (stale reads, leaked locks, leaked frames).
func rpcSweepWorkload(t *testing.T, plan *fault.Plan, rp *simnet.RetryPolicy) ([][]byte, error) {
	t.Helper()
	reg := obs.New(obs.Options{})
	for _, c := range obs.DefaultCheckers() {
		reg.AddChecker(c)
	}
	r := buildRig(t, 4, 2, 16, nil, reg)
	if rp != nil {
		r.fusion.SetRetryPolicy(rp)
	}
	pids := []uint64{r.seedPage(t, 0), r.seedPage(t, 0)}
	if plan != nil {
		r.fusion.SetInjector(plan)
	}
	const rounds = 10
	for round := 0; round < rounds; round++ {
		n := r.nodes[round%2]
		pid := pids[round%len(pids)]
		if err := n.ReadModifyWrite(r.clk, pid, 4096, make([]byte, 8), func(b []byte) { b[0]++ }); err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
	}
	if plan != nil {
		plan.Disarm()
	}
	r.fusion.SetInjector(nil)
	var out [][]byte
	for _, pid := range pids {
		buf := make([]byte, 8)
		if err := r.nodes[0].Read(r.clk, pid, 4096, buf); err != nil {
			return nil, err
		}
		out = append(out, buf)
	}
	for _, v := range reg.Finish() {
		t.Errorf("invariant violation [%s]: %s", v.Checker, v.Detail)
	}
	return out, nil
}

// TestRPCRetryMakesDropsAndFailsSurvivable sweeps a one-shot drop AND a
// one-shot transient failure over EVERY fusion RPC of a fixed workload: with
// a retry policy installed, the workload must complete with the exact same
// committed bytes as the clean run; without one, the injected loss surfaces.
func TestRPCRetryMakesDropsAndFailsSurvivable(t *testing.T) {
	const seed = 7
	rp := &simnet.RetryPolicy{MaxAttempts: 3, BackoffNanos: 1_000, BackoffFactor: 2, JitterSeed: seed}

	want, err := rpcSweepWorkload(t, nil, rp)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	// Count the RPCs of the clean run with a trigger-less plan.
	counter := fault.NewPlan(seed)
	if _, err := rpcSweepWorkload(t, counter, rp); err != nil {
		t.Fatalf("counting run: %v", err)
	}
	total := counter.Count(fault.OpNetSend)
	if total == 0 {
		t.Fatal("workload exercised no fusion RPCs")
	}

	for k := int64(1); k <= total; k++ {
		for _, arm := range []struct {
			name string
			plan *fault.Plan
		}{
			{"drop", fault.NewPlan(seed).DropAt(fault.OpNetSend, k)},
			{"fail", fault.NewPlan(seed).FailAt(fault.OpNetSend, k, fault.ErrInjected)},
		} {
			got, err := rpcSweepWorkload(t, arm.plan, rp)
			if err != nil {
				t.Fatalf("%s@%d: workload must survive a transient RPC loss under retry: %v", arm.name, k, err)
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s@%d: page %d committed bytes diverged: %x vs %x", arm.name, k, i, got[i], want[i])
				}
			}
		}
	}

	// Retry is load-bearing: the same drop with no policy surfaces an error.
	if _, err := rpcSweepWorkload(t, fault.NewPlan(seed).DropAt(fault.OpNetSend, 1), nil); err == nil {
		t.Fatal("without a retry policy the dropped RPC must surface")
	}
}
