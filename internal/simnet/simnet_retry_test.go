package simnet

import (
	"errors"
	"testing"

	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/simclock"
)

// The at-most-once retry layer: transient send/reply loss is absorbed,
// handlers never run twice, and exhaustion surfaces as a typed deadline.

func retryFabric(rp *RetryPolicy) (*Fabric, *int) {
	f := New(10_000, nil, nil)
	served := 0
	f.Register("svc", "inc", func(clk *simclock.Clock, req any) (any, error) {
		served++
		return req.(int) + 1, nil
	})
	f.SetRetryPolicy(rp)
	return f, &served
}

func TestRetryAbsorbsDroppedSend(t *testing.T) {
	f, served := retryFabric(&RetryPolicy{MaxAttempts: 3, BackoffNanos: 1_000})
	f.SetInjector(fault.NewPlan(1).DropAt(fault.OpNetSend, 1))
	clk := simclock.New()
	resp, err := f.Call(clk, "svc", "inc", 8, 41)
	if err != nil || resp != 42 {
		t.Fatalf("call through a dropped send = %v, %v", resp, err)
	}
	if *served != 1 {
		t.Fatalf("handler ran %d times, want 1", *served)
	}
	// One RTT plus at least the base backoff was charged.
	if clk.Now() < 10_000+1_000 {
		t.Fatalf("charged %d ns; retry must pay the backoff", clk.Now())
	}
}

// TestLostReplyIsIdempotent is the at-most-once heart: the handler runs,
// the REPLY is lost, and the retransmit must be answered from the reply
// cache — the handler must not execute a second time.
func TestLostReplyIsIdempotent(t *testing.T) {
	f, served := retryFabric(&RetryPolicy{MaxAttempts: 3, BackoffNanos: 1_000})
	f.SetInjector(fault.NewPlan(1).DropAt(fault.OpNetRecv, 1))
	resp, err := f.Call(simclock.New(), "svc", "inc", 8, 41)
	if err != nil || resp != 42 {
		t.Fatalf("call through a lost reply = %v, %v", resp, err)
	}
	if *served != 1 {
		t.Fatalf("handler ran %d times, want exactly 1 (reply cache must answer the retransmit)", *served)
	}
	if f.Calls() != 1 {
		t.Fatalf("Calls() = %d, want 1", f.Calls())
	}
}

func TestRetryBudgetExhaustionSurfacesDeadline(t *testing.T) {
	f, served := retryFabric(&RetryPolicy{MaxAttempts: 3, BackoffNanos: 1_000})
	plan := fault.NewPlan(1)
	for i := int64(1); i <= 3; i++ {
		plan.DropAt(fault.OpNetSend, i)
	}
	f.SetInjector(plan)
	_, err := f.Call(simclock.New(), "svc", "inc", 8, 41)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline after exhausting attempts, got %v", err)
	}
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlineError, got %T", err)
	}
	if de.Attempts != 3 || de.Last == nil {
		t.Fatalf("deadline metadata wrong: %+v", de)
	}
	if *served != 0 {
		t.Fatalf("handler ran %d times despite every send being lost", *served)
	}
}

func TestDeadlineNanosCapsTotalWait(t *testing.T) {
	f, _ := retryFabric(&RetryPolicy{MaxAttempts: 100, BackoffNanos: 50_000, DeadlineNanos: 60_000})
	plan := fault.NewPlan(1)
	for i := int64(1); i <= 100; i++ {
		plan.DropAt(fault.OpNetSend, i)
	}
	f.SetInjector(plan)
	clk := simclock.New()
	_, err := f.Call(clk, "svc", "inc", 8, 41)
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlineError, got %v", err)
	}
	if de.Attempts >= 100 {
		t.Fatalf("deadline should cut the attempt budget short, used %d attempts", de.Attempts)
	}
}

// TestCrashAndNoEndpointAreNotRetried: a latched host crash and a missing
// endpoint cannot be fixed by retransmission — both must fail fast, without
// consuming the retry budget.
func TestCrashAndNoEndpointAreNotRetried(t *testing.T) {
	f, served := retryFabric(&RetryPolicy{MaxAttempts: 5, BackoffNanos: 1_000})
	plan := fault.NewPlan(1).CrashAt(fault.OpNetSend, 1)
	f.SetInjector(plan)
	_, err := f.Call(simclock.New(), "svc", "inc", 8, 41)
	if !fault.IsCrash(err) {
		t.Fatalf("want the crash error, got %v", err)
	}
	if n := plan.Count(fault.OpNetSend); n != 1 {
		t.Fatalf("crashed call attempted %d sends, want 1", n)
	}
	if *served != 0 {
		t.Fatal("handler ran through a crashed send")
	}

	f2, _ := retryFabric(&RetryPolicy{MaxAttempts: 5, BackoffNanos: 1_000})
	clk := simclock.New()
	_, err = f2.Call(clk, "nobody", "inc", 8, 41)
	if !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("want ErrNoEndpoint, got %v", err)
	}
	if clk.Now() != 0 {
		t.Fatalf("missing endpoint burned %d ns of backoff", clk.Now())
	}
}

// TestBackoffDeterministicAndBounded: Backoff is a pure function of
// (policy, reqID, attempt) — replayable — with jitter within [base, 1.25*base)
// and exponential growth across attempts.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	rp := RetryPolicy{BackoffNanos: 1_000, BackoffFactor: 2, JitterSeed: 9}
	for attempt := 1; attempt <= 4; attempt++ {
		base := int64(1_000)
		for i := 1; i < attempt; i++ {
			base *= 2
		}
		for reqID := uint64(1); reqID <= 8; reqID++ {
			b1 := rp.Backoff(reqID, attempt)
			if b2 := rp.Backoff(reqID, attempt); b2 != b1 {
				t.Fatalf("Backoff(%d,%d) not deterministic: %d vs %d", reqID, attempt, b1, b2)
			}
			if b1 < base || b1 >= base+base/4 {
				t.Fatalf("Backoff(%d,%d) = %d, want in [%d, %d)", reqID, attempt, b1, base, base+base/4)
			}
		}
	}
	// Different request IDs decorrelate: not every backoff is identical.
	seen := map[int64]bool{}
	for reqID := uint64(1); reqID <= 16; reqID++ {
		seen[rp.Backoff(reqID, 1)] = true
	}
	if len(seen) < 2 {
		t.Fatal("jitter produced identical backoffs for 16 request ids")
	}
}
