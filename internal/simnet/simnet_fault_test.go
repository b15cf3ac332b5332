package simnet

import (
	"errors"
	"strings"
	"testing"

	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/simclock"
)

func TestInjectedSendFailureAfterBytes(t *testing.T) {
	f := New(100, nil, nil)
	f.Register("svc", "echo", func(clk *simclock.Clock, req any) (any, error) {
		return req, nil
	})
	errLink := errors.New("fabric link down")
	plan := fault.NewPlan(3).FailAfterBytes(fault.OpNetSend, 100, errLink)
	f.SetInjector(plan)
	clk := simclock.New()

	if _, err := f.Call(clk, "svc", "echo", 60, "a"); err != nil {
		t.Fatalf("send #1 (60 B cumulative): %v", err)
	}
	if _, err := f.Call(clk, "svc", "echo", 60, "b"); !errors.Is(err, errLink) {
		t.Fatalf("send #2 (120 B cumulative): want link error, got %v", err)
	}
	// Persistent trigger: the fabric stays broken, handlers never run and
	// the clock is not charged for failed sends.
	before := clk.Now()
	if _, err := f.Call(clk, "svc", "echo", 1, "c"); !errors.Is(err, errLink) {
		t.Fatalf("send #3: want link error, got %v", err)
	}
	if clk.Now() != before {
		t.Fatalf("failed send charged the clock: %d -> %d", before, clk.Now())
	}
	if f.Calls() != 1 {
		t.Fatalf("completed calls = %d, want 1 (failed sends must not count)", f.Calls())
	}
	f.SetInjector(nil)
	if _, err := f.Call(clk, "svc", "echo", 60, "d"); err != nil {
		t.Fatalf("send after removing injector: %v", err)
	}
}

func TestInjectedSendDrop(t *testing.T) {
	f := New(100, nil, nil)
	f.Register("svc", "echo", func(clk *simclock.Clock, req any) (any, error) {
		return req, nil
	})
	plan := fault.NewPlan(1).DropAt(fault.OpNetSend, 1)
	f.SetInjector(plan)
	clk := simclock.New()
	// A synchronous fabric surfaces message loss as a failed send, naming
	// the lost request.
	_, err := f.Call(clk, "svc", "echo", 8, "x")
	if !fault.IsDrop(err) {
		t.Fatalf("dropped send: want drop classification, got %v", err)
	}
	if !strings.Contains(err.Error(), "svc.echo") || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("drop error should name the lost request: %v", err)
	}
	// One-shot: the retry goes through.
	if _, err := f.Call(clk, "svc", "echo", 8, "x"); err != nil {
		t.Fatalf("retry after one-shot drop: %v", err)
	}
}
