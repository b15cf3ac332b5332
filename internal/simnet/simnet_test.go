package simnet

import (
	"errors"
	"testing"

	"polarcxlmem/internal/simclock"
)

func TestCallChargesRTTAndRunsHandler(t *testing.T) {
	f := New(10_000, nil, nil)
	if f.RTT() != 10_000 {
		t.Fatalf("rtt = %d", f.RTT())
	}
	f.Register("svc", "echo", func(clk *simclock.Clock, req any) (any, error) {
		return req, nil
	})
	clk := simclock.New()
	resp, err := f.Call(clk, "svc", "echo", 0, "hello")
	if err != nil || resp != "hello" {
		t.Fatalf("resp = %v, %v", resp, err)
	}
	if clk.Now() != 10_000 {
		t.Fatalf("call charged %d ns", clk.Now())
	}
	if f.Calls() != 1 {
		t.Fatalf("calls = %d", f.Calls())
	}
}

func TestCallUnknownEndpointOrMethod(t *testing.T) {
	f := New(100, nil, nil)
	clk := simclock.New()
	if _, err := f.Call(clk, "ghost", "m", 0, nil); err == nil {
		t.Fatal("call to unknown endpoint succeeded")
	}
	f.Register("svc", "a", func(clk *simclock.Clock, req any) (any, error) { return nil, nil })
	if _, err := f.Call(clk, "svc", "b", 0, nil); err == nil {
		t.Fatal("call to unknown method succeeded")
	}
	if f.Calls() != 0 {
		t.Fatal("failed calls were counted")
	}
}

func TestDeregisterSimulatesCrashedServer(t *testing.T) {
	f := New(100, nil, nil)
	f.Register("svc", "m", func(clk *simclock.Clock, req any) (any, error) { return 1, nil })
	clk := simclock.New()
	if _, err := f.Call(clk, "svc", "m", 0, nil); err != nil {
		t.Fatal(err)
	}
	f.Deregister("svc")
	if _, err := f.Call(clk, "svc", "m", 0, nil); err == nil {
		t.Fatal("call to deregistered endpoint succeeded")
	}
}

func TestHandlerErrorsPropagate(t *testing.T) {
	f := New(100, nil, nil)
	boom := errors.New("server-side failure")
	f.Register("svc", "fail", func(clk *simclock.Clock, req any) (any, error) { return nil, boom })
	clk := simclock.New()
	if _, err := f.Call(clk, "svc", "fail", 0, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestBandwidthChargedForPayload(t *testing.T) {
	bw := simclock.NewResource("net", 1e9) // 1 B/ns
	f := New(1_000, bw, nil)
	f.Register("svc", "put", func(clk *simclock.Clock, req any) (any, error) { return nil, nil })
	a, b := simclock.New(), simclock.New()
	if _, err := f.Call(a, "svc", "put", 4096, nil); err != nil {
		t.Fatal(err)
	}
	if a.Now() != 1_000+4096 {
		t.Fatalf("first call at %d", a.Now())
	}
	// Second concurrent call queues on the wire.
	if _, err := f.Call(b, "svc", "put", 4096, nil); err != nil {
		t.Fatal(err)
	}
	if b.Now() < 1_000+2*4096 {
		t.Fatalf("second call did not queue: %d", b.Now())
	}
}

func TestHandlerRunsOnCallerClock(t *testing.T) {
	// Server-side work during the call extends the caller's timeline.
	f := New(500, nil, nil)
	f.Register("svc", "work", func(clk *simclock.Clock, req any) (any, error) {
		clk.Advance(7_000)
		return nil, nil
	})
	clk := simclock.New()
	if _, err := f.Call(clk, "svc", "work", 0, nil); err != nil {
		t.Fatal(err)
	}
	if clk.Now() != 7_500 {
		t.Fatalf("clock = %d, want 7500", clk.Now())
	}
}

func TestReRegisterReplacesHandler(t *testing.T) {
	f := New(1, nil, nil)
	f.Register("svc", "v", func(clk *simclock.Clock, req any) (any, error) { return 1, nil })
	f.Register("svc", "v", func(clk *simclock.Clock, req any) (any, error) { return 2, nil })
	clk := simclock.New()
	resp, err := f.Call(clk, "svc", "v", 0, nil)
	if err != nil || resp != 2 {
		t.Fatalf("resp = %v, %v", resp, err)
	}
}
