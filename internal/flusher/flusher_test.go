package flusher

import (
	"errors"
	"sync"
	"testing"

	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
)

// fakeTarget records FlushBatch calls.
type fakeTarget struct {
	mu    sync.Mutex
	dirty int
	maxes []int
	fail  error
}

func (f *fakeTarget) FlushBatch(clk *simclock.Clock, max int) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail != nil {
		err := f.fail
		f.fail = nil
		return 0, err
	}
	f.maxes = append(f.maxes, max)
	n := max
	if n > f.dirty {
		n = f.dirty
	}
	f.dirty -= n
	return n, nil
}

func (f *fakeTarget) DirtyResident() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dirty
}

func TestTickRespectsInterval(t *testing.T) {
	tgt := &fakeTarget{dirty: 100}
	fl := New(tgt, Policy{IntervalNanos: 1000, MinBatch: 2, MaxBatch: 8}, nil, nil)
	clk := simclock.New()

	if err := fl.Tick(clk); err != nil { // first tick runs (nextDue zero)
		t.Fatal(err)
	}
	if fl.Runs() != 1 {
		t.Fatalf("Runs = %d, want 1", fl.Runs())
	}
	if err := fl.Tick(clk); err != nil { // same instant: gated
		t.Fatal(err)
	}
	if fl.Runs() != 1 {
		t.Fatalf("Runs after same-instant tick = %d, want 1", fl.Runs())
	}
	clk.Advance(1000)
	if err := fl.Tick(clk); err != nil {
		t.Fatal(err)
	}
	if fl.Runs() != 2 {
		t.Fatalf("Runs after interval = %d, want 2", fl.Runs())
	}
	if fl.PagesFlushed() != 4 { // two MinBatch runs with no redo signal
		t.Fatalf("PagesFlushed = %d, want 4", fl.PagesFlushed())
	}
}

func TestBatchSizeAdaptsToRedoBacklog(t *testing.T) {
	tgt := &fakeTarget{dirty: 1 << 20}
	var backlog int64
	fl := New(tgt, Policy{IntervalNanos: 1, MinBatch: 4, MaxBatch: 64, RedoBudgetBytes: 1000},
		func() int64 { return backlog }, nil)
	clk := simclock.New()

	for i, tc := range []struct {
		redo int64
		want int
	}{
		{0, 4},       // no backlog: MinBatch
		{500, 34},    // halfway: midpoint
		{1000, 64},   // at budget: MaxBatch
		{100000, 64}, // beyond budget: clamped
	} {
		backlog = tc.redo
		clk.Advance(10)
		if err := fl.Tick(clk); err != nil {
			t.Fatal(err)
		}
		got := tgt.maxes[i]
		if got != tc.want {
			t.Fatalf("redo %d: batch = %d, want %d", tc.redo, got, tc.want)
		}
	}
}

func TestTickPropagatesFlushError(t *testing.T) {
	boom := errors.New("injected crash")
	tgt := &fakeTarget{dirty: 10, fail: boom}
	fl := New(tgt, Policy{}, nil, nil)
	if err := fl.Tick(simclock.New()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestConcurrentTicksDoNotStack(t *testing.T) {
	tgt := &fakeTarget{dirty: 1 << 30}
	reg := obs.New(obs.Options{})
	fl := New(tgt, Policy{IntervalNanos: 1}, nil, reg)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clk := simclock.New()
			for i := 0; i < 200; i++ {
				clk.Advance(10)
				if err := fl.Tick(clk); err != nil {
					t.Errorf("Tick: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if fl.Runs() == 0 {
		t.Fatal("no flush runs executed")
	}
	snap := reg.Snapshot()
	if c, ok := snap.Counters["flush.runs"]; !ok || c != fl.Runs() {
		t.Fatalf("flush.runs counter = %d (ok=%v), want %d", c, ok, fl.Runs())
	}
	if h, ok := snap.Histograms["flush.batch_pages"]; !ok || h.Count != fl.Runs() {
		t.Fatalf("flush.batch_pages count = %+v, want %d", h, fl.Runs())
	}
}
