package dataplane

import (
	"testing"

	"polarcxlmem/internal/txn"
)

// stepAllocs is what one steady-state round of four Submits and the Step
// that runs them as one batch allocates: the batch's transaction (txn.Begin)
// and nothing per request — the queue and batch buffers are reused, and
// the batch's ops run through one stack-held function.
const stepAllocs = 1

// TestStepAllocations pins the heap allocations of a Submit-and-Step round
// whose requests do no work, so what is counted is the router's own.
func TestStepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	r := newRig(t, 10)
	router := New(r.eng, Config{Workers: 1, BatchSize: 4})
	nop := func(*txn.Txn) error { return nil }
	round := func() {
		for s := range 4 {
			if err := router.Submit(Request{Session: s, Arrival: r.clk.Now(), Op: nop}); err != nil {
				t.Fatal(err)
			}
		}
		if !router.Step() || router.Step() {
			t.Fatal("four requests did not run as one batch")
		}
	}
	for range 8 {
		round() // grow the queue and batch buffers
	}
	if n := testing.AllocsPerRun(200, round); n != stepAllocs {
		t.Errorf("Submit+Step round: %v allocations per run, want %d", n, stepAllocs)
	}
}
