package simclock

import (
	"reflect"
	"testing"
)

// TestSchedLowestClockFirst: workers interleave strictly by virtual time,
// ties going to the worker added first, however long each step takes in
// wall time. A worker's clock reports it only while the worker runs.
func TestSchedLowestClockFirst(t *testing.T) {
	s := NewSched()
	var order []int
	step := []int64{30, 20, 50}
	clocks := []*Clock{New(), New(), New()}
	for id := range step {
		s.Go(clocks[id], func(w *Worker) {
			for i := 0; i < 3; i++ {
				if w.Clock().Worker() != w {
					t.Errorf("worker %d: its clock does not report it", id)
				}
				order = append(order, id)
				w.Clock().Advance(step[id])
				w.Yield()
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Clocks before each step: w0 0,30,60; w1 0,20,40; w2 0,50,100.
	want := []int{0, 1, 2, 1, 0, 1, 2, 0, 2}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("run order %v, want %v", order, want)
	}
	for id, c := range clocks {
		if c.Worker() != nil {
			t.Fatalf("clock %d still reports a worker after Run returned", id)
		}
	}
}

// TestSchedSleepParkWake: a sleeper resumes only after every worker behind
// its wake time has run, and a parked worker resumes at the time its waker
// gives it.
func TestSchedSleepParkWake(t *testing.T) {
	s := NewSched()
	var log []string
	var parked *Worker
	s.Go(New(), func(w *Worker) {
		log = append(log, "sleep")
		w.SleepUntil(100)
		log = append(log, "woke")
		if w.Clock().Now() != 0 {
			t.Errorf("SleepUntil advanced the clock to %d", w.Clock().Now())
		}
		parked.Wake(250)
	})
	s.Go(NewAt(10), func(w *Worker) {
		parked = w
		log = append(log, "park")
		w.Park()
		log = append(log, "unparked")
		w.Clock().AdvanceTo(250)
	})
	s.Go(NewAt(90), func(w *Worker) {
		log = append(log, "run@90")
		w.Clock().Advance(20)
		w.Yield()
		log = append(log, "run@110")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"sleep", "park", "run@90", "woke", "run@110", "unparked"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("events %v, want %v", log, want)
	}
}

// TestSchedAllParkedIsAnError: Run reports, rather than hangs on, workers
// that park with nobody left to wake them.
func TestSchedAllParkedIsAnError(t *testing.T) {
	s := NewSched()
	s.Go(New(), func(w *Worker) {})
	s.Go(New(), func(w *Worker) { w.Park() })
	if err := s.Run(); err == nil {
		t.Fatal("Run returned nil with a worker parked forever")
	}
}
