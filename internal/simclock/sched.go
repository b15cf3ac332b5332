package simclock

import "fmt"

// Sched runs a fixed set of logical workers one at a time, always resuming
// the runnable worker with the smallest wake time — its clock, or a timer it
// set with SleepUntil — and breaking ties in favour of the worker added
// first. Because exactly one worker runs at any moment and the next one is
// chosen from virtual times alone, shared Resources see their requests in
// the same order on every run, whatever GOMAXPROCS or the OS scheduler does:
// a multi-worker run is a function of its inputs.
//
// Workers give up the CPU only at explicit points: Yield, SleepUntil and
// Park. Code between those points runs alone. It must not block on anything
// that only another worker of the same Sched can release, except through
// Park and Wake.
//
// While a worker runs, its clock's Worker reports it, so code deep in a
// call chain (a group committer, say) can tell a scheduled caller from a
// free goroutine by the clock it was handed.
//
// Scheduler state is touched only by the running worker; the hand-off
// channels order those accesses, so Sched needs no lock.
type Sched struct {
	ws   []*Worker
	live int
	done chan error
}

// Worker is one logical execution context under a Sched.
type Worker struct {
	s        *Sched
	clk      *Clock
	fn       func(*Worker)
	wakeAt   int64
	parked   bool
	finished bool
	run      chan struct{}
}

// NewSched returns an empty scheduler.
func NewSched() *Sched { return &Sched{done: make(chan error, 1)} }

// Go adds a worker that runs fn on clk once Run starts. Call it before Run.
func (s *Sched) Go(clk *Clock, fn func(w *Worker)) {
	s.ws = append(s.ws, &Worker{s: s, clk: clk, fn: fn, wakeAt: clk.Now(), run: make(chan struct{}, 1)})
}

// Run starts the workers and returns once every one has returned. It
// reports an error when the remaining workers are all parked, since nothing
// is left to wake them; their goroutines stay blocked.
func (s *Sched) Run() error {
	s.live = len(s.ws)
	for _, w := range s.ws {
		go func(w *Worker) {
			<-w.run
			w.clk.w = w
			w.fn(w)
			w.clk.w = nil
			w.finished = true
			w.s.live--
			w.s.dispatch()
		}(w)
	}
	s.dispatch()
	return <-s.done
}

// dispatch hands the CPU to the runnable worker with the smallest wake
// time, or ends Run when none is left.
func (s *Sched) dispatch() {
	var next *Worker
	for _, w := range s.ws {
		if w.finished || w.parked {
			continue
		}
		if next == nil || w.wakeAt < next.wakeAt {
			next = w
		}
	}
	switch {
	case next != nil:
		next.run <- struct{}{}
	case s.live > 0:
		s.done <- fmt.Errorf("simclock: %d workers parked with none left to wake them", s.live)
	default:
		s.done <- nil
	}
}

// Clock reports the worker's clock.
func (w *Worker) Clock() *Clock { return w.clk }

// Yield lets every worker whose clock is behind this one's run first.
func (w *Worker) Yield() { w.SleepUntil(w.clk.Now()) }

// SleepUntil suspends the worker until every other runnable worker has
// reached virtual time t (or parked, or finished). It does not advance the
// worker's clock; a t in the clock's past acts as Yield.
func (w *Worker) SleepUntil(t int64) {
	w.wakeAt = max(t, w.clk.Now())
	w.s.dispatch()
	<-w.run
}

// Park suspends the worker until another worker calls Wake on it.
func (w *Worker) Park() {
	w.parked = true
	w.s.dispatch()
	<-w.run
}

// Wake makes a parked worker runnable again, resuming no earlier than
// virtual time at. Only the running worker may call it.
func (w *Worker) Wake(at int64) {
	w.parked = false
	w.wakeAt = max(at, w.clk.Now())
}
