package simclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	c := New()
	if c.Now() != 0 {
		t.Fatalf("new clock at %d, want 0", c.Now())
	}
	c.Advance(5 * Microsecond)
	if c.Now() != 5000 {
		t.Fatalf("after advance: %d, want 5000", c.Now())
	}
	c.Advance(-100)
	if c.Now() != 5000 {
		t.Fatalf("negative advance moved clock to %d", c.Now())
	}
	c.AdvanceTo(4000)
	if c.Now() != 5000 {
		t.Fatalf("AdvanceTo(past) moved clock to %d", c.Now())
	}
	c.AdvanceTo(9000)
	if c.Now() != 9000 {
		t.Fatalf("AdvanceTo(future): %d, want 9000", c.Now())
	}
}

func TestClockNewAtAndSeconds(t *testing.T) {
	c := NewAt(2 * Second)
	if got := c.Seconds(); got != 2.0 {
		t.Fatalf("Seconds() = %g, want 2.0", got)
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	// Property: any sequence of Advance/AdvanceTo never decreases Now.
	f := func(steps []int64) bool {
		c := New()
		prev := c.Now()
		for i, s := range steps {
			if i%2 == 0 {
				c.Advance(s % Second)
			} else {
				c.AdvanceTo(s % Second)
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResourceUncontendedServiceTime(t *testing.T) {
	// 1 GB/s resource: 1000 bytes takes 1000 ns.
	r := NewResource("link", 1e9)
	c := New()
	r.Use(c, 1000)
	if c.Now() != 1000 {
		t.Fatalf("uncontended 1000B at 1GB/s took %d ns, want 1000", c.Now())
	}
}

func TestResourceQueueing(t *testing.T) {
	r := NewResource("nic", 1e9) // 1 byte per ns
	a, b := New(), New()
	r.Use(a, 1000) // a: [0,1000)
	r.Use(b, 500)  // b arrives at 0 but must wait until 1000
	if b.Now() != 1500 {
		t.Fatalf("queued request completed at %d, want 1500", b.Now())
	}
	st := r.Stats()
	if st.Requests != 2 || st.Units != 1500 {
		t.Fatalf("stats = %+v", st)
	}
	if st.QueueNanos != 1000 {
		t.Fatalf("queue time %d, want 1000", st.QueueNanos)
	}
}

func TestResourceZeroUnits(t *testing.T) {
	r := NewResource("x", 100)
	c := NewAt(42)
	r.Use(c, 0)
	if c.Now() != 42 {
		t.Fatalf("zero-unit use moved clock to %d", c.Now())
	}
	if r.Stats().Requests != 0 {
		t.Fatal("zero-unit use was counted")
	}
}

func TestResourcePanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewResource(rate=0) did not panic")
		}
	}()
	NewResource("bad", 0)
}

func TestResourceReset(t *testing.T) {
	r := NewResource("r", 1e9)
	c := New()
	r.Use(c, 5000)
	r.Reset()
	st := r.Stats()
	if st.Requests != 0 || st.Units != 0 || st.BusyNanos != 0 {
		t.Fatalf("after reset: %+v", st)
	}
	c2 := New()
	r.Use(c2, 100)
	if c2.Now() != 100 {
		t.Fatalf("post-reset request queued behind stale state: done at %d", c2.Now())
	}
}

func TestResourceStatsThroughputUtilization(t *testing.T) {
	r := NewResource("bw", 2e9) // 2 GB/s
	c := New()
	r.Use(c, 1_000_000) // 0.5 ms busy
	st := r.Stats()
	horizon := Millisecond
	if got := st.Utilization(horizon); got < 0.49 || got > 0.51 {
		t.Fatalf("utilization = %g, want ~0.5", got)
	}
	if got := st.Throughput(horizon); got < 0.99e9 || got > 1.01e9 {
		t.Fatalf("throughput = %g, want ~1e9", got)
	}
	if st.Utilization(0) != 0 || st.Throughput(0) != 0 {
		t.Fatal("zero horizon must report zero")
	}
}

func TestResourceConcurrentUseConservesWork(t *testing.T) {
	// Property: under concurrent use, total busy time equals sum of service
	// demands and completions never overlap (nextFree is consistent).
	r := NewResource("shared", 1e9)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := New()
			for i := 0; i < per; i++ {
				r.Use(c, 100)
			}
		}()
	}
	wg.Wait()
	st := r.Stats()
	wantBusy := int64(workers * per * 100) // 100 bytes = 100 ns each
	if st.BusyNanos != wantBusy {
		t.Fatalf("busy %d, want %d", st.BusyNanos, wantBusy)
	}
	if st.LastFree < wantBusy {
		t.Fatalf("lastFree %d < total busy %d: overlapping service", st.LastFree, wantBusy)
	}
}

// TestUseRunIsRepeatedUse checks UseRun against its definition, n times
// Advance(gap) then Use, on a second resource in the same state: the clock,
// every stats field and the sequence of waits the observer sees must agree,
// over random server backlogs, clock positions, units (zero and negative
// included), run lengths and gaps (negative included).
func TestUseRunIsRepeatedUse(t *testing.T) {
	f := func(backlog, at uint32, units int16, n uint8, gap int16) bool {
		var waits [2][]int64
		var rs [2]*Resource
		var cs [2]*Clock
		for i := range rs {
			rs[i] = NewResource("r", 3e9)
			rs[i].SetWaitObserver(func(w int64) { waits[i] = append(waits[i], w) })
			rs[i].UseAt(0, int64(backlog)) // the server is busy until its backlog clears
			cs[i] = NewAt(int64(at) % (2 * Millisecond))
		}
		k := int(n % 40)
		rs[0].UseRun(cs[0], int64(units), k, int64(gap))
		for range k {
			cs[1].Advance(int64(gap))
			rs[1].Use(cs[1], int64(units))
		}
		if cs[0].Now() != cs[1].Now() || rs[0].Stats() != rs[1].Stats() || len(waits[0]) != len(waits[1]) {
			return false
		}
		for j := range waits[0] {
			if waits[0][j] != waits[1][j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestUseRunRacesUse books runs and single requests on one resource from
// several goroutines at once: the stats must sum every request, its units
// and service time, the observer must see every request once, and the
// queueing it was told of must sum to the resource's.
func TestUseRunRacesUse(t *testing.T) {
	r := NewResource("shared", 1e9) // 100 units = 100 ns
	var seen, waited atomic.Int64
	r.SetWaitObserver(func(w int64) {
		seen.Add(1)
		waited.Add(w)
	})
	const workers, per, run = 8, 40, 7
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := New()
			for range per {
				if w%2 == 0 {
					r.UseRun(c, 100, run, 3)
				} else {
					r.Use(c, 100)
				}
			}
		}()
	}
	wg.Wait()
	st := r.Stats()
	reqs := int64(workers/2*per*run + workers/2*per)
	if st.Requests != reqs || st.Units != 100*reqs || st.BusyNanos != 100*reqs {
		t.Fatalf("stats %+v, want %d requests of 100 units and 100 ns", st, reqs)
	}
	if seen.Load() != reqs || waited.Load() != st.QueueNanos {
		t.Fatalf("observer saw %d requests waiting %d ns, want %d and %d", seen.Load(), waited.Load(), reqs, st.QueueNanos)
	}
	if st.LastFree < st.BusyNanos {
		t.Fatalf("lastFree %d < total busy %d: overlapping service", st.LastFree, st.BusyNanos)
	}
}

func TestServiceTime(t *testing.T) {
	r := NewResource("s", 12e9) // 12 GB/s NIC
	if got := r.ServiceTime(12_000); got != 1000 {
		t.Fatalf("ServiceTime(12000B @12GB/s) = %d ns, want 1000", got)
	}
	if r.Rate() != 12e9 || r.Name() != "s" {
		t.Fatal("accessors wrong")
	}
}
