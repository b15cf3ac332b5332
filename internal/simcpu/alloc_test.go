package simcpu

import (
	"testing"

	"polarcxlmem/internal/simclock"
)

// TestHotPathsAllocateNothing gates the cache's steady state at zero heap
// allocations: hits, held word accesses, a page-wide clflush of written
// lines and of a resident page with dirty lines, and misses that evict.
func TestHotPathsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	d := newDev(t, 1<<20)
	r := d.WholeRegion()
	clk := simclock.New()
	buf := make([]byte, 200)
	gate := func(name string, f func()) {
		t.Helper()
		f() // warm up: slab chunks, index buckets, free-list capacity
		if n := testing.AllocsPerRun(200, f); n != 0 {
			t.Errorf("%s: %v allocations per run, want 0", name, n)
		}
	}

	c := New("hot", 1<<20, 5)
	gate("read hit", func() {
		if err := read(c, clk, r, 100, buf); err != nil {
			t.Fatal(err)
		}
	})
	gate("write hit", func() {
		if err := write(c, clk, r, 100, buf); err != nil {
			t.Fatal(err)
		}
	})
	gate("held word loads and stores", func() {
		c.Hold()
		defer c.Unhold()
		for _, off := range []int64{96, 126, 1000} { // 126: straddles a line
			v, err := c.LoadHeld(clk, r, off, 8)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.StoreHeld(clk, r, off, 4, v+1); err != nil {
				t.Fatal(err)
			}
		}
	})
	const pageSize = 16 << 10
	gate("page-wide flush", func() {
		for _, off := range []int64{pageSize, pageSize + 4000, 2*pageSize - 300} {
			if err := write(c, clk, r, off, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(clk, r, pageSize, pageSize); err != nil {
			t.Fatal(err)
		}
	})

	page := make([]byte, pageSize)
	gate("flush of a resident page with dirty lines", func() {
		if err := read(c, clk, r, 3*pageSize-200, page); err != nil {
			t.Fatal(err)
		}
		for _, off := range []int64{0, 5000, 9000, pageSize - 8} {
			if err := write(c, clk, r, 3*pageSize-200+off, buf[:8]); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(clk, r, 3*pageSize-200, pageSize); err != nil {
			t.Fatal(err)
		}
	})

	small := New("evicting", 8*LineSize, 5)
	next := int64(0)
	gate("evicting miss", func() {
		// 64 distinct lines over 16 blocks cycle through an 8-line cache:
		// every access misses, evicts a dirty line, and turns blocks over.
		off := (next % 64) * (blockSize / 4)
		next++
		if err := write(small, clk, r, off, buf[:8]); err != nil {
			t.Fatal(err)
		}
	})
	if st := small.Stats(); st.Hits != 0 || st.WriteBacks == 0 {
		t.Fatalf("evicting-miss gate did not miss and write back: %+v", st)
	}
}
