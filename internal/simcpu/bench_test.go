package simcpu

import (
	"fmt"
	"testing"

	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simmem"
)

// benchCacheBytes is the eviction benchmarks' cache size: 131,072 lines.
const benchCacheBytes = 8 << 20

// benchLoads runs b.N held word loads at the offsets next yields, in one
// hold, after warm loads that bring the cache to its steady state, and
// returns the cache's stats over the timed loads.
func benchLoads(b *testing.B, devBytes int64, warm int, next func() int64) Stats {
	r := simmem.NewDevice("cxl", devBytes, prof, nil, nil).WholeRegion()
	c := New("bench", benchCacheBytes, 5)
	clk := simclock.New()
	c.Hold()
	defer c.Unhold()
	load := func() {
		if _, err := c.LoadHeld(clk, r, next(), 8); err != nil {
			b.Fatal(err)
		}
	}
	for range warm {
		load()
	}
	c.stats = Stats{}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		load()
	}
	return c.stats
}

// BenchmarkEvictingScan loads one word per line in a cyclic scan over
// twice the cache's size: every access misses and evicts the LRU line.
func BenchmarkEvictingScan(b *testing.B) {
	const span = 2 * benchCacheBytes
	off := int64(0)
	st := benchLoads(b, span, span/LineSize, func() int64 {
		o := off
		off = (off + LineSize) % span
		return o
	})
	if st.Hits != 0 {
		b.Fatalf("the scan hit %d times", st.Hits)
	}
}

// BenchmarkHotSetColdStream makes three of every four accesses to a hot
// set half the cache's size, in a scrambled cyclic order, and the fourth to
// a cold stream twice the cache's size: hot lines hit and stay resident,
// and every cold access misses and evicts an older cold line.
func BenchmarkHotSetColdStream(b *testing.B) {
	const (
		hotLines  = benchCacheBytes / LineSize / 2
		coldBytes = 2 * benchCacheBytes
		stride    = 40503 // odd, so the hot walk visits every hot line
	)
	hot, cold, k := 0, int64(0), 0
	st := benchLoads(b, hotLines*LineSize+coldBytes, 4*coldBytes/LineSize, func() int64 {
		k++
		if k%4 == 0 {
			o := hotLines*LineSize + cold
			cold = (cold + LineSize) % coldBytes
			return o
		}
		hot = (hot + stride) & (hotLines - 1)
		return int64(hot) * LineSize
	})
	if want := int64(b.N / 4); st.Misses != want {
		b.Fatalf("%d misses in %d loads, want %d: a hot line was evicted", st.Misses, b.N, want)
	}
}

// BenchmarkSpanRefetchPage is the sharing protocol's publish-then-refetch
// pattern: Flush a 16 KiB page image laid out as in a core pool (off a 4
// KiB boundary, so it spans five blocks), then read all of it back in one
// held span, with a link charged per line: every line misses, in runs.
func BenchmarkSpanRefetchPage(b *testing.B) {
	const pageOff, pageSize = corePageBase, corePageSize
	r := simmem.NewDevice("cxl", 1<<20, prof, nil, nil).WholeRegion()
	c := New("bench", benchCacheBytes, 5)
	c.SetInterconnect(simclock.NewResource("link", 64e9))
	clk := simclock.New()
	buf := make([]byte, pageSize)
	refetch := func() {
		if err := c.Flush(clk, r, pageOff, pageSize); err != nil {
			b.Fatal(err)
		}
		c.Hold()
		defer c.Unhold()
		if err := c.ReadHeld(clk, r, pageOff, buf); err != nil {
			b.Fatal(err)
		}
	}
	refetch() // fills: slab chunks and block index entries
	refetch() // flushes: the slab's free list
	c.stats = Stats{}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		refetch()
	}
	if want := int64(b.N) * pageSize / LineSize; c.stats.Misses != want || c.stats.Hits != 0 {
		b.Fatalf("%d misses and %d hits in %d refetches, want %d misses", c.stats.Misses, c.stats.Hits, b.N, want)
	}
}

// BenchmarkFlushPage flushes a resident 16 KiB page image laid out as in a
// core pool (five blocks), as a publish or an invalidation does: clean, and
// holding 8 dirty lines spread over its blocks. Only the Flush is timed;
// each iteration first reads the whole page back in (and dirties its
// lines) with the timer stopped.
func BenchmarkFlushPage(b *testing.B) {
	const pageOff, pageSize = corePageBase, corePageSize
	for _, dirty := range []int{0, 8} {
		b.Run(fmt.Sprintf("dirty=%d", dirty), func(b *testing.B) {
			r := simmem.NewDevice("cxl", 1<<20, prof, nil, nil).WholeRegion()
			c := New("bench", benchCacheBytes, 5)
			c.SetInterconnect(simclock.NewResource("link", 64e9))
			clk := simclock.New()
			buf := make([]byte, pageSize)
			fill := func() {
				c.Hold()
				defer c.Unhold()
				if err := c.ReadHeld(clk, r, pageOff, buf); err != nil {
					b.Fatal(err)
				}
				for k := range dirty {
					if err := c.StoreHeld(clk, r, pageOff+int64(k)*pageSize/int64(dirty), 8, uint64(k)); err != nil {
						b.Fatal(err)
					}
				}
			}
			flush := func() {
				if err := c.Flush(clk, r, pageOff, pageSize); err != nil {
					b.Fatal(err)
				}
			}
			fill() // slab chunks and block index entries
			flush()
			c.stats = Stats{}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				fill()
				b.StartTimer()
				flush()
			}
			if c.stats.Flushed != int64(b.N)*pageSize/LineSize || c.stats.WriteBacks != int64(b.N*dirty) {
				b.Fatalf("%d flushes flushed %d lines and wrote back %d", b.N, c.stats.Flushed, c.stats.WriteBacks)
			}
		})
	}
}
