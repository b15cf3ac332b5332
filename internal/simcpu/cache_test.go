package simcpu

import (
	"bytes"
	"testing"
	"testing/quick"

	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simmem"
)

var prof = simmem.Profile{Name: "cxl", ReadLatency: 549, WriteLatency: 549, ReadStream: 10e9, WriteStream: 10e9}

func newDev(t *testing.T, size int64) *simmem.Device {
	t.Helper()
	return simmem.NewDevice("cxl", size, prof, nil, nil)
}

// dirtyLines reports how many of c's cached lines are dirty.
func dirtyLines(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i := range c.lines.used {
		if c.lines.at(i).stamp != 0 && c.holds(i) && c.dirty(i) {
			n++
		}
	}
	return n
}

// residentLines reports how many lines c holds.
func residentLines(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident
}

// read is one ReadHeld in a hold of its own.
func read(c *Cache, clk *simclock.Clock, r *simmem.Region, off int64, buf []byte) error {
	c.Hold()
	defer c.Unhold()
	return c.ReadHeld(clk, r, off, buf)
}

// write is one WriteHeld in a hold of its own.
func write(c *Cache, clk *simclock.Clock, r *simmem.Region, off int64, data []byte) error {
	c.Hold()
	defer c.Unhold()
	return c.WriteHeld(clk, r, off, data)
}

func TestReadThroughAndHit(t *testing.T) {
	d := newDev(t, 4096)
	r := d.WholeRegion()
	if err := r.WriteRaw(100, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	c := New("n1", 1<<20, 5)
	clk := simclock.New()
	buf := make([]byte, 7)
	if err := read(c, clk, r, 100, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "payload" {
		t.Fatalf("read %q", buf)
	}
	missCost := clk.Now()
	if missCost < prof.ReadLatency {
		t.Fatalf("miss charged only %d ns", missCost)
	}
	// Second read: hit, cheap.
	if err := read(c, clk, r, 100, buf); err != nil {
		t.Fatal(err)
	}
	hitCost := clk.Now() - missCost
	if hitCost >= missCost {
		t.Fatalf("hit cost %d not cheaper than miss cost %d", hitCost, missCost)
	}
	st := c.Stats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWriteBackInvisibleUntilFlush(t *testing.T) {
	d := newDev(t, 4096)
	r := d.WholeRegion()
	c := New("n1", 1<<20, 5)
	clk := simclock.New()
	if err := write(c, clk, r, 0, []byte("dirty!")); err != nil {
		t.Fatal(err)
	}
	// Device must NOT yet see the write (write-back).
	buf := make([]byte, 6)
	if err := r.ReadRaw(0, buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, []byte("dirty!")) {
		t.Fatal("write-back cache leaked write to device before flush")
	}
	if dirtyLines(c) != 1 {
		t.Fatalf("dirty lines = %d, want 1", dirtyLines(c))
	}
	if err := c.Flush(clk, r, 0, 6); err != nil {
		t.Fatal(err)
	}
	if err := r.ReadRaw(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("dirty!")) {
		t.Fatalf("after flush device has %q", buf)
	}
	if dirtyLines(c) != 0 || residentLines(c) != 0 {
		t.Fatal("flush did not invalidate lines")
	}
}

func TestStaleReadWithoutInvalidation(t *testing.T) {
	// The core hazard the paper's protocol exists to fix: node B cached a
	// line, node A updates the device, B still reads the stale copy until it
	// flushes.
	d := newDev(t, 4096)
	r := d.WholeRegion()
	if err := r.WriteRaw(0, []byte("v1......")); err != nil {
		t.Fatal(err)
	}
	bCache := New("nodeB", 1<<20, 5)
	clk := simclock.New()
	buf := make([]byte, 8)
	if err := read(bCache, clk, r, 0, buf); err != nil {
		t.Fatal(err)
	}
	// Node A updates CXL directly (its own cache flushed).
	if err := r.WriteRaw(0, []byte("v2......")); err != nil {
		t.Fatal(err)
	}
	if err := read(bCache, clk, r, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "v1......" {
		t.Fatalf("expected stale read v1, got %q — cache is not functional", buf)
	}
	// After invalidation (clflush of clean lines), B sees v2.
	if err := bCache.Flush(clk, r, 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := read(bCache, clk, r, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "v2......" {
		t.Fatalf("after invalidation got %q, want v2", buf)
	}
}

func TestEvictionWritesBackDirtyLine(t *testing.T) {
	d := newDev(t, 1<<16)
	r := d.WholeRegion()
	c := New("small", 2*LineSize, 5) // 2 lines
	clk := simclock.New()
	if err := write(c, clk, r, 0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Touch two more lines: the dirty line 0 gets evicted and written back.
	buf := make([]byte, 1)
	if err := read(c, clk, r, 128, buf); err != nil {
		t.Fatal(err)
	}
	if err := read(c, clk, r, 256, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if err := r.ReadRaw(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("evicted dirty line not written back: %v", got)
	}
	if c.Stats().WriteBacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().WriteBacks)
	}
	if residentLines(c) != 2 {
		t.Fatalf("resident = %d, want 2", residentLines(c))
	}
}

func TestLRUOrder(t *testing.T) {
	d := newDev(t, 1<<16)
	r := d.WholeRegion()
	c := New("lru", 2*LineSize, 5)
	clk := simclock.New()
	buf := make([]byte, 1)
	// Fill lines 0 and 1; touch 0 again; fill 2 -> 1 must be evicted.
	read(c, clk, r, 0, buf)
	read(c, clk, r, 64, buf)
	read(c, clk, r, 0, buf)
	read(c, clk, r, 128, buf)
	st := c.Stats()
	// Line 0 should still be resident (hit on next read).
	before := st.Hits
	read(c, clk, r, 0, buf)
	if c.Stats().Hits != before+1 {
		t.Fatal("LRU evicted the recently-used line")
	}
	// Line 1 should miss.
	beforeMiss := c.Stats().Misses
	read(c, clk, r, 64, buf)
	if c.Stats().Misses != beforeMiss+1 {
		t.Fatal("LRU kept the least-recently-used line")
	}
}

func TestDropLosesDirtyData(t *testing.T) {
	d := newDev(t, 4096)
	r := d.WholeRegion()
	if err := r.WriteRaw(0, []byte("original")); err != nil {
		t.Fatal(err)
	}
	c := New("crash", 1<<20, 5)
	clk := simclock.New()
	if err := write(c, clk, r, 0, []byte("unflshed")); err != nil {
		t.Fatal(err)
	}
	c.Drop() // host crash: cache contents vanish
	buf := make([]byte, 8)
	if err := r.ReadRaw(0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "original" {
		t.Fatalf("device shows %q; dirty data must be lost on crash", buf)
	}
	if residentLines(c) != 0 {
		t.Fatal("drop left lines resident")
	}
}

func TestPartialLineWrite(t *testing.T) {
	// Writing 3 bytes in the middle of a line must preserve surrounding
	// bytes (RFO semantics).
	d := newDev(t, 4096)
	r := d.WholeRegion()
	orig := make([]byte, LineSize)
	for i := range orig {
		orig[i] = byte(i)
	}
	if err := r.WriteRaw(0, orig); err != nil {
		t.Fatal(err)
	}
	c := New("rfo", 1<<20, 5)
	clk := simclock.New()
	if err := write(c, clk, r, 10, []byte{0xAA, 0xBB, 0xCC}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(clk, r, 0, LineSize); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, LineSize)
	if err := r.ReadRaw(0, got); err != nil {
		t.Fatal(err)
	}
	want := append([]byte{}, orig...)
	want[10], want[11], want[12] = 0xAA, 0xBB, 0xCC
	if !bytes.Equal(got, want) {
		t.Fatal("partial-line write corrupted surrounding bytes")
	}
}

func TestCrossLineAccess(t *testing.T) {
	d := newDev(t, 4096)
	r := d.WholeRegion()
	data := make([]byte, 3*LineSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := r.WriteRaw(32, data); err != nil {
		t.Fatal(err)
	}
	c := New("span", 1<<20, 5)
	clk := simclock.New()
	got := make([]byte, len(data))
	if err := read(c, clk, r, 32, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-line read mismatch")
	}
	if c.Stats().Misses != 4 { // 32..32+192 spans 4 lines
		t.Fatalf("misses = %d, want 4", c.Stats().Misses)
	}
}

func TestBoundsErrors(t *testing.T) {
	d := newDev(t, 256)
	r := d.WholeRegion()
	c := New("b", 1<<20, 5)
	clk := simclock.New()
	if err := read(c, clk, r, 250, make([]byte, 10)); err == nil {
		t.Fatal("out-of-bounds cached read accepted")
	}
	if err := write(c, clk, r, -1, []byte{1}); err == nil {
		t.Fatal("negative cached write accepted")
	}
	if err := c.Flush(clk, r, 250, 10); err == nil {
		t.Fatal("out-of-bounds flush accepted")
	}
	if err := c.Flush(clk, r, 0, 0); err != nil {
		t.Fatal("zero-length flush should be a no-op")
	}
}

func TestCachedRoundTripProperty(t *testing.T) {
	// Property: write-through-cache then read-through-cache returns the data,
	// and after Flush the device agrees, for arbitrary offsets/payloads.
	d := newDev(t, 1<<16)
	r := d.WholeRegion()
	c := New("prop", 1<<20, 5)
	clk := simclock.New()
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		o := int64(off) % (r.Size() - int64(len(data)))
		if o < 0 {
			return true
		}
		if err := write(c, clk, r, o, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := read(c, clk, r, o, got); err != nil {
			return false
		}
		if !bytes.Equal(got, data) {
			return false
		}
		if err := c.Flush(clk, r, o, len(data)); err != nil {
			return false
		}
		dev := make([]byte, len(data))
		if err := r.ReadRaw(o, dev); err != nil {
			return false
		}
		return bytes.Equal(dev, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnTinyCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(capacity<line) did not panic")
		}
	}()
	New("tiny", 32, 1)
}

func TestResetStats(t *testing.T) {
	d := newDev(t, 4096)
	c := New("rs", 1<<20, 5)
	clk := simclock.New()
	read(c, clk, d.WholeRegion(), 0, make([]byte, 8))
	c.ResetStats()
	if st := c.Stats(); st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("stats after reset: %+v", st)
	}
	if residentLines(c) == 0 {
		t.Fatal("ResetStats dropped cached data")
	}
}

func TestSequentialSpanStreamsAtPrefetchRate(t *testing.T) {
	// A large contiguous read must cost far less than misses * full latency:
	// the prefetcher pipelines all lines after the first.
	d := newDev(t, 1<<20)
	r := d.WholeRegion()
	c := New("stream", 4<<20, 5)
	clk := simclock.New()
	span := make([]byte, 16384) // 256 lines
	if err := read(c, clk, r, 0, span); err != nil {
		t.Fatal(err)
	}
	serialized := int64(256) * prof.ReadLatency
	if clk.Now() >= serialized/4 {
		t.Fatalf("256-line sequential read cost %d ns; prefetcher absent (serialized would be %d)", clk.Now(), serialized)
	}
	if clk.Now() < prof.ReadLatency {
		t.Fatalf("sequential read cost %d ns; must include at least one full miss", clk.Now())
	}
	// Random single-line misses still pay full latency each.
	c2 := New("rand", 4<<20, 5)
	clk2 := simclock.New()
	var b [8]byte
	for i := 0; i < 10; i++ {
		if err := read(c2, clk2, r, int64(i)*4096, b[:]); err != nil {
			t.Fatal(err)
		}
	}
	if clk2.Now() < 10*prof.ReadLatency {
		t.Fatalf("10 random misses cost %d ns; prefetcher fired across discontiguous lines", clk2.Now())
	}
}
