package simcpu

import (
	"runtime"
	"testing"
	"time"

	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simmem"
)

func TestDomainBackInvalidationOnStore(t *testing.T) {
	d := simmem.NewDevice("cxl", 4096, prof, nil, nil)
	r := d.WholeRegion()
	r.WriteRaw(0, []byte("v1......"))
	dom := NewDomain(0)
	a := New("nodeA", 1<<20, 5)
	b := New("nodeB", 1<<20, 5)
	dom.Attach(a)
	dom.Attach(b)
	clk := simclock.New()

	buf := make([]byte, 8)
	if err := read(b, clk, r, 0, buf); err != nil { // B caches the line
		t.Fatal(err)
	}
	if err := write(a, clk, r, 0, []byte("v2......")); err != nil { // A stores: B's copy must die
		t.Fatal(err)
	}
	if err := read(b, clk, r, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "v2......" {
		t.Fatalf("hardware coherency failed: B read %q", buf)
	}
}

func TestDomainSuppliesDirtyPeerLine(t *testing.T) {
	// A writes (dirty, NOT flushed); B's read miss must still see A's data:
	// the domain writes the dirty line back before the fill.
	d := simmem.NewDevice("cxl", 4096, prof, nil, nil)
	r := d.WholeRegion()
	dom := NewDomain(0)
	a := New("nodeA", 1<<20, 5)
	b := New("nodeB", 1<<20, 5)
	dom.Attach(a)
	dom.Attach(b)
	clk := simclock.New()

	if err := write(a, clk, r, 128, []byte("dirtyln!")); err != nil {
		t.Fatal(err)
	}
	// Device itself is stale? No: A's store back-invalidated... B never had
	// the line. The line sits dirty in A.
	buf := make([]byte, 8)
	if err := read(b, clk, r, 128, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "dirtyln!" {
		t.Fatalf("B read %q; dirty peer line not supplied", buf)
	}
	// And the device is now current (hardware wrote it back).
	dev := make([]byte, 8)
	r.ReadRaw(128, dev)
	if string(dev) != "dirtyln!" {
		t.Fatal("device not updated by snoop write-back")
	}
}

func TestDomainChargesSnoopLatency(t *testing.T) {
	d := simmem.NewDevice("cxl", 4096, prof, nil, nil)
	r := d.WholeRegion()
	dom := NewDomain(1000)
	a := New("a", 1<<20, 5)
	b := New("b", 1<<20, 5)
	dom.Attach(a)
	dom.Attach(b)
	clk := simclock.New()
	buf := make([]byte, 8)
	read(b, clk, r, 0, buf)
	before := clk.Now()
	if err := write(a, clk, r, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	// The write includes at least one 1000ns snoop (B held the line).
	if clk.Now()-before < 1000 {
		t.Fatalf("store charged only %d ns; snoop missing", clk.Now()-before)
	}
	// A second write to the now-exclusive line must not pay the snoop.
	before = clk.Now()
	if err := write(a, clk, r, 0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if clk.Now()-before >= 1000 {
		t.Fatalf("exclusive store paid a snoop: %d ns", clk.Now()-before)
	}
}

func TestDomainUnattachedCacheUnaffected(t *testing.T) {
	// A cache outside the domain keeps CXL 2.0 semantics (stale reads).
	d := simmem.NewDevice("cxl", 4096, prof, nil, nil)
	r := d.WholeRegion()
	r.WriteRaw(0, []byte("v1......"))
	dom := NewDomain(0)
	a := New("in-domain", 1<<20, 5)
	dom.Attach(a)
	outsider := New("outsider", 1<<20, 5)
	clk := simclock.New()
	buf := make([]byte, 8)
	read(outsider, clk, r, 0, buf)
	write(a, clk, r, 0, []byte("v2......"))
	a.Flush(clk, r, 0, 8)
	read(outsider, clk, r, 0, buf)
	if string(buf) != "v1......" {
		t.Fatalf("outsider saw %q; expected the stale CXL 2.0 read", buf)
	}
}

func TestDomainThreeWaySharing(t *testing.T) {
	// Three caches ping-pong a counter line; every increment must observe
	// the previous one with no software protocol at all.
	d := simmem.NewDevice("cxl", 4096, prof, nil, nil)
	r := d.WholeRegion()
	dom := NewDomain(0)
	caches := []*Cache{New("a", 1<<20, 5), New("b", 1<<20, 5), New("c", 1<<20, 5)}
	for _, c := range caches {
		dom.Attach(c)
	}
	clk := simclock.New()
	for i := 0; i < 30; i++ {
		c := caches[i%3]
		var b [1]byte
		if err := read(c, clk, r, 256, b[:]); err != nil {
			t.Fatal(err)
		}
		b[0]++
		if err := write(c, clk, r, 256, b[:]); err != nil {
			t.Fatal(err)
		}
	}
	var b [1]byte
	read(caches[0], clk, r, 256, b[:])
	if b[0] != 30 {
		t.Fatalf("counter = %d, want 30 (lost update under hw coherency)", b[0])
	}
}

// TestDomainConcurrentFillsDoNotDeadlock runs two caches of one domain on
// two goroutines, each storing to and loading the same lines. Every store
// invalidates the other cache's copy, so both keep filling, and each fill
// looks into the peer for a dirty copy. A fill must not hold its own cache
// while it waits for a peer that is doing the same.
func TestDomainConcurrentFillsDoNotDeadlock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	d := simmem.NewDevice("cxl", 4096, prof, nil, nil)
	r := d.WholeRegion()
	dom := NewDomain(0)
	caches := []*Cache{New("a", 1<<20, 5), New("b", 1<<20, 5)}
	errs := make(chan error, len(caches))
	for i, c := range caches {
		dom.Attach(c)
		go func() {
			clk := simclock.New()
			buf := make([]byte, 2*LineSize)
			for n := 0; n < 5000; n++ {
				buf[0] = byte(i)
				if err := write(c, clk, r, 0, buf); err != nil {
					errs <- err
					return
				}
				if err := read(c, clk, r, 0, buf); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	timeout := time.After(20 * time.Second)
	for range caches {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("two caches filling concurrently in one domain deadlocked")
		}
	}
}
