package storage

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
)

func img(fill byte) []byte {
	b := make([]byte, page.Size)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := New(Config{})
	clk := simclock.New()
	id := s.AllocPageID()
	if id != 1 {
		t.Fatalf("first id = %d", id)
	}
	if err := s.WritePage(clk, id, img(0x5A)); err != nil {
		t.Fatal(err)
	}
	afterWrite := clk.Now()
	if afterWrite < DefaultWriteNanos {
		t.Fatalf("write charged %d ns", afterWrite)
	}
	buf := make([]byte, page.Size)
	if err := s.ReadPage(clk, id, buf); err != nil {
		t.Fatal(err)
	}
	if clk.Now()-afterWrite < DefaultReadNanos {
		t.Fatal("read undercharged")
	}
	// Checksum was stamped; the rest of the payload must match.
	want := img(0x5A)
	page.StampChecksum(want)
	if !bytes.Equal(buf, want) {
		t.Fatal("image mismatch")
	}
	if !s.Has(id) || s.PageCount() != 1 {
		t.Fatal("bookkeeping wrong")
	}
}

func TestReadMissingPage(t *testing.T) {
	s := New(Config{})
	clk := simclock.New()
	buf := make([]byte, page.Size)
	if err := s.ReadPage(clk, 99, buf); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("err = %v", err)
	}
}

func TestSizeValidation(t *testing.T) {
	s := New(Config{})
	clk := simclock.New()
	if err := s.WritePage(clk, 1, make([]byte, 100)); err == nil {
		t.Fatal("short write accepted")
	}
	if err := s.ReadPage(clk, 1, make([]byte, 100)); err == nil {
		t.Fatal("short read buffer accepted")
	}
}

func TestAllocatorMonotonicAndBump(t *testing.T) {
	s := New(Config{})
	a, b := s.AllocPageID(), s.AllocPageID()
	if b != a+1 {
		t.Fatalf("ids %d, %d", a, b)
	}
	s.BumpNextID(100)
	if s.NextID() != 101 {
		t.Fatalf("next = %d", s.NextID())
	}
	if got := s.AllocPageID(); got != 101 {
		t.Fatalf("post-bump alloc = %d", got)
	}
	s.BumpNextID(5) // must not regress
	if s.NextID() != 102 {
		t.Fatal("allocator regressed")
	}
}

func TestWriteBeyondAllocatorAdvancesIt(t *testing.T) {
	s := New(Config{})
	clk := simclock.New()
	if err := s.WritePage(clk, 50, img(1)); err != nil {
		t.Fatal(err)
	}
	if got := s.AllocPageID(); got != 51 {
		t.Fatalf("alloc after direct write = %d", got)
	}
}

func TestOverwriteKeepsLatest(t *testing.T) {
	s := New(Config{})
	clk := simclock.New()
	s.WritePage(clk, 1, img(0x11))
	s.WritePage(clk, 1, img(0x22))
	buf := make([]byte, page.Size)
	if err := s.ReadPage(clk, 1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[1000] != 0x22 {
		t.Fatal("overwrite lost")
	}
	if s.PageCount() != 1 {
		t.Fatal("overwrite duplicated page")
	}
}

func TestBandwidthShared(t *testing.T) {
	s := New(Config{Bandwidth: 1e9})
	a, b := simclock.New(), simclock.New()
	s.WritePage(a, 1, img(1))
	s.WritePage(b, 2, img(2))
	// Each page is 16384 B at 1 GB/s = 16384 ns; the second must queue.
	if b.Now() < DefaultWriteNanos+2*16384 {
		t.Fatalf("no queueing on storage channel: b at %d", b.Now())
	}
	if s.Device().Stats().Units != 2*page.Size {
		t.Fatalf("device units = %d", s.Device().Stats().Units)
	}
}

func TestStoreSurvivesClientDrop(t *testing.T) {
	s := New(Config{})
	clk := simclock.New()
	s.WritePage(clk, 7, img(0xAB))
	// Simulated crash: new clock, same store.
	clk2 := simclock.New()
	buf := make([]byte, page.Size)
	if err := s.ReadPage(clk2, 7, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAB {
		t.Fatal("store lost page across client crash")
	}
}

// TestOverwriteAllocatesNothing: a write over a page that already has a
// durable image reuses that image; only a page's first write allocates.
func TestOverwriteAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := New(Config{})
	clk := simclock.New()
	src := img(0x33)
	if err := s.WritePage(clk, 1, src); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := s.WritePage(clk, 1, src); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("WritePage over an existing page: %v allocs, want 0", n)
	}
}

// TestReadsNeverSeeHalfWrittenImage: one writer overwrites a page in place
// with alternating fills while readers copy it out. Every read must verify
// its checksum and hold a single fill: the copy and the stamp run under the
// store's lock, where ReadPage copies.
func TestReadsNeverSeeHalfWrittenImage(t *testing.T) {
	s := New(Config{})
	fills := []byte{0x11, 0xEE}
	if err := s.WritePage(simclock.New(), 1, img(fills[0])); err != nil {
		t.Fatal(err)
	}
	const writes, readers, reads = 200, 2, 200
	var wg sync.WaitGroup
	wg.Add(1 + readers)
	go func() {
		defer wg.Done()
		clk := simclock.New()
		srcs := [][]byte{img(fills[0]), img(fills[1])}
		for i := 0; i < writes; i++ {
			if err := s.WritePage(clk, 1, srcs[i%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			clk := simclock.New()
			buf := make([]byte, page.Size)
			for i := 0; i < reads; i++ {
				if err := s.ReadPage(clk, 1, buf); err != nil {
					t.Error(err) // a torn image fails its checksum here
					return
				}
				if fill := buf[page.Size-1]; fill != fills[0] && fill != fills[1] {
					t.Errorf("read %d: unexpected fill %#x", i, fill)
					return
				}
				if buf[page.Size/2] != buf[page.Size-1] {
					t.Errorf("read %d: image mixes two writes", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
