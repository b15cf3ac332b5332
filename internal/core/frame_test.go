package core

import (
	"testing"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/page"
)

// TestFrameAccessAllocatesNothing gates loads and stores on a bound frame
// at zero heap allocations: they address the pool region directly, with no
// per-access page subregion.
func TestFrameAccessAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	r := newRig(t, 8)
	id := r.seed(t, 7, "alloc-free")
	f, err := r.pool.Get(r.clk, id, buffer.Write)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	buf := make([]byte, 96)
	gate := func(name string, fn func() error) {
		t.Helper()
		if err := fn(); err != nil { // warm the lines
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if err := fn(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations per run, want 0", name, n)
		}
	}
	gate("ReadAt", func() error { return f.ReadAt(1000, buf) })
	gate("WriteAt", func() error { return f.WriteAt(2000, buf) })
}

// TestFrameAccessStaysInPage checks the frame's own page-bounds check: the
// pool region spans every block, so a span leaving the page must be refused
// before it reaches the cache.
func TestFrameAccessStaysInPage(t *testing.T) {
	r := newRig(t, 8)
	id := r.seed(t, 7, "bounded")
	f, err := r.pool.Get(r.clk, id, buffer.Write)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	if err := f.ReadAt(page.Size-2, make([]byte, 8)); err == nil {
		t.Fatal("read past the page end accepted")
	}
	if err := f.WriteAt(-1, []byte{0}); err == nil {
		t.Fatal("negative write accepted")
	}
	if err := f.WriteAt(page.Size-8, make([]byte, 8)); err != nil {
		t.Fatalf("write ending at the page end refused: %v", err)
	}
	if err := f.ReadAt(page.Size, nil); err != nil {
		t.Fatalf("empty read at the page end refused: %v", err)
	}
}
