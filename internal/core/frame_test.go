package core

import (
	"errors"
	"fmt"
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
	gate("Load", func() error { _, err := f.Load(3000, 8); return err })
	gate("Store", func() error { return f.Store(4000, 4, 0xfeed) })

	// Slotted-page reads go through Load: a binary search over a page with
	// a few records allocates nothing either.
	pg := page.Wrap(f)
	for k := int64(1); k <= 20; k++ {
		if k != 7 {
			if err := pg.Insert(k, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	gate("NSlots", func() error { _, err := pg.NSlots(); return err })
	gate("KeyAt", func() error { _, err := pg.KeyAt(11); return err })
	gate("LowerBound", func() error { _, err := pg.LowerBound(13); return err })

	// The same inside a hold, where loads and stores are the cache's word
	// accesses. Find looks up an absent key: a hit returns a copy of the
	// value, which allocates.
	held := func(fn func() error) func() error {
		return func() error {
			f.Hold()
			defer f.Unhold()
			return fn()
		}
	}
	gate("held Load", held(func() error { _, err := f.Load(3000, 8); return err }))
	gate("held Store", held(func() error { return f.Store(4000, 4, 0xfeed) }))
	gate("held LowerBound", held(func() error { _, err := pg.LowerBound(13); return err }))
	gate("held Find", held(func() error {
		if _, err := pg.Find(21); !errors.Is(err, page.ErrNotFound) {
			return fmt.Errorf("Find(21) = %v, want ErrNotFound", err)
		}
		return nil
	}))
}

// TestFrameAccessStaysInPage checks the frame's own page-bounds check: the
// pool region spans every block, so a span leaving the page must be refused
// before it reaches the cache or the fast-tier mirror.
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

	// A read-latched frame of a page mirrored in the fast tier checks the
	// span before it consults the mirror.
	r = newRig(t, 8)
	r.enableTiering()
	id = r.seed(t, 7, "promoted")
	r.getRelease(t, id)
	if ok, err := r.pool.Promote(r.clk, id); err != nil || !ok {
		t.Fatalf("Promote = %v, %v, want true", ok, err)
	}
	pf, err := r.pool.Get(r.clk, id, buffer.Read)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Release()
	if err := pf.ReadAt(page.Size-2, make([]byte, 8)); err == nil {
		t.Fatal("read past the end of a promoted page accepted")
	}
	if _, err := pf.Load(-1, 2); err == nil {
		t.Fatal("negative load from a promoted page accepted")
	}
	if _, err := pf.Load(page.Size-8, 8); err != nil {
		t.Fatalf("load ending at the end of a promoted page refused: %v", err)
	}
	if r.pool.FastHits() == 0 {
		t.Fatal("in-page load from a promoted page missed the fast tier")
	}
}

// TestFrameHold checks what a hold changes and what it must not: a held
// frame refuses Release until unheld, keeps its latch rules, and a
// read-latched frame of a page mirrored in the fast tier refuses the hold,
// so its reads still come from the mirror.
func TestFrameHold(t *testing.T) {
	r := newRig(t, 8)
	r.enableTiering()
	id := r.seed(t, 7, "held")
	f, err := r.pool.Get(r.clk, id, buffer.Read)
	if err != nil {
		t.Fatal(err)
	}
	f.Hold()
	if err := f.Store(100, 2, 1); err == nil {
		t.Fatal("held store under a read latch accepted")
	}
	if _, err := f.Load(page.Size-2, 4); err == nil {
		t.Fatal("held load past the page end accepted")
	}
	if err := f.Release(); err == nil {
		t.Fatal("release of a held frame accepted")
	}
	f.Unhold()
	if err := f.Release(); err != nil {
		t.Fatalf("release after Unhold: %v", err)
	}

	if ok, err := r.pool.Promote(r.clk, id); err != nil || !ok {
		t.Fatalf("Promote = %v, %v, want true", ok, err)
	}
	pf, err := r.pool.Get(r.clk, id, buffer.Read)
	if err != nil {
		t.Fatal(err)
	}
	hits, cached := r.pool.FastHits(), r.cache.Stats()
	pf.Hold()
	v, err := page.Wrap(pf).Find(7)
	pf.Unhold()
	if err != nil || string(v) != "held" {
		t.Fatalf("Find(7) on a promoted page = %q, %v", v, err)
	}
	if r.pool.FastHits() == hits || r.cache.Stats() != cached {
		t.Fatal("a held read of a promoted page did not come from the mirror alone")
	}
	if err := pf.Release(); err != nil {
		t.Fatal(err)
	}
}
