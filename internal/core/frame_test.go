package core

import (
	"errors"
	"fmt"
	"testing"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/page"
)

// visit returns fn run over f's page in a visit of its own.
func visit(f buffer.Frame, fn func(page.Page) error) func() error {
	return func() error { return buffer.Visit(f, fn) }
}

// TestFrameAccessAllocatesNothing gates page access on a CXL frame at zero
// heap allocations: the frame handle is a value, a visit hands out the
// pool's own block accessor, and loads and stores address the pool region
// directly, with no per-access page subregion. Each access is gated in a
// visit of its own, and a binary search and an absent-key Find in one
// visit each; a Get and Release of a resident page allocates nothing
// either.
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
	gate("ReadAt", visit(f, func(pg page.Page) error { return pg.ReadAt(1000, buf) }))
	gate("WriteAt", visit(f, func(pg page.Page) error { return pg.WriteAt(2000, buf) }))
	gate("Load", visit(f, func(pg page.Page) error { _, err := pg.Load(3000, 8); return err }))
	gate("Store", visit(f, func(pg page.Page) error { return pg.Store(4000, 4, 0xfeed) }))

	// Slotted-page reads go through Load: a binary search over a page with
	// a few records allocates nothing either.
	err = buffer.Visit(f, func(pg page.Page) error {
		for k := int64(1); k <= 20; k++ {
			if k != 7 {
				if err := pg.Insert(k, []byte("v")); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	gate("NSlots", visit(f, func(pg page.Page) error { _, err := pg.NSlots(); return err }))
	gate("KeyAt", visit(f, func(pg page.Page) error { _, err := pg.KeyAt(11); return err }))
	gate("LowerBound", visit(f, func(pg page.Page) error { _, err := pg.LowerBound(13); return err }))

	// Several accesses in one visit, where loads and stores are the cache's
	// word accesses under one hold. Find looks up an absent key: a hit
	// returns a copy of the value, which allocates.
	gate("visit of many", visit(f, func(pg page.Page) error {
		if _, err := pg.Load(3000, 8); err != nil {
			return err
		}
		if err := pg.Store(4000, 4, 0xfeed); err != nil {
			return err
		}
		if _, err := pg.LowerBound(13); err != nil {
			return err
		}
		if _, err := pg.Find(21); !errors.Is(err, page.ErrNotFound) {
			return fmt.Errorf("Find(21) = %v, want ErrNotFound", err)
		}
		return nil
	}))

	// A Get and Release of a resident page hands out a value handle.
	other := r.seed(t, 8, "other")
	gate("Get+Release", func() error {
		g, err := r.pool.Get(r.clk, other, buffer.Read)
		if err != nil {
			return err
		}
		return g.Release()
	})
}

// TestFrameAccessStaysInPage checks the block accessor's own page-bounds
// check: the pool region spans every block, so a span leaving the page
// must be refused before it reaches the cache or the fast-tier mirror.
func TestFrameAccessStaysInPage(t *testing.T) {
	r := newRig(t, 8)
	id := r.seed(t, 7, "bounded")
	f, err := r.pool.Get(r.clk, id, buffer.Write)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	if err := readAt(f, page.Size-2, make([]byte, 8)); err == nil {
		t.Fatal("read past the page end accepted")
	}
	if err := writeAt(f, -1, []byte{0}); err == nil {
		t.Fatal("negative write accepted")
	}
	if err := writeAt(f, page.Size-8, make([]byte, 8)); err != nil {
		t.Fatalf("write ending at the page end refused: %v", err)
	}
	if err := readAt(f, page.Size, nil); err != nil {
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
	if err := readAt(pf, page.Size-2, make([]byte, 8)); err == nil {
		t.Fatal("read past the end of a promoted page accepted")
	}
	if err := visit(pf, func(pg page.Page) error { _, err := pg.Load(-1, 2); return err })(); err == nil {
		t.Fatal("negative load from a promoted page accepted")
	}
	if err := visit(pf, func(pg page.Page) error { _, err := pg.Load(page.Size-8, 8); return err })(); err != nil {
		t.Fatalf("load ending at the end of a promoted page refused: %v", err)
	}
	if r.pool.FastHits() == 0 {
		t.Fatal("in-page load from a promoted page missed the fast tier")
	}
}

// TestFrameHold checks what a visit's hold of the CPU cache changes and
// what it must not: inside a visit the frame refuses Release, keeps its
// latch rules, and a read visit of a page mirrored in the fast tier takes
// no hold, so its reads still come from the mirror.
func TestFrameHold(t *testing.T) {
	r := newRig(t, 8)
	r.enableTiering()
	id := r.seed(t, 7, "held")
	f, err := r.pool.Get(r.clk, id, buffer.Read)
	if err != nil {
		t.Fatal(err)
	}
	err = buffer.Visit(f, func(pg page.Page) error {
		if err := pg.Store(100, 2, 1); !errors.Is(err, buffer.ErrReadLatch) {
			return fmt.Errorf("held store under a read latch: %v, want ErrReadLatch", err)
		}
		if _, err := pg.Load(page.Size-2, 4); err == nil {
			return errors.New("held load past the page end accepted")
		}
		if err := f.Release(); !errors.Is(err, buffer.ErrInVisit) {
			return fmt.Errorf("release inside a visit: %v, want ErrInVisit", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Release(); err != nil {
		t.Fatalf("release after the visit: %v", err)
	}

	if ok, err := r.pool.Promote(r.clk, id); err != nil || !ok {
		t.Fatalf("Promote = %v, %v, want true", ok, err)
	}
	pf, err := r.pool.Get(r.clk, id, buffer.Read)
	if err != nil {
		t.Fatal(err)
	}
	hits, cached := r.pool.FastHits(), r.cache.Stats()
	v, err := findVal(pf, 7)
	if err != nil || string(v) != "held" {
		t.Fatalf("Find(7) on a promoted page = %q, %v", v, err)
	}
	if r.pool.FastHits() == hits || r.cache.Stats() != cached {
		t.Fatal("a read visit of a promoted page did not come from the mirror alone")
	}
	if err := pf.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestMissAllocations pins a Get that misses into a free block, and the
// DropPage that frees the block again, at missAllocs allocations: the
// frame table's frame and its load channel. The page image is staged in the
// store's one staging buffer, not in a fresh 16 KiB image per miss. The
// shard maps are warmed first, so no run pays for map growth.
func TestMissAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const missAllocs = 2
	r := newRig(t, 8)
	id := r.seed(t, 7, "missed")
	miss := func() {
		f, err := r.pool.Get(r.clk, id, buffer.Read)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Release(); err != nil {
			t.Fatal(err)
		}
		if err := r.pool.DropPage(r.clk, id); err != nil {
			t.Fatal(err)
		}
	}
	miss()
	before := r.pool.Stats().Misses
	n := testing.AllocsPerRun(100, miss)
	if got := r.pool.Stats().Misses - before; got != 101 {
		t.Fatalf("%d misses in 101 runs: the Get did not miss each time", got)
	}
	if n != missAllocs {
		t.Fatalf("Get miss + DropPage: %v allocations per run, want %d", n, missAllocs)
	}
}

// TestWritebackAllocations pins the writeback of a resident page, the
// flusher's and the checkpoint's path (clflush, staging read, barrier,
// storage overwrite, flags word), at 0 allocations: nothing keeps the
// staged 16 KiB image (the store copies it in place), so it stays off the
// heap.
func TestWritebackAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	r := newRig(t, 8)
	id := r.seed(t, 7, "flushed")
	f, err := r.pool.Get(r.clk, id, buffer.Read)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.Release(); err != nil {
			t.Fatal(err)
		}
	}()
	slot := r.pool.Table().Lookup(id).Slot()
	writes := r.pool.Table().Counters.StorageWrites.Load()
	wb := func() {
		if err := r.pool.cst.Writeback(r.clk, id, slot); err != nil {
			t.Fatal(err)
		}
	}
	wb()
	if n := testing.AllocsPerRun(100, wb); n != 0 {
		t.Fatalf("Writeback: %v allocations per run, want 0", n)
	}
	if got := r.pool.Table().Counters.StorageWrites.Load() - writes; got != 102 {
		t.Fatalf("%d storage writes in 102 writebacks", got)
	}
}
