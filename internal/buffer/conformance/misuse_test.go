package conformance

import (
	"errors"
	"testing"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
)

// A frame handle is a plain value, so its misuse is caught from the frame
// table's handle bookkeeping and the visit's latch mode. Each case below
// runs on all five pools; forEachPool's pin-leak check also proves that a
// refused call released nothing and the correct call afterwards did.

// TestDoubleReleaseFails: a second Release, through the same variable or a
// copy of the handle, fails with ErrReleased.
func TestDoubleReleaseFails(t *testing.T) {
	forEachPool(t, func(t *testing.T, r *rig) {
		clk := simclock.New()
		id := seedPage(t, r.store, 7, 0x11)
		f, err := r.pool.Get(clk, id, buffer.Write)
		if err != nil {
			t.Fatal(err)
		}
		g := f
		release(t, f)
		if err := f.Release(); !errors.Is(err, buffer.ErrReleased) {
			t.Fatalf("second Release = %v, want ErrReleased", err)
		}
		if err := g.Release(); !errors.Is(err, buffer.ErrReleased) {
			t.Fatalf("Release of a released handle's copy = %v, want ErrReleased", err)
		}
	})
}

// TestWriteUnderReadLatchFails: a visit under a read latch refuses span
// and word writes with ErrReadLatch and leaves the page unchanged.
func TestWriteUnderReadLatchFails(t *testing.T) {
	forEachPool(t, func(t *testing.T, r *rig) {
		clk := simclock.New()
		id := seedPage(t, r.store, 7, 0x22)
		f, err := r.pool.Get(clk, id, buffer.Read)
		if err != nil {
			t.Fatal(err)
		}
		err = buffer.Visit(f, func(pg page.Page) error {
			if err := pg.WriteAt(payloadOff, []byte{0x33}); !errors.Is(err, buffer.ErrReadLatch) {
				t.Errorf("WriteAt under a read latch = %v, want ErrReadLatch", err)
			}
			if err := pg.Store(payloadOff, 1, 0x33); !errors.Is(err, buffer.ErrReadLatch) {
				t.Errorf("Store under a read latch = %v, want ErrReadLatch", err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var b [1]byte
		if err := readAt(f, payloadOff, b[:]); err != nil || b[0] != 0x22 {
			t.Fatalf("payload after refused writes = %#x, %v; want 0x22", b[0], err)
		}
		release(t, f)
	})
}

// TestReleaseInsideVisitFails: a Release from inside a visit of the frame
// fails with ErrInVisit and releases nothing; the Release after the visit
// succeeds.
func TestReleaseInsideVisitFails(t *testing.T) {
	forEachPool(t, func(t *testing.T, r *rig) {
		clk := simclock.New()
		id := seedPage(t, r.store, 7, 0x44)
		for _, mode := range []buffer.Mode{buffer.Read, buffer.Write} {
			f, err := r.pool.Get(clk, id, mode)
			if err != nil {
				t.Fatal(err)
			}
			err = buffer.Visit(f, func(pg page.Page) error { return f.Release() })
			if !errors.Is(err, buffer.ErrInVisit) {
				t.Fatalf("mode %d: Release inside a visit = %v, want ErrInVisit", mode, err)
			}
			release(t, f)
		}
	})
}

// TestVisitAfterReleaseFails: a visit through a released handle, or a copy
// of it, fails with ErrReleased and never runs its function.
func TestVisitAfterReleaseFails(t *testing.T) {
	forEachPool(t, func(t *testing.T, r *rig) {
		clk := simclock.New()
		id := seedPage(t, r.store, 7, 0x55)
		f, err := r.pool.Get(clk, id, buffer.Read)
		if err != nil {
			t.Fatal(err)
		}
		g := f
		release(t, f)
		ran := false
		for _, h := range []buffer.Frame{f, g} {
			err := buffer.Visit(h, func(page.Page) error { ran = true; return nil })
			if !errors.Is(err, buffer.ErrReleased) {
				t.Fatalf("Visit after Release = %v, want ErrReleased", err)
			}
		}
		if ran {
			t.Fatal("a visit after Release ran its function")
		}
	})
}
