package frametab

import (
	"testing"

	"polarcxlmem/internal/simclock"
)

func TestTouchSamplerSeesHitsMissesAndCreates(t *testing.T) {
	clk := simclock.New()
	s := newMemStore()
	s.durable[7] = []byte("durable!")
	tab := newTestTable(t, s, 4)

	var touched []uint64
	tab.SetTouchSampler(func(c *simclock.Clock, id uint64) {
		if c != clk {
			t.Errorf("sampler clock = %p, want the accessing clock %p", c, clk)
		}
		touched = append(touched, id)
	})

	// Miss-load, then a hit, then a Create: three samples.
	f, err := tab.Get(clk, 7, Read)
	if err != nil {
		t.Fatal(err)
	}
	f.Unlock(Read)
	tab.Unpin(f)
	f, err = tab.Get(clk, 7, Read)
	if err != nil {
		t.Fatal(err)
	}
	f.Unlock(Read)
	tab.Unpin(f)
	fc, err := tab.Create(clk, 9)
	if err != nil {
		t.Fatal(err)
	}
	fc.Unlock(Write)
	tab.Unpin(fc)

	want := []uint64{7, 7, 9}
	if len(touched) != len(want) {
		t.Fatalf("sampled %v, want %v", touched, want)
	}
	for i := range want {
		if touched[i] != want[i] {
			t.Fatalf("sampled %v, want %v", touched, want)
		}
	}

	// Detaching stops sampling.
	tab.SetTouchSampler(nil)
	f, err = tab.Get(clk, 7, Read)
	if err != nil {
		t.Fatal(err)
	}
	f.Unlock(Read)
	tab.Unpin(f)
	if len(touched) != 3 {
		t.Fatalf("sampler fired after detach: %v", touched)
	}
}

func TestTryPinResidentOnly(t *testing.T) {
	clk := simclock.New()
	s := newMemStore()
	s.durable[1] = []byte("a")
	s.durable[2] = []byte("b")
	tab := newTestTable(t, s, 4)

	// Absent page: TryPin must not fault it in.
	fetches := s.fetches
	if _, ok := tab.TryPin(1); ok {
		t.Fatal("TryPin pinned a non-resident page")
	}
	if s.fetches != fetches {
		t.Fatal("TryPin issued a miss-load")
	}

	// Make it resident, then TryPin succeeds and holds a real pin: the
	// frame survives eviction pressure until unpinned.
	f, err := tab.Get(clk, 1, Read)
	if err != nil {
		t.Fatal(err)
	}
	f.Unlock(Read)
	tab.Unpin(f)
	fr, ok := tab.TryPin(1)
	if !ok {
		t.Fatal("TryPin failed on a resident idle page")
	}
	if fr.ID() != 1 {
		t.Fatalf("pinned id = %d, want 1", fr.ID())
	}
	if _, ok := tab.TakeIfIdle(1); ok {
		t.Fatal("TakeIfIdle claimed a TryPin-pinned frame")
	}
	tab.Unpin(fr)
	if _, ok := tab.TakeIfIdle(1); !ok {
		t.Fatal("TakeIfIdle failed after unpin")
	}
}

func TestFrameTryLockModes(t *testing.T) {
	clk := simclock.New()
	s := newMemStore()
	s.durable[1] = []byte("a")
	tab := newTestTable(t, s, 4)

	f, err := tab.Get(clk, 1, Write)
	if err != nil {
		t.Fatal(err)
	}
	// Write-latched: both TryLock modes must fail without blocking.
	fr, ok := tab.TryPin(1)
	if !ok {
		t.Fatal("TryPin failed on a resident page")
	}
	if fr.TryLock(Read) {
		t.Fatal("TryLock(Read) succeeded under a write latch")
	}
	if fr.TryLock(Write) {
		t.Fatal("TryLock(Write) succeeded under a write latch")
	}
	f.Unlock(Write)

	// Read-latched: a second reader gets in, a writer does not.
	f.Lock(Read)
	if !fr.TryLock(Read) {
		t.Fatal("TryLock(Read) failed alongside a read latch")
	}
	fr.Unlock(Read)
	if fr.TryLock(Write) {
		t.Fatal("TryLock(Write) succeeded under a read latch")
	}
	f.Unlock(Read)

	// Idle: TryLock(Write) succeeds.
	if !fr.TryLock(Write) {
		t.Fatal("TryLock(Write) failed on an idle frame")
	}
	fr.Unlock(Write)
	tab.Unpin(fr)
	tab.Unpin(f)
}
