package frametab

import (
	"errors"
	"sync"
	"testing"

	"polarcxlmem/internal/simclock"
)

// wbStore wraps memStore with a WritebackStore implementation.
type wbStore struct {
	*memStore
	wbMu    sync.Mutex
	written []uint64
	wbFail  error // next Writeback fails with this
}

func (s *wbStore) Writeback(clk *simclock.Clock, id uint64, slot any) error {
	s.wbMu.Lock()
	defer s.wbMu.Unlock()
	if s.wbFail != nil {
		err := s.wbFail
		s.wbFail = nil
		return err
	}
	s.written = append(s.written, id)
	s.mu.Lock()
	s.durable[id] = append([]byte(nil), slot.([]byte)...)
	s.mu.Unlock()
	return nil
}

func newWBTable(t *testing.T, capacity int) (*Table, *wbStore) {
	t.Helper()
	s := &wbStore{memStore: newMemStore()}
	return New(Config{Shards: 4, Capacity: capacity, Store: s, NotFound: errNoImage}), s
}

func dirtyPages(t *testing.T, tab *Table, clk *simclock.Clock, ids ...uint64) {
	t.Helper()
	for _, id := range ids {
		f, err := tab.Create(clk, id)
		if err != nil {
			t.Fatal(err)
		}
		f.Unlock(Write)
		tab.Unpin(f)
	}
}

func TestFlushBatchWritesCanonicalOrderAndClearsDirty(t *testing.T) {
	clk := simclock.New()
	tab, s := newWBTable(t, 16)
	dirtyPages(t, tab, clk, 9, 3, 12, 5)
	if got := tab.DirtyResident(); got != 4 {
		t.Fatalf("DirtyResident = %d, want 4", got)
	}

	n, err := tab.FlushBatch(clk, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("flushed %d, want 3 (capped by max)", n)
	}
	// Canonical order: ascending page id, capped after 3.
	want := []uint64{3, 5, 9}
	if len(s.written) != len(want) {
		t.Fatalf("written = %v, want %v", s.written, want)
	}
	for i := range want {
		if s.written[i] != want[i] {
			t.Fatalf("written = %v, want %v", s.written, want)
		}
	}
	if got := tab.DirtyResident(); got != 1 {
		t.Fatalf("DirtyResident after batch = %d, want 1", got)
	}

	// Second batch drains the remainder; a third finds nothing.
	if n, err = tab.FlushBatch(clk, 10); err != nil || n != 1 {
		t.Fatalf("second batch = (%d, %v), want (1, nil)", n, err)
	}
	if n, err = tab.FlushBatch(clk, 10); err != nil || n != 0 {
		t.Fatalf("third batch = (%d, %v), want (0, nil)", n, err)
	}
	// Flushed pages stay resident — writeback is not eviction.
	if got := tab.Resident(); got != 4 {
		t.Fatalf("Resident = %d, want 4", got)
	}
}

func TestFlushBatchErrorStopsBatch(t *testing.T) {
	clk := simclock.New()
	tab, s := newWBTable(t, 16)
	dirtyPages(t, tab, clk, 1, 2, 3)
	boom := errors.New("injected device failure")
	s.wbFail = boom

	n, err := tab.FlushBatch(clk, 10)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n != 0 {
		t.Fatalf("flushed %d before the failure, want 0", n)
	}
	// Page 1's dirty bit must survive the failed write.
	if got := tab.DirtyResident(); got != 3 {
		t.Fatalf("DirtyResident = %d, want 3", got)
	}
	if got := tab.PinnedFrames(); got != 0 {
		t.Fatalf("PinnedFrames after failed batch = %d, want 0 (pin leak)", got)
	}
}

func TestFlushBatchWithoutWritebackStore(t *testing.T) {
	clk := simclock.New()
	s := newMemStore() // no Writeback method
	tab := newTestTable(t, s, 4, 4)
	if _, err := tab.FlushBatch(clk, 10); !errors.Is(err, ErrNoWriteback) {
		t.Fatalf("err = %v, want ErrNoWriteback", err)
	}
}

func TestFlushBatchConcurrentWithGets(t *testing.T) {
	clk := simclock.New()
	tab, _ := newWBTable(t, 64)
	var ids []uint64
	for id := uint64(1); id <= 32; id++ {
		ids = append(ids, id)
	}
	dirtyPages(t, tab, clk, ids...)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := simclock.New()
		for i := 0; i < 8; i++ {
			if _, err := tab.FlushBatch(c, 8); err != nil {
				t.Errorf("FlushBatch: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		c := simclock.New()
		for i := 0; i < 200; i++ {
			id := ids[i%len(ids)]
			f, err := tab.Get(c, id, Write)
			if err != nil {
				t.Errorf("Get(%d): %v", id, err)
				return
			}
			f.MarkDirty()
			f.Unlock(Write)
			tab.Unpin(f)
		}
	}()
	wg.Wait()
	if got := tab.PinnedFrames(); got != 0 {
		t.Fatalf("PinnedFrames = %d, want 0", got)
	}
}

// TestFlushBatchAfterCleanWalk: on a clean table FlushBatch and
// DirtyResident report nothing. Each way a frame becomes dirty — MarkDirty,
// a dirty Seed, a dirty Fetch — must reach the dirty index, so the next
// call flushes that frame.
func TestFlushBatchAfterCleanWalk(t *testing.T) {
	dirtiers := []struct {
		name  string
		dirty func(t *testing.T, tab *Table, s *wbStore, clk *simclock.Clock, id uint64)
	}{
		{"MarkDirty", func(t *testing.T, tab *Table, s *wbStore, clk *simclock.Clock, id uint64) {
			f, err := tab.Get(clk, id, Write)
			if err != nil {
				t.Fatal(err)
			}
			f.MarkDirty()
			f.Unlock(Write)
			tab.Unpin(f)
		}},
		{"Seed", func(t *testing.T, tab *Table, s *wbStore, clk *simclock.Clock, id uint64) {
			tab.Seed(id+100, make([]byte, 8), true)
		}},
		{"Fetch", func(t *testing.T, tab *Table, s *wbStore, clk *simclock.Clock, id uint64) {
			s.mu.Lock()
			s.durable[id+200] = make([]byte, 8)
			s.fetchDirty = true
			s.mu.Unlock()
			f, err := tab.Get(clk, id+200, Read)
			if err != nil {
				t.Fatal(err)
			}
			f.Unlock(Read)
			tab.Unpin(f)
		}},
	}
	for _, d := range dirtiers {
		t.Run(d.name, func(t *testing.T) {
			clk := simclock.New()
			tab, s := newWBTable(t, 16)
			for id := uint64(1); id <= 4; id++ {
				s.durable[id] = make([]byte, 8)
				f, err := tab.Get(clk, id, Read)
				if err != nil {
					t.Fatal(err)
				}
				f.Unlock(Read)
				tab.Unpin(f)
			}
			for round := 0; round < 3; round++ {
				if n, err := tab.FlushBatch(clk, 10); err != nil || n != 0 {
					t.Fatalf("round %d: FlushBatch of a clean table = %d, %v", round, n, err)
				}
				if got := tab.DirtyResident(); got != 0 {
					t.Fatalf("round %d: DirtyResident of a clean table = %d", round, got)
				}
				before := len(s.written)
				d.dirty(t, tab, s, clk, uint64(round+1))
				if got := tab.DirtyResident(); got != 1 {
					t.Fatalf("round %d: DirtyResident after %s = %d, want 1", round, d.name, got)
				}
				if n, err := tab.FlushBatch(clk, 10); err != nil || n != 1 {
					t.Fatalf("round %d: FlushBatch after %s = %d, %v, want 1", round, d.name, n, err)
				}
				if len(s.written) != before+1 {
					t.Fatalf("round %d: written %v, want one more page", round, s.written)
				}
			}
		})
	}
}

// TestFlushBatchRacingMarkDirty: a writer dirties frames while a flusher
// loops over FlushBatch. Whatever the interleaving, once the writer stops,
// one more FlushBatch must leave no dirty frame behind: a frame dirtied
// while a batch was being read from the index may not be lost from it.
func TestFlushBatchRacingMarkDirty(t *testing.T) {
	clk := simclock.New()
	tab, s := newWBTable(t, 64)
	const pages = 16
	for id := uint64(1); id <= pages; id++ {
		s.durable[id] = make([]byte, 8)
	}
	for trial := 0; trial < 200; trial++ {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := simclock.New()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := tab.FlushBatch(c, pages); err != nil {
					t.Errorf("FlushBatch: %v", err)
					return
				}
				tab.DirtyResident()
			}
		}()
		c := simclock.New()
		for i := 0; i < 40; i++ {
			id := uint64(1 + (trial*7+i)%pages)
			f, err := tab.Get(c, id, Write)
			if err != nil {
				t.Fatal(err)
			}
			f.MarkDirty()
			f.Unlock(Write)
			tab.Unpin(f)
		}
		close(stop)
		wg.Wait()
		if _, err := tab.FlushBatch(clk, pages); err != nil {
			t.Fatal(err)
		}
		if left := len(walkDirty(tab)); left != 0 {
			t.Fatalf("trial %d: %d dirty frames left after the final FlushBatch", trial, left)
		}
		if got := tab.DirtyResident(); got != 0 {
			t.Fatalf("trial %d: DirtyResident = %d after the final FlushBatch", trial, got)
		}
	}
}
