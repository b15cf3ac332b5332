package frametab

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"polarcxlmem/internal/simclock"
)

// walkDirty is the reference the dirty index is checked against: a full
// walk of the shards for settled dirty frames, as page ids in ascending
// order.
func walkDirty(tab *Table) []uint64 {
	var ids []uint64
	for i := range tab.shards {
		sh := &tab.shards[i]
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.ready.Load() && f.dirty.Load() {
				ids = append(ids, f.id)
			}
		}
		sh.mu.Unlock()
	}
	slices.Sort(ids)
	return ids
}

// checkIndex compares the dirty index, DirtyFrames and DirtyResident with
// a full walk of a quiescent table.
func checkIndex(tab *Table) error {
	want := walkDirty(tab)
	var got []uint64
	for _, f := range tab.DirtyFrames() {
		got = append(got, f.id)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("DirtyFrames = %v, full walk = %v", got, want)
	}
	if n := tab.DirtyResident(); n != len(want) {
		return fmt.Errorf("DirtyResident = %d, full walk finds %d", n, len(want))
	}
	tab.dirtyMu.Lock()
	defer tab.dirtyMu.Unlock()
	for id, f := range tab.dirty {
		if f.id != id || f.gone {
			return fmt.Errorf("index entry %d holds frame %d (gone %v)", id, f.id, f.gone)
		}
		if cur := tab.Lookup(id); cur != f {
			return fmt.Errorf("index entry %d is not the table's frame for it", id)
		}
	}
	return nil
}

// TestDirtyIndexMatchesWalk drives a small table through random sequences
// of every operation that moves a frame between clean and dirty or takes
// it out of the table — MarkDirty, ClearDirty, TakeIfIdle, Discard,
// capacity eviction, a failed load, a dirty Seed and Fetch, FlushBatch,
// FlushAll-style clears, and MarkDirty on a frame already taken out — and
// checks the dirty index against a full walk after each one.
func TestDirtyIndexMatchesWalk(t *testing.T) {
	const pages = 24
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := simclock.New()
		tab, s := newWBTable(t, 8)
		for id := uint64(1); id <= pages; id++ {
			s.durable[id] = make([]byte, 8)
		}
		var taken []*Frame // frames already out of the table
		for step := 0; step < 400; step++ {
			id := uint64(1 + rng.Intn(pages))
			var op string
			switch k := rng.Intn(11); k {
			case 0, 1:
				op = "Get+MarkDirty"
				f, err := tab.Get(clk, id, Write)
				if err != nil {
					t.Fatal(err)
				}
				f.MarkDirty()
				f.Unlock(Write)
				tab.Unpin(f)
			case 2:
				op = "Get" // a miss may evict through the capacity clock
				f, err := tab.Get(clk, id, Read)
				if err != nil {
					t.Fatal(err)
				}
				f.Unlock(Read)
				tab.Unpin(f)
			case 3:
				op = "ClearDirty"
				if f := tab.Lookup(id); f != nil {
					f.ClearDirty()
				}
			case 4:
				op = "TakeIfIdle"
				if f, ok := tab.TakeIfIdle(id); ok {
					taken = append(taken, f)
				}
			case 5:
				op = "Discard"
				if f, ok := tab.Discard(id); ok {
					taken = append(taken, f)
				}
			case 6:
				op = "failed load"
				if tab.Lookup(id) == nil {
					s.mu.Lock()
					s.fail = errors.New("injected fetch failure")
					s.mu.Unlock()
					if _, err := tab.Get(clk, id, Read); err == nil {
						t.Fatal("Get succeeded over a failing Fetch")
					}
				}
			case 7:
				op = "Seed"
				if tab.Lookup(id) == nil {
					tab.Seed([]SeedFrame{{ID: id, Slot: make([]byte, 8), Dirty: rng.Intn(2) == 0}})
				}
			case 8:
				op = "dirty Fetch"
				if tab.Lookup(id) == nil {
					s.mu.Lock()
					s.fetchDirty = true
					s.mu.Unlock()
					f, err := tab.Get(clk, id, Read)
					s.mu.Lock()
					s.fetchDirty = false
					s.mu.Unlock()
					if err != nil {
						t.Fatal(err)
					}
					f.Unlock(Read)
					tab.Unpin(f)
				}
			case 9:
				op = "FlushBatch"
				if _, err := tab.FlushBatch(clk, 1+rng.Intn(4)); err != nil {
					t.Fatal(err)
				}
			case 10:
				op = "MarkDirty on a taken frame"
				if len(taken) > 0 {
					f := taken[rng.Intn(len(taken))]
					f.ClearDirty()
					f.MarkDirty()
				}
			}
			if err := checkIndex(tab); err != nil {
				t.Fatalf("seed %d step %d (%s on page %d): %v", seed, step, op, id, err)
			}
		}
	}
}

// TestDirtyIndexConcurrent runs writers, readers, a flusher and a taker on
// one table at once (evictions come from the small capacity), then checks
// the quiescent index against a full walk. Under -race it also checks the
// index's locking.
func TestDirtyIndexConcurrent(t *testing.T) {
	const pages = 32
	for trial := 0; trial < 20; trial++ {
		tab, s := newWBTable(t, 12)
		for id := uint64(1); id <= pages; id++ {
			s.durable[id] = make([]byte, 8)
		}
		var wg sync.WaitGroup
		worker := func(seed int64, fn func(rng *rand.Rand, clk *simclock.Clock) error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				clk := simclock.New()
				for i := 0; i < 200; i++ {
					if err := fn(rng, clk); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		get := func(write bool) func(rng *rand.Rand, clk *simclock.Clock) error {
			mode := Read
			if write {
				mode = Write
			}
			return func(rng *rand.Rand, clk *simclock.Clock) error {
				f, err := tab.Get(clk, uint64(1+rng.Intn(pages)), mode)
				if err != nil {
					return err
				}
				if write {
					f.MarkDirty()
				}
				f.Unlock(mode)
				tab.Unpin(f)
				return nil
			}
		}
		base := int64(trial) * 10
		worker(base+1, get(true))
		worker(base+2, get(true))
		worker(base+3, get(false))
		worker(base+4, func(rng *rand.Rand, clk *simclock.Clock) error {
			_, err := tab.FlushBatch(clk, 1+rng.Intn(8))
			return err
		})
		worker(base+5, func(rng *rand.Rand, clk *simclock.Clock) error {
			if f, ok := tab.TakeIfIdle(uint64(1 + rng.Intn(pages))); ok {
				f.MarkDirty() // out of the table: must not reach the index
			}
			return nil
		})
		wg.Wait()
		if err := checkIndex(tab); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestFlushBatchFlushesLowestDirtyIDs: over random dirty sets, FlushBatch(max)
// writes back exactly the max lowest dirty page ids, in ascending order,
// and leaves the rest dirty.
func TestFlushBatchFlushesLowestDirtyIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		clk := simclock.New()
		tab, s := newWBTable(t, 256)
		set := map[uint64]bool{}
		for size := 1 + rng.Intn(40); len(set) < size; {
			set[uint64(1+rng.Intn(500))] = true
		}
		var ids []uint64
		for id := range set {
			ids = append(ids, id)
		}
		dirtyPages(t, tab, clk, ids...) // created in map order, not sorted
		slices.Sort(ids)
		max := 1 + rng.Intn(len(ids)+2)
		n, err := tab.FlushBatch(clk, max)
		if err != nil {
			t.Fatal(err)
		}
		want := ids[:min(max, len(ids))]
		if n != len(want) || !slices.Equal(s.written, want) {
			t.Fatalf("trial %d: FlushBatch(%d) = %d, wrote %v, want %v", trial, max, n, s.written, want)
		}
		if got, left := walkDirty(tab), ids[len(want):]; !slices.Equal(got, left) {
			t.Fatalf("trial %d: dirty after the batch = %v, want %v", trial, got, left)
		}
	}
}
