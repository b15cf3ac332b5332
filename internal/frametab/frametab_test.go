package frametab

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
)

// memStore is a minimal FrameStore over an in-memory "durable" byte map,
// with an optional evictor and call log.
type memStore struct {
	mu      sync.Mutex
	durable map[uint64][]byte
	evicted []uint64
	fetches int
	fail    error // next Fetch fails with this
	// fetchDirty makes Fetch report its image as newer than storage, as
	// a re-fetch of a dirty page from a remote tier does.
	fetchDirty bool
}

var errNoImage = errors.New("memstore: no durable image")

func newMemStore() *memStore { return &memStore{durable: map[uint64][]byte{}} }

func (s *memStore) Fetch(clk *simclock.Clock, id uint64) (any, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fetches++
	if s.fail != nil {
		err := s.fail
		s.fail = nil
		return nil, false, err
	}
	img, ok := s.durable[id]
	if !ok {
		return nil, false, fmt.Errorf("page %d: %w", id, errNoImage)
	}
	cp := append([]byte(nil), img...)
	return cp, s.fetchDirty, nil
}

func (s *memStore) Create(clk *simclock.Clock, id uint64) (any, error) {
	return make([]byte, 8), nil
}

func (s *memStore) Evict(clk *simclock.Clock, id uint64, slot any, dirty bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evicted = append(s.evicted, id)
	if dirty {
		s.durable[id] = append([]byte(nil), slot.([]byte)...)
	}
	return nil
}

func newTestTable(t *testing.T, s *memStore, capacity int) *Table {
	t.Helper()
	return New(Config{Capacity: capacity, Store: s, NotFound: errNoImage})
}

func TestHitMissAndStats(t *testing.T) {
	clk := simclock.New()
	s := newMemStore()
	s.durable[7] = []byte("durable!")
	tab := newTestTable(t, s, 4)

	f, err := tab.Get(clk, 7, Read)
	if err != nil {
		t.Fatal(err)
	}
	if string(f.Slot().([]byte)) != "durable!" {
		t.Fatalf("slot = %q", f.Slot())
	}
	f.Unlock(Read)
	tab.Unpin(f)

	f2, err := tab.Get(clk, 7, Read)
	if err != nil {
		t.Fatal(err)
	}
	if f2 != f {
		t.Fatal("hit returned a different frame")
	}
	f2.Unlock(Read)
	tab.Unpin(f2)

	st := tab.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if tab.Resident() != 1 {
		t.Fatalf("resident = %d", tab.Resident())
	}
	if tab.PinnedFrames() != 0 {
		t.Fatalf("pin leak: %d", tab.PinnedFrames())
	}
}

func TestFailedFetchWithdrawsPlaceholder(t *testing.T) {
	clk := simclock.New()
	s := newMemStore()
	tab := newTestTable(t, s, 4)
	if _, err := tab.Get(clk, 9, Read); !errors.Is(err, errNoImage) {
		t.Fatalf("err = %v", err)
	}
	if tab.Resident() != 0 || tab.PinnedFrames() != 0 {
		t.Fatalf("placeholder leaked: resident=%d pinned=%d", tab.Resident(), tab.PinnedFrames())
	}
	// The id is retryable afterwards.
	s.durable[9] = []byte("now here")
	f, err := tab.Get(clk, 9, Read)
	if err != nil {
		t.Fatal(err)
	}
	f.Unlock(Read)
	tab.Unpin(f)
}

func TestClockEvictionOrderAndDirtyWriteback(t *testing.T) {
	clk := simclock.New()
	s := newMemStore()
	for id := uint64(1); id <= 3; id++ {
		s.durable[id] = []byte{byte(id)}
	}
	tab := newTestTable(t, s, 2)
	for id := uint64(1); id <= 2; id++ {
		f, err := tab.Get(clk, id, Write)
		if err != nil {
			t.Fatal(err)
		}
		if id == 1 {
			f.Slot().([]byte)[0] = 0xAA
			f.MarkDirty()
		}
		f.Unlock(Write)
		tab.Unpin(f)
	}
	// Third page: the clock must evict page 1 (oldest insert, ref cleared
	// on the first sweep) and write its dirty image back.
	f, err := tab.Get(clk, 3, Read)
	if err != nil {
		t.Fatal(err)
	}
	f.Unlock(Read)
	tab.Unpin(f)
	if len(s.evicted) != 1 || s.evicted[0] != 1 {
		t.Fatalf("evicted = %v, want [1]", s.evicted)
	}
	if s.durable[1][0] != 0xAA {
		t.Fatal("dirty eviction did not reach the store")
	}
	if st := tab.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d", st.Evictions)
	}
}

func TestSecondChanceSparesReferencedFrame(t *testing.T) {
	clk := simclock.New()
	s := newMemStore()
	for id := uint64(1); id <= 3; id++ {
		s.durable[id] = []byte{byte(id)}
	}
	tab := newTestTable(t, s, 2)
	for id := uint64(1); id <= 2; id++ {
		f, _ := tab.Get(clk, id, Read)
		f.Unlock(Read)
		tab.Unpin(f)
	}
	// Re-touch page 1: its referenced bit must survive one clock sweep,
	// making page 2 the victim.
	f, _ := tab.Get(clk, 1, Read)
	f.Unlock(Read)
	tab.Unpin(f)
	f, err := tab.Get(clk, 3, Read)
	if err != nil {
		t.Fatal(err)
	}
	f.Unlock(Read)
	tab.Unpin(f)
	if len(s.evicted) != 1 || s.evicted[0] != 2 {
		t.Fatalf("evicted = %v, want [2] (second chance for 1)", s.evicted)
	}
}

func TestAllPinnedEvictionError(t *testing.T) {
	clk := simclock.New()
	s := newMemStore()
	for id := uint64(1); id <= 3; id++ {
		s.durable[id] = []byte{byte(id)}
	}
	tab := newTestTable(t, s, 2)
	var held []*Frame
	for id := uint64(1); id <= 2; id++ {
		f, err := tab.Get(clk, id, Read)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, f)
	}
	if _, err := tab.Get(clk, 3, Read); err == nil {
		t.Fatal("expected all-pinned error")
	}
	for _, f := range held {
		f.Unlock(Read)
		tab.Unpin(f)
	}
	if _, err := tab.Get(clk, 3, Read); err != nil {
		t.Fatalf("after unpinning: %v", err)
	}
}

func TestGetOrCreateFallsThroughToCreate(t *testing.T) {
	clk := simclock.New()
	s := newMemStore()
	tab := newTestTable(t, s, 4)
	f, err := tab.GetOrCreate(clk, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Dirty() {
		t.Fatal("created frame must be born dirty")
	}
	f.Unlock(Write)
	tab.Unpin(f)
	// Now resident: a second GetOrCreate is a plain hit.
	fetches := s.fetches
	f2, err := tab.GetOrCreate(clk, 42)
	if err != nil {
		t.Fatal(err)
	}
	if f2 != f {
		t.Fatal("second GetOrCreate did not hit the resident frame")
	}
	if s.fetches != fetches {
		t.Fatal("hit went back to the store")
	}
	f2.Unlock(Write)
	tab.Unpin(f2)
}

func TestDirtyFramesSortedByPageID(t *testing.T) {
	clk := simclock.New()
	s := newMemStore()
	ids := []uint64{11, 3, 97, 42, 8}
	for _, id := range ids {
		s.durable[id] = []byte{byte(id)}
	}
	tab := newTestTable(t, s, 8)
	for _, id := range ids {
		f, err := tab.Get(clk, id, Write)
		if err != nil {
			t.Fatal(err)
		}
		f.MarkDirty()
		f.Unlock(Write)
		tab.Unpin(f)
	}
	dirty := tab.DirtyFrames()
	if len(dirty) != len(ids) {
		t.Fatalf("DirtyFrames has %d frames, want %d", len(dirty), len(ids))
	}
	for i := 1; i < len(dirty); i++ {
		if dirty[i-1].ID() >= dirty[i].ID() {
			t.Fatalf("DirtyFrames not sorted: %d before %d", dirty[i-1].ID(), dirty[i].ID())
		}
	}
}

func TestSeedAndTakeIfIdle(t *testing.T) {
	clk := simclock.New()
	s := newMemStore()
	tab := newTestTable(t, s, 4)
	tab.Seed(5, []byte{5}, true)
	if tab.Resident() != 1 {
		t.Fatal("seed not resident")
	}
	f, err := tab.Get(clk, 5, Read)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.TakeIfIdle(5); ok {
		t.Fatal("TakeIfIdle removed a pinned frame")
	}
	f.Unlock(Read)
	tab.Unpin(f)
	if _, ok := tab.TakeIfIdle(5); !ok {
		t.Fatal("TakeIfIdle failed on idle frame")
	}
	if tab.Resident() != 0 {
		t.Fatal("resident after take")
	}
}

// parallelStore revalidates nothing and serves fixed-size slots; used for
// the concurrency smoke test under -race.
func TestParallelGetSingleLoad(t *testing.T) {
	s := newMemStore()
	for id := uint64(1); id <= 8; id++ {
		s.durable[id] = []byte{byte(id)}
	}
	tab := newTestTable(t, s, 64)
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			clk := simclock.New() // clocks are not thread-safe: one per goroutine
			for i := 0; i < 500; i++ {
				id := uint64(1 + (i+g)%8)
				f, err := tab.Get(clk, id, Read)
				if err != nil {
					t.Error(err)
					return
				}
				_ = f.Slot().([]byte)[0]
				f.Unlock(Read)
				tab.Unpin(f)
			}
		}(g)
	}
	wg.Wait()
	if tab.PinnedFrames() != 0 {
		t.Fatalf("pin leak: %d", tab.PinnedFrames())
	}
	st := tab.Stats()
	if st.Misses != 8 {
		t.Fatalf("misses = %d, want 8 (each page loaded exactly once)", st.Misses)
	}
	if got := st.Hits + st.Misses; got != goroutines*500 {
		t.Fatalf("hits+misses = %d, want %d", got, goroutines*500)
	}
}

// retireStore wraps memStore with a togglable Revalidator and a failable
// EvictStore, to exercise the retire path.
type retireStore struct {
	*memStore
	rmu      sync.Mutex
	stale    bool
	evictErr error
}

func (s *retireStore) set(stale bool, evictErr error) {
	s.rmu.Lock()
	s.stale, s.evictErr = stale, evictErr
	s.rmu.Unlock()
}

func (s *retireStore) Revalidate(clk *simclock.Clock, id uint64, slot any) (bool, error) {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	return !s.stale, nil
}

func (s *retireStore) Evict(clk *simclock.Clock, id uint64, slot any, dirty bool) error {
	s.rmu.Lock()
	err := s.evictErr
	s.rmu.Unlock()
	if err != nil {
		return err
	}
	return s.memStore.Evict(clk, id, slot, dirty)
}

// TestRetireRefetchesAndCounts covers the healthy retire path: a hit whose
// revalidation fails retires the frame (returning the slot to the store)
// and re-registers the page as a fresh miss.
func TestRetireRefetchesAndCounts(t *testing.T) {
	clk := simclock.New()
	s := &retireStore{memStore: newMemStore()}
	s.durable[3] = []byte("v1......")
	tab := New(Config{Capacity: 4, Store: s, NotFound: errNoImage})

	f, err := tab.Get(clk, 3, Read)
	if err != nil {
		t.Fatal(err)
	}
	f.Unlock(Read)
	tab.Unpin(f)

	s.mu.Lock()
	s.durable[3] = []byte("v2......")
	s.mu.Unlock()
	s.set(true, nil)
	f2, err := tab.Get(clk, 3, Read)
	if err != nil {
		t.Fatalf("retire + refetch: %v", err)
	}
	if string(f2.Slot().([]byte)) != "v2......" {
		t.Fatalf("slot = %q, want the refetched image", f2.Slot())
	}
	if f2 == f {
		t.Fatal("revalidation-rejected frame was reused")
	}
	f2.Unlock(Read)
	tab.Unpin(f2)

	st := tab.Stats()
	if st.Retires != 1 {
		t.Fatalf("Retires = %d, want 1", st.Retires)
	}
	if st.EvictFailures != 0 {
		t.Fatalf("EvictFailures = %d, want 0", st.EvictFailures)
	}
	if st.Evictions != 0 {
		t.Fatalf("retire counted as a capacity eviction: %+v", st)
	}
	if tab.PinnedFrames() != 0 {
		t.Fatalf("pin leak: %d", tab.PinnedFrames())
	}
}

// TestRetireEvictFailurePropagates is the regression test for retire()
// discarding the EvictStore error: the frame is already detached when the
// store refuses the slot, so swallowing the error leaks the slot silently.
// Get must surface it, count it, and emit the evict-error event.
func TestRetireEvictFailurePropagates(t *testing.T) {
	clk := simclock.New()
	s := &retireStore{memStore: newMemStore()}
	s.durable[5] = []byte("durable!")
	reg := obs.New(obs.Options{})
	leak := obs.NewFrameLeakChecker()
	reg.AddChecker(leak)
	tab := New(Config{Capacity: 4, Store: s, NotFound: errNoImage, Name: "test", Registry: reg})

	f, err := tab.Get(clk, 5, Read)
	if err != nil {
		t.Fatal(err)
	}
	f.Unlock(Read)
	tab.Unpin(f)

	errEvict := errors.New("evict store: out of space")
	s.set(true, errEvict)
	if _, err := tab.Get(clk, 5, Read); !errors.Is(err, errEvict) {
		t.Fatalf("Get after failed retire = %v, want wrapped %v", err, errEvict)
	}

	st := tab.Stats()
	if st.Retires != 1 {
		t.Fatalf("Retires = %d, want 1", st.Retires)
	}
	if st.EvictFailures != 1 {
		t.Fatalf("EvictFailures = %d, want 1", st.EvictFailures)
	}
	if tab.PinnedFrames() != 0 {
		t.Fatalf("pin leak after failed retire: %d", tab.PinnedFrames())
	}

	violations := reg.Finish()
	found := false
	for _, v := range violations {
		if v.Checker == leak.Name() && strings.Contains(v.Detail, "evict-store failure") {
			found = true
		}
	}
	if !found {
		t.Fatalf("FrameLeakChecker missed the evict failure; violations = %v", violations)
	}
}
