// Package conformance runs one table-driven behavioral suite against every
// buffer.Pool implementation in the repo — DRAMPool, TieredPool, CXLPool,
// SharedPool, RDMASharedPool — so the frametab substrate's contract (latch
// modes, GetOrCreate, checkpoint barrier ordering, resident accounting,
// pin hygiene, eviction back-pressure) is pinned down in one place. CI runs
// it under -race in its own job.
package conformance

import (
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"testing"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/core"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/sharing"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simcpu"
	"polarcxlmem/internal/storage"
)

// capacity is the frame budget every rig is built with; tests that fill the
// pool rely on every implementation honouring it.
const capacity = 8

// rig is one pool under test. All five pools implement buffer.Creator and
// expose PinnedFrames, but neither is part of buffer.Pool, so the rig
// carries them explicitly. Every instrumented component in the rig reports
// into the registry its builder was given; metric is the pool's
// frame-table metric name (frametab.<metric>.*).
// cache is the CPU cache the pool's frames load through (nil for the pools
// that copy pages into local DRAM).
type rig struct {
	metric  string
	pool    buffer.Creator
	store   *storage.Store
	pinned  func() int
	barrier func(fb buffer.FlushBarrier)
	cache   *simcpu.Cache
}

// payloadOff keeps test mutations clear of the page header (LSN lives at
// bytes 8..16; headers occupy the first 64 bytes).
const payloadOff = 100

var builders = []struct {
	name  string
	build func(t *testing.T, reg *obs.Registry) *rig
}{
	{"dram", buildDRAM},
	{"tiered", buildTiered},
	{"cxl", buildCXL},
	{"shared", buildShared},
	{"rdma-shared", buildRDMAShared},
}

func buildDRAM(t *testing.T, reg *obs.Registry) *rig {
	t.Helper()
	store := storage.New(storage.Config{})
	p := buffer.NewDRAMPool(store, capacity, cxl.DRAMProfile(), reg)
	return &rig{metric: "dram", pool: p, store: store, pinned: p.PinnedFrames, barrier: p.SetFlushBarrier}
}

func buildTiered(t *testing.T, reg *obs.Registry) *rig {
	t.Helper()
	store := storage.New(storage.Config{})
	remote := buffer.NewRemoteMemory("rm", 256)
	p := buffer.NewTieredPool(store, remote, rdma.NewNIC("nic", 0, 0), capacity, cxl.DRAMProfile(), reg)
	return &rig{metric: "tiered", pool: p, store: store, pinned: p.PinnedFrames, barrier: p.SetFlushBarrier}
}

func buildCXL(t *testing.T, reg *obs.Registry) *rig {
	t.Helper()
	clk := simclock.New()
	store := storage.New(storage.Config{})
	host, err := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: core.RegionSizeFor(capacity) + 4096}, reg).AttachHost("h0", 0)
	if err != nil {
		t.Fatal(err)
	}
	region, err := host.Allocate(clk, "db0", core.RegionSizeFor(capacity))
	if err != nil {
		t.Fatal(err)
	}
	cache := host.NewCache("db0", 1<<20)
	p, err := core.Format(host, region, cache, store)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{metric: "cxl", pool: p, store: store, pinned: p.PinnedFrames, barrier: p.SetFlushBarrier, cache: cache}
}

func buildShared(t *testing.T, reg *obs.Registry) *rig {
	t.Helper()
	clk := simclock.New()
	store := storage.New(storage.Config{})
	const dbpPages = 64
	topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: dbpPages*page.Size + 1<<17}, reg)
	dep, err := sharing.NewDeployment(clk, topo, "fusion", dbpPages, store)
	if err != nil {
		t.Fatal(err)
	}
	fusion := dep.Fusion
	// 16 bytes of flag words per slot: capacity slots.
	n0, err := dep.AttachPrimary(clk, "n0", 0, capacity*16, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	p := sharing.NewSharedPool("n0", fusion, n0.Cache, n0.Flags)
	return &rig{metric: "shared/n0", pool: p, store: store, pinned: p.PinnedFrames, barrier: p.SetFlushBarrier, cache: n0.Cache}
}

func buildRDMAShared(t *testing.T, reg *obs.Registry) *rig {
	t.Helper()
	store := storage.New(storage.Config{})
	fusion := sharing.NewRDMAFusion(64, store)
	p := sharing.NewRDMASharedPool("n0", fusion, rdma.NewNIC("nic", 0, 0), capacity, reg)
	return &rig{metric: "rdma/n0", pool: p, store: store, pinned: p.PinnedFrames, barrier: p.SetFlushBarrier}
}

// seedPage writes a raw page image with lsn and a payload byte to storage.
func seedPage(t *testing.T, store *storage.Store, lsn uint64, payload byte) uint64 {
	t.Helper()
	id := store.AllocPageID()
	img := make([]byte, page.Size)
	binary.LittleEndian.PutUint64(img[8:], lsn)
	img[payloadOff] = payload
	if err := store.WritePage(simclock.New(), id, img); err != nil {
		t.Fatal(err)
	}
	return id
}

func release(t *testing.T, f buffer.Frame) {
	t.Helper()
	if err := f.Release(); err != nil {
		t.Fatal(err)
	}
}

// forEachPool runs fn against all five pool builds, each with the default
// invariant checkers (stale reads, lock leaks, pin/slot leaks) consuming the
// full event stream; a violation anywhere fails the subtest.
func forEachPool(t *testing.T, fn func(t *testing.T, r *rig)) {
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			reg := obs.New(obs.Options{})
			for _, c := range obs.DefaultCheckers() {
				reg.AddChecker(c)
			}
			r := b.build(t, reg)
			fn(t, r)
			if n := r.pinned(); n != 0 {
				t.Fatalf("pin leak: %d frames still pinned after test", n)
			}
			for _, v := range reg.Finish() {
				t.Errorf("invariant violation [%s]: %s", v.Checker, v.Detail)
			}
		})
	}
}

// TestGetReadAndHitAccounting: a miss loads the durable image; a second Get
// is a hit; both latch modes release cleanly.
func TestGetReadAndHitAccounting(t *testing.T) {
	forEachPool(t, func(t *testing.T, r *rig) {
		clk := simclock.New()
		id := seedPage(t, r.store, 7, 0xAB)
		f, err := r.pool.Get(clk, id, buffer.Read)
		if err != nil {
			t.Fatal(err)
		}
		var b [1]byte
		if err := readAt(f, payloadOff, b[:]); err != nil {
			t.Fatal(err)
		}
		if b[0] != 0xAB {
			t.Fatalf("payload = %#x, want 0xAB", b[0])
		}
		release(t, f)
		f2, err := r.pool.Get(clk, id, buffer.Write)
		if err != nil {
			t.Fatal(err)
		}
		release(t, f2)
		st := r.pool.Stats()
		if st.Misses < 1 || st.Hits < 1 {
			t.Fatalf("stats after miss+hit: %+v", st)
		}
	})
}

// TestPoolMetricNames: an observed pool reports a miss and then a hit under
// frametab.<name>.misses / .hits with its established name (dram, tiered,
// cxl, shared/<node>, rdma/<node>), and the shared pools keep reporting
// there after CrashPrimary + RejoinPrimary rebuild their table.
func TestPoolMetricNames(t *testing.T) {
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			reg := obs.New(obs.Options{})
			r := b.build(t, reg)
			clk := simclock.New()
			misses, hits := "frametab."+r.metric+".misses", "frametab."+r.metric+".hits"
			missThenHit := func(stage string) {
				t.Helper()
				id := seedPage(t, r.store, 1, 0x01)
				before := reg.Snapshot().Counters
				for i := 0; i < 2; i++ {
					f, err := r.pool.Get(clk, id, buffer.Read)
					if err != nil {
						t.Fatal(err)
					}
					release(t, f)
				}
				after := reg.Snapshot().Counters
				if d := after[misses] - before[misses]; d != 1 {
					t.Fatalf("%s: %s moved by %d, want 1", stage, misses, d)
				}
				if d := after[hits] - before[hits]; d != 1 {
					t.Fatalf("%s: %s moved by %d, want 1", stage, hits, d)
				}
			}
			missThenHit("fresh pool")
			primary, ok := r.pool.(interface {
				CrashPrimary()
				RejoinPrimary(*simclock.Clock) error
			})
			if !ok {
				return
			}
			primary.CrashPrimary()
			if err := primary.RejoinPrimary(clk); err != nil {
				t.Fatal(err)
			}
			missThenHit("after rejoin")
		})
	}
}

// TestWriteVisibleAfterRelease: bytes written under a write latch are seen
// by the next Get (same pool, after the release protocol ran).
func TestWriteVisibleAfterRelease(t *testing.T) {
	forEachPool(t, func(t *testing.T, r *rig) {
		clk := simclock.New()
		id := seedPage(t, r.store, 7, 0x01)
		f, err := r.pool.Get(clk, id, buffer.Write)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeAt(f, payloadOff, []byte{0x5C}); err != nil {
			t.Fatal(err)
		}
		f.MarkDirty()
		release(t, f)
		f2, err := r.pool.Get(clk, id, buffer.Read)
		if err != nil {
			t.Fatal(err)
		}
		var b [1]byte
		if err := readAt(f2, payloadOff, b[:]); err != nil {
			t.Fatal(err)
		}
		release(t, f2)
		if b[0] != 0x5C {
			t.Fatalf("payload after write = %#x, want 0x5C", b[0])
		}
	})
}

// TestWriteUnderReadLatchRejected: every pool refuses WriteAt on a
// read-latched frame.
func TestWriteUnderReadLatchRejected(t *testing.T) {
	forEachPool(t, func(t *testing.T, r *rig) {
		clk := simclock.New()
		id := seedPage(t, r.store, 1, 0)
		f, err := r.pool.Get(clk, id, buffer.Read)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeAt(f, payloadOff, []byte{1}); err == nil {
			t.Fatal("WriteAt under a read latch succeeded")
		}
		release(t, f)
	})
}

// TestNewPageZeroedAndWritable: NewPage hands out a write-latched zeroed
// frame with a fresh id; the content survives re-Get.
func TestNewPageZeroedAndWritable(t *testing.T) {
	forEachPool(t, func(t *testing.T, r *rig) {
		clk := simclock.New()
		f, err := r.pool.NewPage(clk)
		if err != nil {
			t.Fatal(err)
		}
		id := f.ID()
		var b [1]byte
		if err := readAt(f, payloadOff, b[:]); err != nil {
			t.Fatal(err)
		}
		if b[0] != 0 {
			t.Fatalf("fresh page byte = %#x, want 0", b[0])
		}
		if err := writeAt(f, payloadOff, []byte{0x77}); err != nil {
			t.Fatal(err)
		}
		f.MarkDirty()
		release(t, f)
		f2, err := r.pool.Get(clk, id, buffer.Read)
		if err != nil {
			t.Fatal(err)
		}
		if err := readAt(f2, payloadOff, b[:]); err != nil {
			t.Fatal(err)
		}
		release(t, f2)
		if b[0] != 0x77 {
			t.Fatalf("new page content lost: %#x", b[0])
		}
	})
}

// TestGetOrCreateAfterErrNotFound: a Get for a never-written page surfaces
// storage.ErrNotFound (errors.Is through every wrapping layer), and
// GetOrCreate then materializes a zeroed write-latched frame under the same
// id — the recovery redo path for post-checkpoint page creations.
func TestGetOrCreateAfterErrNotFound(t *testing.T) {
	forEachPool(t, func(t *testing.T, r *rig) {
		clk := simclock.New()
		id := r.store.AllocPageID() // allocated, never written
		if _, err := r.pool.Get(clk, id, buffer.Write); !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("Get of absent page: err = %v, want ErrNotFound", err)
		}
		f, err := r.pool.GetOrCreate(clk, id)
		if err != nil {
			t.Fatal(err)
		}
		if f.ID() != id {
			t.Fatalf("GetOrCreate id = %d, want %d", f.ID(), id)
		}
		if err := writeAt(f, payloadOff, []byte{0x42}); err != nil {
			t.Fatalf("GetOrCreate frame not write-latched: %v", err)
		}
		f.MarkDirty()
		release(t, f)
		// A second GetOrCreate is now a plain hit on the materialized page.
		f2, err := r.pool.GetOrCreate(clk, id)
		if err != nil {
			t.Fatal(err)
		}
		var b [1]byte
		if err := readAt(f2, payloadOff, b[:]); err != nil {
			t.Fatal(err)
		}
		release(t, f2)
		if b[0] != 0x42 {
			t.Fatalf("created page content lost: %#x", b[0])
		}
	})
}

// TestFlushAllBarrierOrdering: the write-ahead barrier must observe storage
// BEFORE the dirty image lands there (its whole point is forcing the log
// first), must be told the page's LSN, and FlushAll must leave storage
// holding the new bytes.
func TestFlushAllBarrierOrdering(t *testing.T) {
	forEachPool(t, func(t *testing.T, r *rig) {
		clk := simclock.New()
		id := seedPage(t, r.store, 7, 0x01)
		const newLSN = 99
		f, err := r.pool.Get(clk, id, buffer.Write)
		if err != nil {
			t.Fatal(err)
		}
		var lsnBytes [8]byte
		binary.LittleEndian.PutUint64(lsnBytes[:], newLSN)
		if err := writeAt(f, 8, lsnBytes[:]); err != nil {
			t.Fatal(err)
		}
		if err := writeAt(f, payloadOff, []byte{0xEE}); err != nil {
			t.Fatal(err)
		}
		f.MarkDirty()
		release(t, f)

		var mu sync.Mutex
		calls := 0
		sawLSN := uint64(0)
		r.barrier(func(bclk *simclock.Clock, pageLSN uint64) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if pageLSN == newLSN {
				sawLSN = pageLSN
			}
			img := make([]byte, page.Size)
			if err := r.store.ReadPage(bclk, id, img); err == nil && img[payloadOff] == 0xEE {
				t.Errorf("dirty image reached storage before the barrier ran")
			}
		})
		if err := r.pool.FlushAll(clk); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		if calls == 0 {
			t.Fatal("FlushAll never invoked the barrier")
		}
		if sawLSN != newLSN {
			t.Fatalf("barrier never saw the page LSN %d", newLSN)
		}
		img := make([]byte, page.Size)
		if err := r.store.ReadPage(clk, id, img); err != nil {
			t.Fatal(err)
		}
		if img[payloadOff] != 0xEE {
			t.Fatalf("storage after FlushAll = %#x, want 0xEE", img[payloadOff])
		}
	})
}

// TestResidentBoundedByCapacity: streaming through more pages than the pool
// holds keeps Resident within the frame budget (eviction works) while every
// page stays readable.
func TestResidentBoundedByCapacity(t *testing.T) {
	forEachPool(t, func(t *testing.T, r *rig) {
		clk := simclock.New()
		ids := make([]uint64, capacity+4)
		for i := range ids {
			ids[i] = seedPage(t, r.store, uint64(i+1), byte(i+1))
		}
		for i, id := range ids {
			f, err := r.pool.Get(clk, id, buffer.Read)
			if err != nil {
				t.Fatalf("page %d: %v", id, err)
			}
			var b [1]byte
			if err := readAt(f, payloadOff, b[:]); err != nil {
				t.Fatal(err)
			}
			release(t, f)
			if b[0] != byte(i+1) {
				t.Fatalf("page %d payload = %#x, want %#x", id, b[0], byte(i+1))
			}
		}
		if res := r.pool.Resident(); res > capacity {
			t.Fatalf("Resident = %d, exceeds capacity %d", res, capacity)
		}
	})
}

// TestAllPinnedSurfacesError: with every frame pinned, one more Get must
// fail with a diagnosable "pinned" error instead of evicting a live frame
// or deadlocking.
func TestAllPinnedSurfacesError(t *testing.T) {
	forEachPool(t, func(t *testing.T, r *rig) {
		clk := simclock.New()
		held := make([]buffer.Frame, 0, capacity)
		for i := 0; i < capacity; i++ {
			id := seedPage(t, r.store, uint64(i+1), byte(i))
			f, err := r.pool.Get(clk, id, buffer.Read)
			if err != nil {
				t.Fatalf("pin %d: %v", i, err)
			}
			held = append(held, f)
		}
		extra := seedPage(t, r.store, 100, 0xFF)
		if _, err := r.pool.Get(clk, extra, buffer.Read); err == nil || !strings.Contains(err.Error(), "pinned") {
			t.Fatalf("Get with all frames pinned: err = %v, want pinned error", err)
		}
		for _, f := range held {
			release(t, f)
		}
		// With the pins gone the same Get must succeed.
		f, err := r.pool.Get(clk, extra, buffer.Read)
		if err != nil {
			t.Fatal(err)
		}
		release(t, f)
	})
}

// TestParallelGetSharedPage: goroutines hammer a small hot set concurrently
// (one simclock per goroutine — clocks are not thread-safe) to give the
// race detector a workout over the sharded hit path.
func TestParallelGetSharedPage(t *testing.T) {
	forEachPool(t, func(t *testing.T, r *rig) {
		warm := simclock.New()
		ids := make([]uint64, 4)
		for i := range ids {
			ids[i] = seedPage(t, r.store, uint64(i+1), byte(i))
			f, err := r.pool.Get(warm, ids[i], buffer.Read)
			if err != nil {
				t.Fatal(err)
			}
			release(t, f)
		}
		const goroutines = 8
		const iters = 200
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				clk := simclock.New()
				for i := 0; i < iters; i++ {
					f, err := r.pool.Get(clk, ids[(g+i)%len(ids)], buffer.Read)
					if err != nil {
						errs <- err
						return
					}
					var b [1]byte
					if err := readAt(f, payloadOff, b[:]); err != nil {
						errs <- err
						return
					}
					if err := f.Release(); err != nil {
						errs <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}

// TestTransientStoreFaultSurfacesCleanly: the backing store fails exactly
// one page read with a transient error. The pool must surface the injected
// error (wrapped, so callers can errors.Is it), leak neither a frame nor a
// pin, and succeed on an immediate retry once the store recovers.
func TestTransientStoreFaultSurfacesCleanly(t *testing.T) {
	forEachPool(t, func(t *testing.T, r *rig) {
		clk := simclock.New()
		id := seedPage(t, r.store, 5, 0xAB)
		resident := r.pool.Resident()

		r.store.SetInjector(fault.NewPlan(1).FailAt(fault.OpStoreRead, 1, fault.ErrInjected))
		if _, err := r.pool.Get(clk, id, buffer.Read); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("Get during store fault = %v, want the injected error", err)
		}
		if n := r.pinned(); n != 0 {
			t.Fatalf("failed Get leaked %d pins", n)
		}
		if n := r.pool.Resident(); n != resident {
			t.Fatalf("failed Get leaked a frame: resident %d -> %d", resident, n)
		}

		// The hiccup was transient: the very next attempt must succeed.
		r.store.SetInjector(nil)
		f, err := r.pool.Get(clk, id, buffer.Read)
		if err != nil {
			t.Fatalf("retry after transient fault: %v", err)
		}
		buf := make([]byte, 1)
		if err := readAt(f, payloadOff, buf); err != nil || buf[0] != 0xAB {
			t.Fatalf("retry read payload = %x, %v; want ab", buf, err)
		}
		release(t, f)
	})
}

// readAt reads buf at off from f's page in a visit of its own.
func readAt(f buffer.Frame, off int, buf []byte) error {
	return buffer.Visit(f, func(pg page.Page) error { return pg.ReadAt(off, buf) })
}

// writeAt writes data at off to f's page in a visit of its own.
func writeAt(f buffer.Frame, off int, data []byte) error {
	return buffer.Visit(f, func(pg page.Page) error { return pg.WriteAt(off, data) })
}
