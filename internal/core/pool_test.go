package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simcpu"
	"polarcxlmem/internal/storage"
)

type rig struct {
	topo  *cxl.Topology
	host  *cxl.HostPort
	cache *simcpu.Cache
	store *storage.Store
	pool  *CXLPool
	clk   *simclock.Clock
}

func newRig(t *testing.T, nblocks int64) *rig {
	t.Helper()
	topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: RegionSizeFor(nblocks) + 4096})
	host, err := topo.AttachHost("host0", 0)
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	region, err := host.Allocate(clk, "db0", RegionSizeFor(nblocks))
	if err != nil {
		t.Fatal(err)
	}
	cache := host.NewCache("db0", 1<<20)
	store := storage.New(storage.Config{})
	pool, err := Format(host, region, cache, store)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{topo: topo, host: host, cache: cache, store: store, pool: pool, clk: clk}
}

// reconnect re-attaches host0 after a crash: the restarted process gets
// the surviving port back.
func (r *rig) reconnect(t *testing.T) *cxl.HostPort {
	t.Helper()
	h, err := r.topo.AttachHost("host0", 0)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// seed stores an initialized one-record page and returns its id.
func (r *rig) seed(t *testing.T, key int64, val string) uint64 {
	t.Helper()
	id := r.store.AllocPageID()
	a := page.NewSliceAccessor()
	pg := page.Wrap(a)
	if err := pg.Init(id, page.TypeLeaf, 0); err != nil {
		t.Fatal(err)
	}
	if err := pg.Insert(key, []byte(val)); err != nil {
		t.Fatal(err)
	}
	if err := r.store.WritePage(r.clk, id, a.Buf); err != nil {
		t.Fatal(err)
	}
	return id
}

func TestFormatAndBasicGet(t *testing.T) {
	r := newRig(t, 8)
	id := r.seed(t, 42, "hello-cxl")
	f, err := r.pool.Get(r.clk, id, buffer.Read)
	if err != nil {
		t.Fatal(err)
	}
	v, err := page.Wrap(f).Find(42)
	if err != nil || string(v) != "hello-cxl" {
		t.Fatalf("find = %q, %v", v, err)
	}
	if err := f.Release(); err != nil {
		t.Fatal(err)
	}
	st := r.pool.Stats()
	if st.Misses != 1 || st.StorageReads != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Hit path: no storage read.
	f2, _ := r.pool.Get(r.clk, id, buffer.Read)
	f2.Release()
	if r.pool.Stats().StorageReads != 1 {
		t.Fatal("hit went to storage")
	}
	if r.pool.Resident() != 1 {
		t.Fatalf("resident = %d", r.pool.Resident())
	}
}

func TestWritePublishOnRelease(t *testing.T) {
	r := newRig(t, 8)
	id := r.seed(t, 1, "aaaa")
	f, err := r.pool.Get(r.clk, id, buffer.Write)
	if err != nil {
		t.Fatal(err)
	}
	pg := page.Wrap(f)
	if err := pg.Update(1, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	if err := pg.SetLSN(77); err != nil {
		t.Fatal(err)
	}
	f.MarkDirty()
	// Before release: the update lives in the CPU cache; CXL still has the
	// old bytes (write-back).
	img := make([]byte, page.Size)
	if err := r.pool.RawPage(id, img); err != nil {
		t.Fatal(err)
	}
	if v, _ := page.Wrap(&page.SliceAccessor{Buf: img}).Find(1); string(v) == "bbbb" {
		t.Fatal("update visible in CXL before release flush")
	}
	if err := f.Release(); err != nil {
		t.Fatal(err)
	}
	// After release: published.
	if err := r.pool.RawPage(id, img); err != nil {
		t.Fatal(err)
	}
	v, err := page.Wrap(&page.SliceAccessor{Buf: img}).Find(1)
	if err != nil || string(v) != "bbbb" {
		t.Fatalf("after release: %q, %v", v, err)
	}
	// Metadata LSN updated, lock word cleared.
	if lsn, ok := r.pool.PageLSN(id); !ok || lsn != 77 {
		t.Fatalf("meta lsn = %d, %v", lsn, ok)
	}
}

func TestWriteUnderReadLatchRejected(t *testing.T) {
	r := newRig(t, 8)
	id := r.seed(t, 1, "x")
	f, _ := r.pool.Get(r.clk, id, buffer.Read)
	defer f.Release()
	if err := f.WriteAt(100, []byte{1}); err == nil {
		t.Fatal("write under read latch accepted")
	}
}

func TestUseAfterReleaseRejected(t *testing.T) {
	r := newRig(t, 8)
	id := r.seed(t, 1, "x")
	f, _ := r.pool.Get(r.clk, id, buffer.Write)
	f.Release()
	if err := f.ReadAt(0, make([]byte, 8)); err == nil {
		t.Fatal("read after release accepted")
	}
	if err := f.Release(); err == nil {
		t.Fatal("double release accepted")
	}
}

func TestEvictionFlushesDirtyToStorage(t *testing.T) {
	r := newRig(t, 2)
	a := r.seed(t, 1, "one1")
	f, _ := r.pool.Get(r.clk, a, buffer.Write)
	page.Wrap(f).Update(1, []byte("NEW1"))
	f.MarkDirty()
	f.Release()
	// Fill the remaining block plus one more: a must be evicted.
	b := r.seed(t, 2, "two2")
	c := r.seed(t, 3, "tri3")
	for _, id := range []uint64{b, c} {
		g, err := r.pool.Get(r.clk, id, buffer.Read)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
	}
	if r.pool.Stats().Evictions == 0 {
		t.Fatal("no eviction happened")
	}
	img := make([]byte, page.Size)
	if err := r.store.ReadPage(r.clk, a, img); err != nil {
		t.Fatal(err)
	}
	v, err := page.Wrap(&page.SliceAccessor{Buf: img}).Find(1)
	if err != nil || string(v) != "NEW1" {
		t.Fatalf("storage after eviction: %q, %v", v, err)
	}
}

func TestNewPageAndFlushAll(t *testing.T) {
	r := newRig(t, 8)
	f, err := r.pool.NewPage(r.clk)
	if err != nil {
		t.Fatal(err)
	}
	pg := page.Wrap(f)
	if err := pg.Init(f.ID(), page.TypeLeaf, 0); err != nil {
		t.Fatal(err)
	}
	if err := pg.Insert(5, []byte("five")); err != nil {
		t.Fatal(err)
	}
	f.MarkDirty()
	id := f.ID()
	f.Release()
	if r.store.Has(id) {
		t.Fatal("page in storage before FlushAll")
	}
	if err := r.pool.FlushAll(r.clk); err != nil {
		t.Fatal(err)
	}
	if !r.store.Has(id) {
		t.Fatal("FlushAll missed the dirty page")
	}
	// A second FlushAll finds nothing dirty.
	w := r.store.Device().Stats().Units
	if err := r.pool.FlushAll(r.clk); err != nil {
		t.Fatal(err)
	}
	if r.store.Device().Stats().Units != w {
		t.Fatal("clean page re-flushed")
	}
}

func TestCrashMidUpdateLeavesLockedBlock(t *testing.T) {
	r := newRig(t, 8)
	id := r.seed(t, 1, "base")
	f, err := r.pool.Get(r.clk, id, buffer.Write)
	if err != nil {
		t.Fatal(err)
	}
	if err := page.Wrap(f).Update(1, []byte("half")); err != nil {
		t.Fatal(err)
	}
	// Crash without Release: dirty cache lines vanish, lock word persists.
	r.pool.Crash()

	clk2 := simclock.New()
	host2 := r.reconnect(t)
	region2, err := host2.Reattach(clk2, "db0")
	if err != nil {
		t.Fatal(err)
	}
	cache2 := host2.NewCache("db0", 1<<20)
	pool2, rep, err := Open(clk2, host2, region2, cache2, r.store)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Blocks) != 1 {
		t.Fatalf("scan found %d blocks", len(rep.Blocks))
	}
	if !rep.Blocks[0].Locked {
		t.Fatal("crashed-mid-update block not reported locked")
	}
	// The CXL image must still be the pre-update one (write-back cache died
	// before flushing).
	img := make([]byte, page.Size)
	if err := pool2.RawPage(id, img); err != nil {
		t.Fatal(err)
	}
	v, _ := page.Wrap(&page.SliceAccessor{Buf: img}).Find(1)
	if string(v) != "base" {
		t.Fatalf("CXL image after crash: %q", v)
	}
}

func TestCrashAfterReleaseIsClean(t *testing.T) {
	r := newRig(t, 8)
	id := r.seed(t, 1, "base")
	f, _ := r.pool.Get(r.clk, id, buffer.Write)
	pg := page.Wrap(f)
	pg.Update(1, []byte("done"))
	pg.SetLSN(5)
	f.MarkDirty()
	f.Release()
	r.pool.Crash()

	clk2 := simclock.New()
	host2 := r.reconnect(t)
	region2, _ := host2.Reattach(clk2, "db0")
	pool2, rep, err := Open(clk2, host2, region2, host2.NewCache("db0", 1<<20), r.store)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blocks[0].Locked {
		t.Fatal("released block reported locked")
	}
	if !rep.Blocks[0].Dirty {
		t.Fatal("dirty flag lost across crash")
	}
	img := make([]byte, page.Size)
	pool2.RawPage(id, img)
	v, _ := page.Wrap(&page.SliceAccessor{Buf: img}).Find(1)
	if string(v) != "done" {
		t.Fatalf("published update lost: %q", v)
	}
	if rep.Blocks[0].LSN != 5 {
		t.Fatalf("meta lsn = %d", rep.Blocks[0].LSN)
	}
}

func TestCrashMidLRUSpliceDetectedAndRebuilt(t *testing.T) {
	r := newRig(t, 8)
	ids := make([]uint64, 4)
	for i := range ids {
		ids[i] = r.seed(t, int64(i), fmt.Sprintf("v%d", i))
		f, err := r.pool.Get(r.clk, ids[i], buffer.Read)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	// Force an LRU move that aborts mid-splice.
	boom := errors.New("crash injected")
	r.pool.SetHook(func(step string) error {
		if step == "lru-mid-splice" {
			return boom
		}
		return nil
	})
	// Touch the oldest page enough times/epochs to trigger a move.
	var err error
	for i := 0; i < 20 && err == nil; i++ {
		var f buffer.Frame
		f, err = r.pool.Get(r.clk, ids[i%4], buffer.Read)
		if err == nil {
			f.Release()
		}
	}
	if !errors.Is(err, boom) {
		t.Fatalf("hook never fired: %v", err)
	}
	r.pool.Crash()

	clk2 := simclock.New()
	host2 := r.reconnect(t)
	region2, _ := host2.Reattach(clk2, "db0")
	pool2, rep, err := Open(clk2, host2, region2, host2.NewCache("db0", 1<<20), r.store)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.LRULock {
		t.Fatal("interrupted splice not detected via lruLock")
	}
	if !rep.LRURebuilt {
		t.Fatal("LRU list not rebuilt")
	}
	// The rebuilt pool must be fully usable: get every page.
	for i, id := range ids {
		f, err := pool2.Get(clk2, id, buffer.Read)
		if err != nil {
			t.Fatal(err)
		}
		v, err := page.Wrap(f).Find(int64(i))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("page %d after rebuild: %q, %v", id, v, err)
		}
		f.Release()
	}
}

func TestOpenCleanRestartKeepsList(t *testing.T) {
	r := newRig(t, 8)
	id := r.seed(t, 9, "warm")
	f, _ := r.pool.Get(r.clk, id, buffer.Read)
	f.Release()
	r.pool.Crash()
	clk2 := simclock.New()
	host2 := r.reconnect(t)
	region2, _ := host2.Reattach(clk2, "db0")
	_, rep, err := Open(clk2, host2, region2, host2.NewCache("db0", 1<<20), r.store)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LRULock || rep.LRURebuilt {
		t.Fatalf("clean list was rebuilt: %+v", rep)
	}
}

func TestRepairAndDropPage(t *testing.T) {
	r := newRig(t, 8)
	id := r.seed(t, 1, "orig")
	f, _ := r.pool.Get(r.clk, id, buffer.Write)
	page.Wrap(f).Update(1, []byte("bad!"))
	r.pool.Crash() // locked crash

	clk2 := simclock.New()
	host2 := r.reconnect(t)
	region2, _ := host2.Reattach(clk2, "db0")
	pool2, rep, err := Open(clk2, host2, region2, host2.NewCache("db0", 1<<20), r.store)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Blocks[0].Locked {
		t.Fatal("expected locked block")
	}
	// Repair from the storage image (what PolarRecv does, minus redo).
	img := make([]byte, page.Size)
	if err := r.store.ReadPage(clk2, id, img); err != nil {
		t.Fatal(err)
	}
	if err := pool2.RepairPage(clk2, id, img, false); err != nil {
		t.Fatal(err)
	}
	g, err := pool2.Get(clk2, id, buffer.Read)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := page.Wrap(g).Find(1)
	if string(v) != "orig" {
		t.Fatalf("repaired page: %q", v)
	}
	g.Release()
	if err := pool2.DropPage(clk2, id); err != nil {
		t.Fatal(err)
	}
	if pool2.Resident() != 0 {
		t.Fatal("drop left page resident")
	}
	if err := pool2.DropPage(clk2, id); err == nil {
		t.Fatal("double drop accepted")
	}
	if err := pool2.RepairPage(clk2, id, img, false); err == nil {
		t.Fatal("repair of dropped page accepted")
	}
	// The freed block must be reusable.
	nf, err := pool2.NewPage(clk2)
	if err != nil {
		t.Fatal(err)
	}
	nf.Release()
}

func TestOpenRejectsUnformattedRegion(t *testing.T) {
	host, err := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: RegionSizeFor(2) + 4096}).AttachHost("h", 0)
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	region, _ := host.Allocate(clk, "x", RegionSizeFor(2))
	if _, _, err := Open(clk, host, region, host.NewCache("x", 1<<20), storage.New(storage.Config{})); err == nil {
		t.Fatal("unformatted region opened")
	}
}

func TestPoolRandomWorkloadProperty(t *testing.T) {
	// Property: through arbitrary get/update/evict traffic, every page read
	// through the pool matches a shadow model.
	r := newRig(t, 4) // small pool: constant eviction pressure
	const npages = 10
	ids := make([]uint64, npages)
	shadow := make(map[uint64]string)
	for i := range ids {
		val := fmt.Sprintf("init-%02d", i)
		ids[i] = r.seed(t, 100, val)
		shadow[ids[i]] = val
	}
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 400; op++ {
		id := ids[rng.Intn(npages)]
		if rng.Intn(2) == 0 {
			f, err := r.pool.Get(r.clk, id, buffer.Read)
			if err != nil {
				t.Fatal(err)
			}
			v, err := page.Wrap(f).Find(100)
			if err != nil || string(v) != shadow[id] {
				t.Fatalf("op %d: page %d = %q, want %q (%v)", op, id, v, shadow[id], err)
			}
			f.Release()
		} else {
			nv := fmt.Sprintf("upd-%04d", op%10000)
			f, err := r.pool.Get(r.clk, id, buffer.Write)
			if err != nil {
				t.Fatal(err)
			}
			if err := page.Wrap(f).Update(100, []byte(nv)); err != nil {
				t.Fatal(err)
			}
			f.MarkDirty()
			f.Release()
			shadow[id] = nv
		}
	}
	if r.pool.Stats().Evictions == 0 {
		t.Fatal("workload never evicted; property test under-powered")
	}
}

func TestFormatTooSmall(t *testing.T) {
	host, err := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: 1 << 16}).AttachHost("h", 0)
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	region, _ := host.Allocate(clk, "x", 64)
	if _, err := Format(host, region, host.NewCache("x", 1<<20), storage.New(storage.Config{})); err == nil {
		t.Fatal("tiny region formatted")
	}
}

func TestBlocksForRoundTrip(t *testing.T) {
	for _, n := range []int64{1, 7, 100} {
		if got := BlocksFor(RegionSizeFor(n)); got != n {
			t.Fatalf("BlocksFor(RegionSizeFor(%d)) = %d", n, got)
		}
	}
}
