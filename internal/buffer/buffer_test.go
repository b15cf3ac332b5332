package buffer

import (
	"strings"
	"testing"

	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
)

// seedPage writes an initialized page with one record to store.
func seedPage(t *testing.T, store *storage.Store, key int64, val string) uint64 {
	t.Helper()
	clk := simclock.New()
	id := store.AllocPageID()
	img := make([]byte, page.Size)
	pg := page.Image(img)
	if err := pg.Init(id, page.TypeLeaf, 0); err != nil {
		t.Fatal(err)
	}
	if err := pg.Insert(key, []byte(val)); err != nil {
		t.Fatal(err)
	}
	if err := store.WritePage(clk, id, img); err != nil {
		t.Fatal(err)
	}
	return id
}

func TestDRAMPoolHitMiss(t *testing.T) {
	store := storage.New(storage.Config{})
	id := seedPage(t, store, 42, "value")
	p := NewDRAMPool(store, 4, cxl.DRAMProfile(), nil)
	clk := simclock.New()

	f, err := p.Get(clk, id, Read)
	if err != nil {
		t.Fatal(err)
	}
	v, err := findVal(f, 42)
	if err != nil || string(v) != "value" {
		t.Fatalf("find = %q, %v", v, err)
	}
	if err := f.Release(); err != nil {
		t.Fatal(err)
	}
	missTime := clk.Now()
	if missTime < storage.DefaultReadNanos {
		t.Fatalf("miss did not charge storage read: %d", missTime)
	}
	// Second access: hit, no storage I/O.
	f2, err := p.Get(clk, id, Read)
	if err != nil {
		t.Fatal(err)
	}
	f2.Release()
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.StorageReads != 1 {
		t.Fatalf("stats %+v", st)
	}
	if clk.Now()-missTime >= storage.DefaultReadNanos {
		t.Fatal("hit charged a storage read")
	}
}

func TestDRAMPoolEvictionWritesDirty(t *testing.T) {
	store := storage.New(storage.Config{})
	ids := make([]uint64, 3)
	for i := range ids {
		ids[i] = seedPage(t, store, int64(i), "orig")
	}
	p := NewDRAMPool(store, 2, cxl.DRAMProfile(), nil)
	clk := simclock.New()

	f, err := p.Get(clk, ids[0], Write)
	if err != nil {
		t.Fatal(err)
	}
	if err := updateVal(f, 0, []byte("new!")); err != nil {
		t.Fatal(err)
	}
	f.MarkDirty()
	f.Release()
	// Touch two more pages: ids[0] must be evicted and written back.
	for _, id := range ids[1:] {
		g, err := p.Get(clk, id, Read)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
	}
	if p.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", p.Stats().Evictions)
	}
	// Reload from storage: must see the update.
	img := make([]byte, page.Size)
	if err := store.ReadPage(clk, ids[0], img); err != nil {
		t.Fatal(err)
	}
	v, err := page.Image(img).Find(0)
	if err != nil || string(v) != "new!" {
		t.Fatalf("post-eviction storage image: %q, %v", v, err)
	}
}

func TestDRAMPoolAllPinned(t *testing.T) {
	store := storage.New(storage.Config{})
	a := seedPage(t, store, 1, "a")
	b := seedPage(t, store, 2, "b")
	p := NewDRAMPool(store, 1, cxl.DRAMProfile(), nil)
	clk := simclock.New()
	f, err := p.Get(clk, a, Read)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(clk, b, Read); err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("expected pinned error, got %v", err)
	}
	f.Release()
	g, err := p.Get(clk, b, Read)
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
}

func TestFrameDoubleReleaseAndBounds(t *testing.T) {
	store := storage.New(storage.Config{})
	id := seedPage(t, store, 1, "x")
	p := NewDRAMPool(store, 2, cxl.DRAMProfile(), nil)
	clk := simclock.New()
	f, _ := p.Get(clk, id, Write)
	if err := readAt(f, page.Size-2, make([]byte, 8)); err == nil {
		t.Fatal("out-of-bounds frame read accepted")
	}
	if err := writeAt(f, -1, []byte{0}); err == nil {
		t.Fatal("negative frame write accepted")
	}
	if f.ID() != id {
		t.Fatal("frame id wrong")
	}
	if err := f.Release(); err != nil {
		t.Fatal(err)
	}
	if err := f.Release(); err == nil {
		t.Fatal("double release accepted")
	}
}

func TestNewPageAndFlushAll(t *testing.T) {
	store := storage.New(storage.Config{})
	p := NewDRAMPool(store, 4, cxl.DRAMProfile(), nil)
	clk := simclock.New()
	f, err := p.NewPage(clk)
	if err != nil {
		t.Fatal(err)
	}
	err = Visit(f, func(pg page.Page) error {
		if err := pg.Init(f.ID(), page.TypeLeaf, 0); err != nil {
			return err
		}
		return pg.Insert(9, []byte("nine"))
	})
	if err != nil {
		t.Fatal(err)
	}
	f.MarkDirty()
	id := f.ID()
	f.Release()
	if store.Has(id) {
		t.Fatal("new page hit storage before flush")
	}
	var barrierLSN uint64 = 999
	p.SetFlushBarrier(func(clk *simclock.Clock, lsn uint64) { barrierLSN = lsn })
	if err := p.FlushAll(clk); err != nil {
		t.Fatal(err)
	}
	if barrierLSN != 0 {
		t.Fatalf("flush barrier saw lsn %d, want 0 (page never logged)", barrierLSN)
	}
	if !store.Has(id) {
		t.Fatal("FlushAll did not persist the page")
	}
	if p.Resident() != 1 {
		t.Fatalf("resident = %d", p.Resident())
	}
}

func newTiered(t *testing.T, store *storage.Store, localCap int) *TieredPool {
	t.Helper()
	remote := NewRemoteMemory("rm", 64)
	nic := rdma.NewNIC("h0", 0, 0)
	return NewTieredPool(store, remote, nic, localCap, cxl.DRAMProfile(), nil)
}

func TestTieredMissPathsAndAmplification(t *testing.T) {
	store := storage.New(storage.Config{})
	id := seedPage(t, store, 1, "deep")
	p := newTiered(t, store, 1)
	clk := simclock.New()

	// First miss: storage read + remote populate.
	f, err := p.Get(clk, id, Read)
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	st := p.Stats()
	if st.StorageReads != 1 || st.RemoteWrites != 1 {
		t.Fatalf("first miss stats %+v", st)
	}
	// Evict by touching another page.
	id2 := seedPage(t, store, 2, "two")
	f2, err := p.Get(clk, id2, Read)
	if err != nil {
		t.Fatal(err)
	}
	f2.Release()
	if p.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", p.Stats().Evictions)
	}
	// Re-access id: must come from remote via a full-page RDMA read, even
	// though the query needs a few bytes — read amplification.
	nicBytesBefore := p.NIC().Bandwidth().Stats().Units
	f3, err := p.Get(clk, id, Read)
	if err != nil {
		t.Fatal(err)
	}
	v, err := findVal(f3, 1)
	if err != nil || string(v) != "deep" {
		t.Fatalf("remote round trip: %q, %v", v, err)
	}
	f3.Release()
	if p.Stats().RemoteReads != 1 {
		t.Fatalf("remote reads = %d", p.Stats().RemoteReads)
	}
	moved := p.NIC().Bandwidth().Stats().Units - nicBytesBefore
	if moved < page.Size {
		t.Fatalf("remote hit moved only %d bytes; expected a full page", moved)
	}
}

func TestTieredDirtyEvictionGoesToRemoteThenCheckpoint(t *testing.T) {
	store := storage.New(storage.Config{})
	id := seedPage(t, store, 1, "old")
	p := newTiered(t, store, 1)
	clk := simclock.New()
	f, err := p.Get(clk, id, Write)
	if err != nil {
		t.Fatal(err)
	}
	if err := updateVal(f, 1, []byte("NEW")); err != nil {
		t.Fatal(err)
	}
	f.MarkDirty()
	f.Release()
	// Force eviction.
	id2 := seedPage(t, store, 2, "x")
	g, err := p.Get(clk, id2, Read)
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
	st := p.Stats()
	if st.RemoteWrites < 2 {
		t.Fatalf("dirty eviction stats %+v", st)
	}
	// Remote must hold the update; storage must NOT yet (deferred to
	// checkpoint).
	rimg := make([]byte, page.Size)
	if err := p.Remote().Read(clk, p.NIC(), id, rimg); err != nil {
		t.Fatal(err)
	}
	v2, err := page.Image(rimg).Find(1)
	if err != nil || string(v2) != "NEW" {
		t.Fatalf("remote after dirty eviction: %q, %v", v2, err)
	}
	img := make([]byte, page.Size)
	if err := store.ReadPage(clk, id, img); err != nil {
		t.Fatal(err)
	}
	if v, _ := page.Image(img).Find(1); string(v) == "NEW" {
		t.Fatal("dirty eviction wrote through to storage; should defer to checkpoint")
	}
	// Re-fetching the page from remote keeps it dirty relative to storage.
	h, err := p.Get(clk, id, Read)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	// Checkpoint: FlushAll must land the update on storage.
	if err := p.FlushAll(clk); err != nil {
		t.Fatal(err)
	}
	if err := store.ReadPage(clk, id, img); err != nil {
		t.Fatal(err)
	}
	v, err := page.Image(img).Find(1)
	if err != nil || string(v) != "NEW" {
		t.Fatalf("storage after checkpoint: %q, %v", v, err)
	}
}

func TestTieredRemoteOnlyDirtyFlushedByCheckpoint(t *testing.T) {
	// A dirty page evicted to remote and NOT re-fetched must still reach
	// storage at checkpoint (the remote-only flush path).
	store := storage.New(storage.Config{})
	id := seedPage(t, store, 1, "old")
	p := newTiered(t, store, 1)
	clk := simclock.New()
	f, _ := p.Get(clk, id, Write)
	updateVal(f, 1, []byte("NEW"))
	f.MarkDirty()
	f.Release()
	id2 := seedPage(t, store, 2, "x")
	g, _ := p.Get(clk, id2, Read)
	g.Release() // id evicted dirty to remote; id2 resident
	if err := p.FlushAll(clk); err != nil {
		t.Fatal(err)
	}
	img := make([]byte, page.Size)
	if err := store.ReadPage(clk, id, img); err != nil {
		t.Fatal(err)
	}
	v, err := page.Image(img).Find(1)
	if err != nil || string(v) != "NEW" {
		t.Fatalf("storage after checkpoint: %q, %v", v, err)
	}
}

func TestRemoteMemoryFullAndDrop(t *testing.T) {
	r := NewRemoteMemory("rm", 1)
	nic := rdma.NewNIC("h", 0, 0)
	clk := simclock.New()
	img := make([]byte, page.Size)
	if err := r.Write(clk, nic, 1, img); err != nil {
		t.Fatal(err)
	}
	if err := r.Write(clk, nic, 2, img); err == nil {
		t.Fatal("overfull remote accepted")
	}
	r.Drop(1)
	if r.Has(1) {
		t.Fatal("drop did not remove page")
	}
	if err := r.Write(clk, nic, 2, img); err != nil {
		t.Fatalf("freed slot not reused: %v", err)
	}
	if r.PageCount() != 1 {
		t.Fatalf("page count = %d", r.PageCount())
	}
	if err := r.Read(clk, nic, 99, img); err == nil {
		t.Fatal("read of absent page accepted")
	}
}

func TestTieredFlushAll(t *testing.T) {
	store := storage.New(storage.Config{})
	id := seedPage(t, store, 1, "aa")
	p := newTiered(t, store, 4)
	clk := simclock.New()
	f, _ := p.Get(clk, id, Write)
	updateVal(f, 1, []byte("zz"))
	f.MarkDirty()
	f.Release()
	if err := p.FlushAll(clk); err != nil {
		t.Fatal(err)
	}
	img := make([]byte, page.Size)
	if err := store.ReadPage(clk, id, img); err != nil {
		t.Fatal(err)
	}
	v, _ := page.Image(img).Find(1)
	if string(v) != "zz" {
		t.Fatalf("flushall image: %q", v)
	}
}

// readAt reads buf at off from f's page in a visit of its own.
func readAt(f Frame, off int, buf []byte) error {
	return Visit(f, func(pg page.Page) error { return pg.ReadAt(off, buf) })
}

// writeAt writes data at off to f's page in a visit of its own.
func writeAt(f Frame, off int, data []byte) error {
	return Visit(f, func(pg page.Page) error { return pg.WriteAt(off, data) })
}

// findVal looks key up in f's page in a visit of its own.
func findVal(f Frame, key int64) (v []byte, err error) {
	err = Visit(f, func(pg page.Page) (err error) {
		v, err = pg.Find(key)
		return err
	})
	return v, err
}

// updateVal replaces key's value in f's page in a visit of its own.
func updateVal(f Frame, key int64, val []byte) error {
	return Visit(f, func(pg page.Page) error { return pg.Update(key, val) })
}
