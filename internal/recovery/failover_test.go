package recovery

import (
	"bytes"
	"errors"
	"testing"

	"polarcxlmem/internal/btree"
	"polarcxlmem/internal/checkpoint"
	"polarcxlmem/internal/core"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/wal"
)

// leafRig is a multi-leaf topology rig: the instance's pool lives on leaf
// 0's memory box, and failover relocates it to a surviving leaf.
type leafRig struct {
	topo    *cxl.Topology
	host    *cxl.HostPort
	store   *storage.Store
	ws      *wal.Store
	pool    *core.CXLPool
	eng     *txn.Engine
	clk     *simclock.Clock
	nblocks int64
}

func newLeafRig(t *testing.T, leaves int, nblocks int64) *leafRig {
	t.Helper()
	topo := cxl.NewTopology(cxl.TopologyConfig{
		Leaves:    leaves,
		PoolBytes: core.RegionSizeFor(nblocks) + 4096,
	}, nil)
	host, err := topo.AttachHost("h0", 0)
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	region, err := host.AllocateOn(clk, 0, "db0", core.RegionSizeFor(nblocks))
	if err != nil {
		t.Fatal(err)
	}
	cache := host.NewCache("db0", 4<<20)
	store := storage.New(storage.Config{})
	pool, err := core.Format(host, region, cache, store)
	if err != nil {
		t.Fatal(err)
	}
	ws := wal.NewStore(0, 0)
	eng, err := txn.Bootstrap(clk, pool, wal.Attach(ws), store)
	if err != nil {
		t.Fatal(err)
	}
	return &leafRig{topo: topo, host: host, store: store, ws: ws,
		pool: pool, eng: eng, clk: clk, nblocks: nblocks}
}

// failover kills leaf 0's memory box (pool image gone) and rebuilds the
// instance on toLeaf from storage + the retained WAL.
func (r *leafRig) failover(t *testing.T, toLeaf int, ckpt *checkpoint.Area) (*core.CXLPool, *txn.Engine, *Result) {
	t.Helper()
	r.pool.Crash()
	r.topo.FailBox(0)
	clk2 := simclock.NewAt(r.clk.Now())
	host2, err := r.topo.AttachHost("h0-f", 0)
	if err != nil {
		t.Fatal(err)
	}
	region2, err := host2.AllocateOn(clk2, toLeaf, "db0", core.RegionSizeFor(r.nblocks))
	if err != nil {
		t.Fatal(err)
	}
	cache2 := host2.NewCache("db0", 4<<20)
	pool2, eng2, res, err := Failover(clk2, host2, region2, cache2, r.ws, r.store, ckpt)
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	checkRedo(t, res)
	return pool2, eng2, res
}

func TestFailoverToSurvivingLeaf(t *testing.T) {
	r := newLeafRig(t, 2, 256)
	runWorkload(t, r.clk, r.eng)
	// Uncommitted tail that must be undone on the replacement leaf.
	tr, err := r.eng.Table(r.clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	tx := r.eng.Begin(r.clk)
	if err := tx.Update(tr, 7, []byte("DOOMED")); err != nil {
		t.Fatal(err)
	}
	tx2 := r.eng.Begin(r.clk)
	tx2.Update(tr, 1, val(1))
	tx2.Commit() // group commit makes the doomed update durable

	_, eng2, res := r.failover(t, 1, nil)
	if res.Scheme != "failover" {
		t.Fatalf("scheme = %q", res.Scheme)
	}
	if res.RedoRecords == 0 || res.PagesRebuilt == 0 {
		t.Fatalf("failover rebuilt nothing: %+v", res)
	}
	if res.UndoneTxns == 0 {
		t.Fatalf("durable uncommitted update not undone: %+v", res)
	}
	clk := simclock.NewAt(r.clk.Now())
	verifyRecovered(t, clk, eng2)
	tr2, err := eng2.Table(clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	v, err := tr2.Get(clk, 7)
	if err != nil || bytes.Equal(v, []byte("DOOMED")) {
		t.Fatalf("Get(7) after failover = %q, %v (uncommitted must be undone)", v, err)
	}
	// The dead box really is dead: its device refuses access, and the
	// rebuilt instance never touches it.
	if !r.topo.BoxFailed(0) {
		t.Fatal("leaf 0 box reports healthy after FailBox")
	}
}

func TestFailoverFullRedoWithoutCheckpoint(t *testing.T) {
	// No checkpoint was ever taken: every page image exists only in the WAL.
	// Failover must rebuild the whole database from LSN 1 on the new leaf.
	r := newLeafRig(t, 2, 256)
	tr, err := r.eng.CreateTable(r.clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	tx := r.eng.Begin(r.clk)
	for k := int64(0); k < 200; k++ {
		if err := tx.Insert(tr, k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()

	_, eng2, res := r.failover(t, 1, nil)
	if res.CheckpointLSN != 0 {
		t.Fatalf("CheckpointLSN = %d, want 0 (never checkpointed)", res.CheckpointLSN)
	}
	if res.RedoApplied == 0 {
		t.Fatalf("full redo applied nothing: %+v", res)
	}
	clk := simclock.NewAt(r.clk.Now())
	tr2, err := eng2.Table(clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 200; k++ {
		v, err := tr2.Get(clk, k)
		if err != nil || !bytes.Equal(v, val(k)) {
			t.Fatalf("Get(%d) = %q, %v", k, v, err)
		}
	}
	if err := tr2.Validate(clk); err != nil {
		t.Fatal(err)
	}
}

func TestFailoverCheckpointAreaOnOtherLeafBoundsRedo(t *testing.T) {
	// The PR-6 checkpoint record is placed on a THIRD leaf's box, so it
	// survives the pool box's death, is reachable from the replacement
	// leaf, and bounds the redo scan to post-checkpoint work — the tentpole
	// claim that a CXL-durable checkpoint is sufficient from a different
	// leaf.
	r := newLeafRig(t, 3, 256)
	ckptRegion, err := r.host.AllocateAt(r.clk, 2, "db0-ckpt", checkpoint.AreaSize)
	if err != nil {
		t.Fatal(err)
	}
	area, err := checkpoint.NewArea(ckptRegion)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := r.eng.CreateTable(r.clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	// Batch A: committed, flushed to storage, checkpoint published to the
	// area only (the fuzzy-checkpointer deployment: ws.CheckpointLSN stays
	// 0, the area alone knows the checkpoint).
	tx := r.eng.Begin(r.clk)
	for k := int64(0); k < 200; k++ {
		if err := tx.Insert(tr, k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	if err := r.pool.FlushAll(r.clk); err != nil {
		t.Fatal(err)
	}
	published := r.ws.DurableLSN()
	if err := area.Publish(r.clk, published, nil); err != nil {
		t.Fatal(err)
	}
	// Batch B: post-checkpoint committed work — the only records redo needs.
	tx2 := r.eng.Begin(r.clk)
	for k := int64(0); k < 200; k += 4 {
		if err := tx2.Update(tr, k, []byte("post-ckpt-update")); err != nil {
			t.Fatal(err)
		}
	}
	tx2.Commit()
	fullTail := r.ws.DurableLSN() // records 1..fullTail exist, none truncated

	r.pool.Crash()
	r.topo.FailBox(0)
	clk2 := simclock.NewAt(r.clk.Now())
	host2, err := r.topo.AttachHost("h0-f", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The area is reattached from the surviving leaf 2 box — proving the
	// checkpoint record is reachable from a different leaf than the pool.
	ckptRegion2, err := host2.ReattachAt(clk2, 2, "db0-ckpt")
	if err != nil {
		t.Fatal(err)
	}
	area2, err := checkpoint.NewArea(ckptRegion2)
	if err != nil {
		t.Fatal(err)
	}
	region2, err := host2.AllocateOn(clk2, 1, "db0", core.RegionSizeFor(r.nblocks))
	if err != nil {
		t.Fatal(err)
	}
	cache2 := host2.NewCache("db0", 4<<20)
	_, eng2, res, err := Failover(clk2, host2, region2, cache2, r.ws, r.store, area2)
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	checkRedo(t, res)
	if res.CheckpointLSN != published {
		t.Fatalf("CheckpointLSN = %d, want the area-published %d", res.CheckpointLSN, published)
	}
	if res.RedoRecords == 0 {
		t.Fatalf("bounded redo replayed nothing: %+v", res)
	}
	// The scan starts past the checkpoint, so the per-page record count must
	// be bounded by the post-checkpoint tail length — batch A never rescanned.
	if got := uint64(res.RedoRecords); got > fullTail-published {
		t.Fatalf("redo scanned %d records, more than the post-checkpoint tail %d", got, fullTail-published)
	}
	clk := simclock.NewAt(clk2.Now())
	tr2, err := eng2.Table(clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 200; k++ {
		want := val(k)
		if k%4 == 0 {
			want = []byte("post-ckpt-update")
		}
		v, err := tr2.Get(clk, k)
		if err != nil || !bytes.Equal(v, want) {
			t.Fatalf("Get(%d) = %q, want %q (%v)", k, v, want, err)
		}
	}
	if err := tr2.Validate(clk); err != nil {
		t.Fatal(err)
	}
}

func TestFailoverAfterTruncationRedoesFromFloor(t *testing.T) {
	// Repeated checkpoints truncated the log: records below the floor are
	// gone, but their pages were flushed to storage before truncation.
	// Failover must clamp its scan to the floor rather than die on
	// wal.ErrTruncated, and the flushed base images plus the surviving tail
	// must reconstruct everything.
	r := newLeafRig(t, 2, 256)
	tr, err := r.eng.CreateTable(r.clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		tx := r.eng.Begin(r.clk)
		for k := int64(round * 100); k < int64(round*100+100); k++ {
			if err := tx.Insert(tr, k, val(k)); err != nil {
				t.Fatal(err)
			}
		}
		tx.Commit()
		if err := r.eng.Checkpoint(r.clk); err != nil {
			t.Fatal(err)
		}
	}
	if tb := r.ws.TruncatedBefore(); tb <= 1 {
		t.Fatalf("log never truncated: floor %d", tb)
	}
	tx := r.eng.Begin(r.clk)
	tx.Update(tr, 5, []byte("post-checkpoint-commit"))
	tx.Commit()
	tx2 := r.eng.Begin(r.clk)
	tx2.Update(tr, 6, []byte("DOOMED"))
	tx3 := r.eng.Begin(r.clk)
	tx3.Update(tr, 8, val(8))
	tx3.Commit() // group commit flushes tx2's doomed record

	_, eng2, _ := r.failover(t, 1, nil)
	clk := simclock.NewAt(r.clk.Now())
	tr2, err := eng2.Table(clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Validate(clk); err != nil {
		t.Fatal(err)
	}
	v, err := tr2.Get(clk, 5)
	if err != nil || string(v) != "post-checkpoint-commit" {
		t.Fatalf("Get(5) = %q, %v", v, err)
	}
	v, err = tr2.Get(clk, 6)
	if err != nil || !bytes.Equal(v, val(6)) {
		t.Fatalf("Get(6) = %q, %v (uncommitted must be undone)", v, err)
	}
	// Pre-truncation rows come back from their storage base images.
	for k := int64(0); k < 400; k += 37 {
		v, err := tr2.Get(clk, k)
		if err != nil || !bytes.Equal(v, val(k)) {
			t.Fatalf("pre-truncation row %d lost: %q, %v", k, v, err)
		}
	}
}

func TestFailoverScanNeverReadsBelowFloor(t *testing.T) {
	// Directly pin the clamp: with the store checkpoint BELOW the truncation
	// floor (the fuzzy-checkpointer deployment — area died with the box,
	// store checkpoint never advanced), a naive ckpt+1 scan would hit
	// wal.ErrTruncated. Failover must start at the floor instead.
	r := newLeafRig(t, 2, 256)
	tr, err := r.eng.CreateTable(r.clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	tx := r.eng.Begin(r.clk)
	for k := int64(0); k < 100; k++ {
		if err := tx.Insert(tr, k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	// Flush pages, then truncate behind the durable tail WITHOUT recording a
	// store checkpoint — exactly what the area-only checkpointer does.
	if err := r.pool.FlushAll(r.clk); err != nil {
		t.Fatal(err)
	}
	floor := r.ws.DurableLSN()
	r.ws.TruncateBefore(floor)
	if r.ws.CheckpointLSN() >= floor {
		t.Fatalf("store checkpoint %d not below floor %d; test underpowered", r.ws.CheckpointLSN(), floor)
	}
	if err := r.ws.Iterate(1, func(wal.Record) bool { return false }); !errors.Is(err, wal.ErrTruncated) {
		t.Fatalf("Iterate(1) = %v, want ErrTruncated (naive scan would fail)", err)
	}
	tx2 := r.eng.Begin(r.clk)
	tx2.Update(tr, 3, []byte("after-floor"))
	tx2.Commit()

	_, eng2, res := r.failover(t, 1, nil)
	if res.CheckpointLSN != r.ws.CheckpointLSN() {
		t.Fatalf("CheckpointLSN = %d, want store's %d", res.CheckpointLSN, r.ws.CheckpointLSN())
	}
	clk := simclock.NewAt(r.clk.Now())
	tr2, err := eng2.Table(clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	v, err := tr2.Get(clk, 3)
	if err != nil || string(v) != "after-floor" {
		t.Fatalf("Get(3) = %q, %v", v, err)
	}
	for k := int64(0); k < 100; k++ {
		if k == 3 {
			continue
		}
		v, err := tr2.Get(clk, k)
		if err != nil || !bytes.Equal(v, val(k)) {
			t.Fatalf("Get(%d) = %q, %v", k, v, err)
		}
	}
	if err := tr2.Validate(clk); err != nil {
		t.Fatal(err)
	}
}

func TestFailoverUndoCompensation(t *testing.T) {
	// The undo pass runs through the replacement engine on the new leaf:
	// inserts deleted, updates restored, deletes re-inserted.
	r := newLeafRig(t, 2, 128)
	tr, err := r.eng.CreateTable(r.clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	tx := r.eng.Begin(r.clk)
	for k := int64(0); k < 30; k++ {
		tx.Insert(tr, k, val(k))
	}
	tx.Commit()
	if err := r.eng.Checkpoint(r.clk); err != nil {
		t.Fatal(err)
	}
	tx2 := r.eng.Begin(r.clk)
	if err := tx2.Update(tr, 5, []byte("SHOULD-BE-UNDONE")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Delete(tr, 6); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Insert(tr, 1000, []byte("phantom")); err != nil {
		t.Fatal(err)
	}
	tx3 := r.eng.Begin(r.clk)
	tx3.Update(tr, 1, val(1))
	tx3.Commit() // group commit flushes tx2's records

	_, eng2, res := r.failover(t, 1, nil)
	if res.UndoneTxns == 0 || res.UndoOps < 3 {
		t.Fatalf("undo did not run: %+v", res)
	}
	clk := simclock.NewAt(r.clk.Now())
	tr2, err := eng2.Table(clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	v, err := tr2.Get(clk, 5)
	if err != nil || !bytes.Equal(v, val(5)) {
		t.Fatalf("undone update: %q, %v", v, err)
	}
	v, err = tr2.Get(clk, 6)
	if err != nil || !bytes.Equal(v, val(6)) {
		t.Fatalf("undone delete: %q, %v", v, err)
	}
	if _, err := tr2.Get(clk, 1000); !errors.Is(err, btree.ErrKeyNotFound) {
		t.Fatal("undone insert survived")
	}
	if err := tr2.Validate(clk); err != nil {
		t.Fatal(err)
	}
}
