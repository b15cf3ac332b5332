package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"polarcxlmem/internal/btree"
	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/core"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simcpu"
	"polarcxlmem/internal/simmem"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/wal"
)

func val(k int64) []byte { return []byte(fmt.Sprintf("committed-%06d", k)) }

// checkRedo asserts the redo accounting invariant: RedoApplied counts the
// subset of RedoRecords actually replayed onto an image, so it can never
// exceed the scan count or go negative.
func checkRedo(t *testing.T, res *Result) {
	t.Helper()
	if res.RedoApplied < 0 || res.RedoApplied > res.RedoRecords {
		t.Fatalf("RedoApplied = %d outside [0, RedoRecords=%d]", res.RedoApplied, res.RedoRecords)
	}
}

// --- CXL rig ---------------------------------------------------------------

type cxlRig struct {
	topo   *cxl.Topology
	host   *cxl.HostPort
	region *simmem.Region
	cache  *simcpu.Cache
	store  *storage.Store
	ws     *wal.Store
	pool   *core.CXLPool
	eng    *txn.Engine
	clk    *simclock.Clock
}

func newCXLRig(t *testing.T, nblocks int64) *cxlRig {
	t.Helper()
	topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: core.RegionSizeFor(nblocks) + 4096})
	host, err := topo.AttachHost("h0", 0)
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	region, err := host.Allocate(clk, "db0", core.RegionSizeFor(nblocks))
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
	return &cxlRig{topo: topo, host: host, region: region, cache: cache, store: store, ws: ws, pool: pool, eng: eng, clk: clk}
}

// crashAndRecover simulates the host failure and runs PolarRecv.
func (r *cxlRig) crashAndRecover(t *testing.T) (*core.CXLPool, *txn.Engine, *Result) {
	t.Helper()
	r.pool.Crash()
	// Virtual time is global: the restarted instance continues the timeline
	// from the crash instant (shared devices keep their queue state).
	clk2 := simclock.NewAt(r.clk.Now())
	host2, err := r.topo.AttachHost("h0", 0)
	if err != nil {
		t.Fatal(err)
	}
	region2, err := host2.Reattach(clk2, "db0")
	if err != nil {
		t.Fatal(err)
	}
	cache2 := host2.NewCache("db0", 4<<20)
	pool2, eng2, res, err := PolarRecv(clk2, host2, region2, cache2, r.ws, r.store, nil)
	if err != nil {
		t.Fatalf("PolarRecv: %v", err)
	}
	checkRedo(t, res)
	return pool2, eng2, res
}

func TestPolarRecvTrustsSurvivingPages(t *testing.T) {
	r := newCXLRig(t, 64)
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
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := r.eng.Checkpoint(r.clk); err != nil {
		t.Fatal(err)
	}
	resident := r.pool.Resident()

	_, eng2, res := r.crashAndRecover(t)
	if res.PagesRebuilt != 0 {
		t.Fatalf("clean crash rebuilt %d pages", res.PagesRebuilt)
	}
	if res.PagesTrusted != resident {
		t.Fatalf("trusted %d pages, want %d", res.PagesTrusted, resident)
	}
	if res.WarmPages != resident {
		t.Fatalf("warm pages %d, want %d (instant warm restart)", res.WarmPages, resident)
	}
	tr2, err := eng2.Table(simclock.New(), "t")
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	for k := int64(0); k < 200; k++ {
		v, err := tr2.Get(clk, k)
		if err != nil || !bytes.Equal(v, val(k)) {
			t.Fatalf("Get(%d) after recovery = %q, %v", k, v, err)
		}
	}
	if err := tr2.Validate(clk); err != nil {
		t.Fatal(err)
	}
}

func TestPolarRecvDiscardsTooNewPages(t *testing.T) {
	r := newCXLRig(t, 64)
	tr, _ := r.eng.CreateTable(r.clk, "t")
	tx := r.eng.Begin(r.clk)
	for k := int64(0); k < 50; k++ {
		tx.Insert(tr, k, val(k))
	}
	tx.Commit()
	r.eng.Checkpoint(r.clk)

	// An uncommitted transaction whose statements complete (pages published
	// to CXL with fresh LSNs) but whose redo never reaches storage: the
	// "'too new' pages without associated logs" hazard (§3.2 challenge 4).
	tx2 := r.eng.Begin(r.clk)
	if err := tx2.Update(tr, 10, []byte("UNCOMMITTED-----")); err != nil {
		t.Fatal(err)
	}
	// No commit, no flush. Crash.
	_, eng2, res := r.crashAndRecover(t)
	if res.PagesRebuilt == 0 {
		t.Fatal("too-new page was not rebuilt")
	}
	clk := simclock.New()
	tr2, err := eng2.Table(clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	v, err := tr2.Get(clk, 10)
	if err != nil || !bytes.Equal(v, val(10)) {
		t.Fatalf("key 10 after recovery = %q, %v (must be the committed value)", v, err)
	}
	if err := tr2.Validate(clk); err != nil {
		t.Fatal(err)
	}
}

func TestPolarRecvRebuildsWriteLockedPage(t *testing.T) {
	r := newCXLRig(t, 64)
	tr, _ := r.eng.CreateTable(r.clk, "t")
	tx := r.eng.Begin(r.clk)
	for k := int64(0); k < 50; k++ {
		tx.Insert(tr, k, val(k))
	}
	tx.Commit()
	r.eng.Checkpoint(r.clk)

	// Crash in the middle of a page update: write-latch a page directly and
	// scribble on it without releasing.
	f, err := r.pool.Get(r.clk, txn.CatalogMetaID+2, buffer.Write) // a data page
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt(page16Half(), []byte("torn write")); err != nil {
		t.Fatal(err)
	}
	_, eng2, res := r.crashAndRecover(t)
	if res.PagesRebuilt == 0 {
		t.Fatal("locked page was not rebuilt")
	}
	clk := simclock.New()
	tr2, err := eng2.Table(clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 50; k++ {
		v, err := tr2.Get(clk, k)
		if err != nil || !bytes.Equal(v, val(k)) {
			t.Fatalf("Get(%d) = %q, %v", k, v, err)
		}
	}
	if err := tr2.Validate(clk); err != nil {
		t.Fatal(err)
	}
}

func page16Half() int { return 8000 }

func TestPolarRecvCrashMidSMO(t *testing.T) {
	r := newCXLRig(t, 256)
	tr, _ := r.eng.CreateTable(r.clk, "t")
	tx := r.eng.Begin(r.clk)
	for k := int64(0); k < 500; k++ {
		if err := tx.Insert(tr, k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	r.eng.Checkpoint(r.clk)

	boom := errors.New("crash during SMO")
	tr.SetHook(func(step string) error {
		if step == "smo-split-before-parent-link" {
			return boom
		}
		return nil
	})
	// Insert until an SMO fires and aborts mid-way, leaving locked pages
	// (including a freshly allocated right sibling with no durable history).
	var err error
	inserted := []int64{}
	tx2 := r.eng.Begin(r.clk)
	for k := int64(100000); k < 110000; k++ {
		if err = tx2.Insert(tr, k, val(k)); err != nil {
			break
		}
		inserted = append(inserted, k)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("SMO hook never fired: %v", err)
	}

	_, eng2, res := r.crashAndRecover(t)
	if res.PagesRebuilt == 0 {
		t.Fatal("mid-SMO crash rebuilt nothing")
	}
	if res.PagesDropped == 0 {
		t.Fatal("the SMO's freshly split page (no durable history) was not dropped")
	}
	clk := simclock.New()
	tr2, err := eng2.Table(clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Validate(clk); err != nil {
		t.Fatalf("tree inconsistent after mid-SMO recovery: %v", err)
	}
	// All originally committed keys present.
	for k := int64(0); k < 500; k += 7 {
		v, err := tr2.Get(clk, k)
		if err != nil || !bytes.Equal(v, val(k)) {
			t.Fatalf("Get(%d) = %q, %v", k, v, err)
		}
	}
	// The uncommitted transaction's inserts must be gone (either never
	// durable or undone).
	for _, k := range inserted {
		if _, err := tr2.Get(clk, k); !errors.Is(err, btree.ErrKeyNotFound) {
			t.Fatalf("uncommitted insert %d survived recovery (err=%v)", k, err)
		}
	}
}

func TestPolarRecvUndoesDurableUncommitted(t *testing.T) {
	r := newCXLRig(t, 64)
	tr, _ := r.eng.CreateTable(r.clk, "t")
	tx := r.eng.Begin(r.clk)
	for k := int64(0); k < 20; k++ {
		tx.Insert(tr, k, val(k))
	}
	tx.Commit()
	r.eng.Checkpoint(r.clk)

	// Uncommitted txn whose records become durable because a LATER commit
	// group-flushes the shared log buffer.
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
	tx3.Commit() // group commit flushes tx2's records too

	_, eng2, res := r.crashAndRecover(t)
	if res.UndoneTxns == 0 || res.UndoOps < 3 {
		t.Fatalf("undo did not run: %+v", res)
	}
	clk := simclock.New()
	tr2, _ := eng2.Table(clk, "t")
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

// --- vanilla / RDMA rigs ----------------------------------------------------

// runWorkload executes a fixed committed workload plus a crash-pending tail
// against any engine; returns the table.
func runWorkload(t *testing.T, clk *simclock.Clock, e *txn.Engine) {
	t.Helper()
	tr, err := e.CreateTable(clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin(clk)
	for k := int64(0); k < 300; k++ {
		if err := tx.Insert(tr, k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	if err := e.Checkpoint(clk); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint committed work: this is what redo must replay.
	tx2 := e.Begin(clk)
	for k := int64(0); k < 300; k += 3 {
		if err := tx2.Update(tr, k, []byte(fmt.Sprintf("updated--%06d", k))); err != nil {
			t.Fatal(err)
		}
	}
	tx2.Commit()
}

func verifyRecovered(t *testing.T, clk *simclock.Clock, e *txn.Engine) {
	t.Helper()
	tr, err := e.Table(clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 300; k++ {
		want := val(k)
		if k%3 == 0 {
			want = []byte(fmt.Sprintf("updated--%06d", k))
		}
		v, err := tr.Get(clk, k)
		if err != nil || !bytes.Equal(v, want) {
			t.Fatalf("Get(%d) = %q, want %q (%v)", k, v, want, err)
		}
	}
	if err := tr.Validate(clk); err != nil {
		t.Fatal(err)
	}
}

func TestVanillaRecovery(t *testing.T) {
	store := storage.New(storage.Config{})
	ws := wal.NewStore(0, 0)
	clk := simclock.New()
	pool := buffer.NewDRAMPool(store, 1024, cxl.DRAMProfile())
	e, err := txn.Bootstrap(clk, pool, wal.Attach(ws), store)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, clk, e)
	// Crash: pool and log handle dropped.
	clk2 := simclock.NewAt(clk.Now())
	pool2 := buffer.NewDRAMPool(store, 1024, cxl.DRAMProfile())
	e2, res, err := Recover(clk2, "vanilla", pool2, ws, store)
	if err != nil {
		t.Fatal(err)
	}
	if res.RedoRecords == 0 || res.PagesRebuilt == 0 {
		t.Fatalf("vanilla recovery did nothing: %+v", res)
	}
	checkRedo(t, res)
	if res.RedoApplied == 0 {
		t.Fatalf("vanilla recovery replayed into a cold pool yet applied nothing: %+v", res)
	}
	verifyRecovered(t, clk2, e2)
}

func TestRDMARecoveryUsesSurvivingRemote(t *testing.T) {
	store := storage.New(storage.Config{})
	ws := wal.NewStore(0, 0)
	clk := simclock.New()
	remote := buffer.NewRemoteMemory("rm", 2048)
	nic := rdma.NewNIC("h0", 0, 0)
	pool := buffer.NewTieredPool(store, remote, nic, 64, cxl.DRAMProfile())
	e, err := txn.Bootstrap(clk, pool, wal.Attach(ws), store)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, clk, e)
	if remote.PageCount() == 0 {
		t.Fatal("workload never reached the remote tier; test underpowered")
	}
	// Crash the database host; the memory node (remote) survives.
	clk2 := simclock.NewAt(clk.Now())
	nic2 := rdma.NewNIC("h0-restart", 0, 0)
	pool2 := buffer.NewTieredPool(store, remote, nic2, 64, cxl.DRAMProfile())
	e2, res, err := Recover(clk2, "rdma", pool2, ws, store)
	if err != nil {
		t.Fatal(err)
	}
	if pool2.Stats().RemoteReads == 0 {
		t.Fatal("RDMA recovery never read from the surviving remote tier")
	}
	checkRedo(t, res)
	verifyRecovered(t, clk2, e2)
}

func TestRecoverySpeedShape(t *testing.T) {
	// The paper's headline (§4.3): PolarRecv recovers orders of magnitude
	// faster than the RDMA-based scheme, which beats vanilla. Compare
	// virtual recovery times for the same logical workload.
	var vanillaNs, rdmaNs, recvNs int64
	{ // vanilla
		store := storage.New(storage.Config{})
		ws := wal.NewStore(0, 0)
		clk := simclock.New()
		pool := buffer.NewDRAMPool(store, 1024, cxl.DRAMProfile())
		e, _ := txn.Bootstrap(clk, pool, wal.Attach(ws), store)
		runWorkload(t, clk, e)
		clk2 := simclock.NewAt(clk.Now())
		_, res, err := Recover(clk2, "vanilla", buffer.NewDRAMPool(store, 1024, cxl.DRAMProfile()), ws, store)
		if err != nil {
			t.Fatal(err)
		}
		vanillaNs = res.Nanos()
	}
	{ // rdma
		store := storage.New(storage.Config{})
		ws := wal.NewStore(0, 0)
		clk := simclock.New()
		remote := buffer.NewRemoteMemory("rm", 2048)
		pool := buffer.NewTieredPool(store, remote, rdma.NewNIC("h", 0, 0), 64, cxl.DRAMProfile())
		e, _ := txn.Bootstrap(clk, pool, wal.Attach(ws), store)
		runWorkload(t, clk, e)
		clk2 := simclock.NewAt(clk.Now())
		pool2 := buffer.NewTieredPool(store, remote, rdma.NewNIC("h2", 0, 0), 64, cxl.DRAMProfile())
		_, res, err := Recover(clk2, "rdma", pool2, ws, store)
		if err != nil {
			t.Fatal(err)
		}
		rdmaNs = res.Nanos()
	}
	{ // polarrecv
		r := newCXLRig(t, 1024)
		runWorkload(t, r.clk, r.eng)
		_, _, res := r.crashAndRecover(t)
		recvNs = res.Nanos()
	}
	if !(recvNs < rdmaNs && rdmaNs < vanillaNs) {
		t.Fatalf("recovery time order violated: polarrecv=%d rdma=%d vanilla=%d ns", recvNs, rdmaNs, vanillaNs)
	}
	if vanillaNs < 5*recvNs {
		t.Fatalf("PolarRecv speedup too small: vanilla=%dns vs recv=%dns", vanillaNs, recvNs)
	}
}

func TestPolarRecvCrashMidMergeSMO(t *testing.T) {
	// The second SMO species (§3.2 "page splitting or merging"): crash in
	// the middle of a leaf merge; PolarRecv must restore a consistent tree
	// with every committed record intact.
	r := newCXLRig(t, 512)
	tr, _ := r.eng.CreateTable(r.clk, "t")
	tx := r.eng.Begin(r.clk)
	bigval := func(k int64) []byte { return []byte(fmt.Sprintf("%08d-%0190d", k, k)) }
	for k := int64(0); k < 140; k++ {
		if err := tx.Insert(tr, k, bigval(k)); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	r.eng.Checkpoint(r.clk)

	boom := errors.New("crash mid-merge")
	tr.SetHook(func(step string) error {
		if step == "smo-merge-before-unlink" {
			return boom
		}
		return nil
	})
	// Committed deletes until a merge fires and aborts mid-way.
	var err error
	deleted := map[int64]bool{}
	for k := int64(139); k >= 0; k-- {
		tx := r.eng.Begin(r.clk)
		if err = tx.Delete(tr, k); err != nil {
			break
		}
		if err = tx.Commit(); err != nil {
			t.Fatal(err)
		}
		deleted[k] = true
	}
	if !errors.Is(err, boom) {
		t.Fatalf("merge hook never fired: %v", err)
	}
	// The delete whose merge crashed: its statement may or may not be
	// durable; the transaction never committed, so it must be absent.
	_, eng2, res := r.crashAndRecover(t)
	if res.PagesRebuilt == 0 {
		t.Fatal("mid-merge crash rebuilt nothing")
	}
	clk := simclock.New()
	tr2, err := eng2.Table(clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Validate(clk); err != nil {
		t.Fatalf("tree inconsistent after mid-merge recovery: %v", err)
	}
	for k := int64(0); k < 140; k++ {
		v, err := tr2.Get(clk, k)
		if deleted[k] {
			if !errors.Is(err, btree.ErrKeyNotFound) {
				t.Fatalf("deleted key %d resurrected: %q, %v", k, v, err)
			}
		} else if err != nil || !bytes.Equal(v, bigval(k)) {
			t.Fatalf("key %d after recovery: %q, %v", k, v, err)
		}
	}
}

func TestRecoveryAfterLogTruncation(t *testing.T) {
	// Repeated checkpoints truncate the log below the previous checkpoint;
	// recovery must still work from the surviving tail.
	r := newCXLRig(t, 256)
	tr, _ := r.eng.CreateTable(r.clk, "t")
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
	// The log must have been truncated: records from round 0 are gone, and
	// scanning below the truncation point is a typed error now.
	if tb := r.ws.TruncatedBefore(); tb <= 1 {
		t.Fatalf("log never truncated: truncation point %d", tb)
	}
	if err := r.ws.Iterate(1, func(wal.Record) bool { return false }); !errors.Is(err, wal.ErrTruncated) {
		t.Fatalf("Iterate(1) after truncation: %v, want ErrTruncated", err)
	}
	// Post-checkpoint committed work, uncommitted tail, crash, recover.
	tx := r.eng.Begin(r.clk)
	tx.Update(tr, 5, []byte("post-checkpoint-commit"))
	tx.Commit()
	tx2 := r.eng.Begin(r.clk)
	tx2.Update(tr, 6, []byte("DOOMED"))
	_, eng2, _ := r.crashAndRecover(t)
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
		t.Fatalf("Get(6) = %q, %v (uncommitted must be gone)", v, err)
	}
	for k := int64(0); k < 400; k += 37 {
		if _, err := tr2.Get(clk, k); err != nil {
			t.Fatalf("pre-truncation row %d lost: %v", k, err)
		}
	}
}
