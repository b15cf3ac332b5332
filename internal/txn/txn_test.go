package txn

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"polarcxlmem/internal/btree"
	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/mtr"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/wal"
)

type env struct {
	e     *Engine
	clk   *simclock.Clock
	pool  buffer.Pool
	log   *wal.Log
	ws    *wal.Store
	store *storage.Store
}

func newEnv(t *testing.T) *env {
	t.Helper()
	store := storage.New(storage.Config{})
	pool := buffer.NewDRAMPool(store, 1024, cxl.DRAMProfile(), nil)
	ws := wal.NewStore(0, 0)
	log := wal.Attach(ws)
	clk := simclock.New()
	e, err := Bootstrap(clk, pool, log, store)
	if err != nil {
		t.Fatal(err)
	}
	return &env{e: e, clk: clk, pool: pool, log: log, ws: ws, store: store}
}

func TestCreateAndReopenTable(t *testing.T) {
	ev := newEnv(t)
	tr, err := ev.e.CreateTable(ev.clk, "users")
	if err != nil {
		t.Fatal(err)
	}
	tx := ev.e.Begin(ev.clk)
	if err := tx.Insert(tr, 1, []byte("alice")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// A second engine over the same pool finds the table via the catalog.
	e2, err := Attach(ev.clk, ev.pool, ev.log, ev.store)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := e2.Table(ev.clk, "users")
	if err != nil {
		t.Fatal(err)
	}
	v, err := tr2.Get(ev.clk, 1)
	if err != nil || string(v) != "alice" {
		t.Fatalf("reopened get = %q, %v", v, err)
	}
	if _, err := e2.Table(ev.clk, "ghosts"); err == nil {
		t.Fatal("opened nonexistent table")
	}
	if _, err := ev.e.CreateTable(ev.clk, "users"); err == nil {
		t.Fatal("duplicate table created")
	}
}

func TestCommitForcesLog(t *testing.T) {
	ev := newEnv(t)
	tr, _ := ev.e.CreateTable(ev.clk, "t")
	durableBefore := ev.ws.DurableLSN()
	tx := ev.e.Begin(ev.clk)
	tx.Insert(tr, 5, []byte("five"))
	if ev.ws.DurableLSN() != durableBefore {
		t.Fatal("statement flushed the log before commit")
	}
	tx.Commit()
	if ev.ws.DurableLSN() <= durableBefore {
		t.Fatal("commit did not force the log")
	}
	// Commit marker is durable.
	found := false
	ev.ws.Iterate(1, func(r *wal.Record) bool {
		if r.Kind == wal.KTxnCommit && r.Txn == tx.ID() {
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("commit marker missing")
	}
}

func TestRollbackRestoresState(t *testing.T) {
	ev := newEnv(t)
	tr, _ := ev.e.CreateTable(ev.clk, "t")
	setup := ev.e.Begin(ev.clk)
	setup.Insert(tr, 1, []byte("keep"))
	setup.Insert(tr, 2, []byte("to-update"))
	setup.Insert(tr, 3, []byte("to-delete"))
	setup.Commit()

	tx := ev.e.Begin(ev.clk)
	if err := tx.Insert(tr, 10, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(tr, 2, []byte("changed")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(tr, 3); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	// Everything back to the pre-transaction state.
	if _, err := tr.Get(ev.clk, 10); !errors.Is(err, btree.ErrKeyNotFound) {
		t.Fatal("rolled-back insert persisted")
	}
	v, err := tr.Get(ev.clk, 2)
	if err != nil || string(v) != "to-update" {
		t.Fatalf("rolled-back update: %q, %v", v, err)
	}
	v, err = tr.Get(ev.clk, 3)
	if err != nil || string(v) != "to-delete" {
		t.Fatalf("rolled-back delete: %q, %v", v, err)
	}
	if err := tr.Validate(ev.clk); err != nil {
		t.Fatal(err)
	}
}

func TestTxnFinishedGuards(t *testing.T) {
	ev := newEnv(t)
	tr, _ := ev.e.CreateTable(ev.clk, "t")
	tx := ev.e.Begin(ev.clk)
	tx.Commit()
	if err := tx.Insert(tr, 1, []byte("x")); err == nil {
		t.Fatal("insert after commit accepted")
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("double commit accepted")
	}
	if err := tx.Rollback(); err == nil {
		t.Fatal("rollback after commit accepted")
	}
	if _, err := tx.Get(tr, 1); err == nil {
		t.Fatal("get after commit accepted")
	}
	if _, err := tx.Scan(tr, 0, 1); err == nil {
		t.Fatal("scan after commit accepted")
	}
}

func TestCheckpointFlushesAndRecordsLSN(t *testing.T) {
	ev := newEnv(t)
	tr, _ := ev.e.CreateTable(ev.clk, "t")
	tx := ev.e.Begin(ev.clk)
	for k := int64(0); k < 100; k++ {
		tx.Insert(tr, k, []byte(fmt.Sprintf("v%d", k)))
	}
	tx.Commit()
	if err := ev.e.Checkpoint(ev.clk); err != nil {
		t.Fatal(err)
	}
	if ev.ws.CheckpointLSN() == 0 {
		t.Fatal("checkpoint LSN not recorded")
	}
	if ev.ws.CheckpointLSN() > ev.ws.DurableLSN() {
		t.Fatal("checkpoint beyond durable tail")
	}
	// All table pages must be durable now: a fresh DRAM pool over the same
	// storage can read everything without the log.
	pool2 := buffer.NewDRAMPool(ev.store, 1024, cxl.DRAMProfile(), nil)
	e2, err := Attach(ev.clk, pool2, wal.Attach(ev.ws), ev.store)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := e2.Table(ev.clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 100; k++ {
		v, err := tr2.Get(ev.clk, k)
		if err != nil || !bytes.Equal(v, []byte(fmt.Sprintf("v%d", k))) {
			t.Fatalf("post-checkpoint get(%d) = %q, %v", k, v, err)
		}
	}
}

func TestWriteAheadRuleOnEviction(t *testing.T) {
	// A tiny pool forces dirty evictions mid-transaction; the flush barrier
	// must make the log durable up to the page LSN before the page image
	// lands on storage.
	store := storage.New(storage.Config{})
	pool := buffer.NewDRAMPool(store, 6, cxl.DRAMProfile(), nil)
	ws := wal.NewStore(0, 0)
	log := wal.Attach(ws)
	clk := simclock.New()
	e, err := Bootstrap(clk, pool, log, store)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.CreateTable(clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin(clk)
	val := make([]byte, 200)
	for k := int64(0); k < 800; k++ { // spills way past 6 frames
		if err := tx.Insert(tr, k, val); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	// Pages were evicted dirty; for every durable page image, its LSN must
	// be covered by the durable log.
	durable := ws.DurableLSN()
	if durable == 0 {
		t.Fatal("no log flushed despite dirty evictions")
	}
	if pool.Stats().Evictions == 0 {
		t.Fatal("test did not force evictions")
	}
	tx.Commit()
}

// TestAttachBumpsIDsLikeALogScan: Attach moves the unit-id generator
// exactly where a scan of the readable log for its largest unit id would,
// after checkpoints truncated the log and with a transaction left open on
// the durable tail.
func TestAttachBumpsIDsLikeALogScan(t *testing.T) {
	ev := newEnv(t)
	tr, err := ev.e.CreateTable(ev.clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for k := int64(0); k < 10; k++ {
			tx := ev.e.Begin(ev.clk)
			if err := tx.Insert(tr, int64(round)*100+k, []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if err := ev.e.Checkpoint(ev.clk); err != nil {
			t.Fatal(err)
		}
	}
	open := ev.e.Begin(ev.clk)
	if err := open.Insert(tr, 999, []byte("open")); err != nil {
		t.Fatal(err)
	}
	ev.log.Flush(ev.clk)
	var scanned uint64
	if err := ev.ws.Iterate(ev.ws.TruncatedBefore(), func(r *wal.Record) bool {
		scanned = max(scanned, r.Txn)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if ev.ws.TruncatedBefore() == 1 || scanned != open.ID() {
		t.Fatalf("truncation point %d, largest surviving unit %d, open unit %d", ev.ws.TruncatedBefore(), scanned, open.ID())
	}
	e2, err := Attach(ev.clk, ev.pool, wal.Attach(ev.ws), ev.store)
	if err != nil {
		t.Fatal(err)
	}
	var ref mtr.IDGen
	ref.Bump(scanned)
	if got, want := e2.IDs().Next(), ref.Next(); got != want {
		t.Fatalf("first unit id after Attach = %d, a log scan gives %d", got, want)
	}
}
