package mtr

import (
	"errors"
	"testing"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/wal"
)

type env struct {
	pool  buffer.Pool
	log   *wal.Log
	store *wal.Store
	clk   *simclock.Clock
}

func newEnv(t *testing.T) *env {
	t.Helper()
	ws := wal.NewStore(0, 0)
	return &env{
		pool:  buffer.NewDRAMPool(storage.New(storage.Config{}), 16, cxl.DRAMProfile(), nil),
		log:   wal.Attach(ws),
		store: ws,
		clk:   simclock.New(),
	}
}

func TestMTRLogsAndStampsLSN(t *testing.T) {
	e := newEnv(t)
	m := Begin(e.clk, e.pool, e.log, 1)
	f, err := m.New()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InitPage(f, page.TypeLeaf, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(f, 10, []byte("ten")); err != nil {
		t.Fatal(err)
	}
	var lsn uint64
	err = buffer.Visit(f, func(pg page.Page) (err error) {
		lsn, err = pg.LSN()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 2 { // init = 1, insert = 2
		t.Fatalf("page lsn = %d", lsn)
	}
	if err := m.Commit(false); err != nil {
		t.Fatal(err)
	}
	// Non-durable commit: nothing flushed, no MTR-commit marker.
	if e.store.DurableLSN() != 0 {
		t.Fatal("non-durable commit flushed")
	}
	e.log.Flush(e.clk)
	var kinds []wal.Kind
	e.store.Iterate(1, func(r wal.Record) bool {
		kinds = append(kinds, r.Kind)
		return true
	})
	if len(kinds) != 2 || kinds[0] != wal.KPageInit || kinds[1] != wal.KInsert {
		t.Fatalf("log kinds %v", kinds)
	}
}

func TestDurableCommitAppendsMarkerAndFlushes(t *testing.T) {
	e := newEnv(t)
	m := Begin(e.clk, e.pool, e.log, 7)
	f, _ := m.New()
	m.InitPage(f, page.TypeLeaf, 0)
	if err := m.Commit(true); err != nil {
		t.Fatal(err)
	}
	if e.store.DurableLSN() == 0 {
		t.Fatal("durable commit did not flush")
	}
	found := false
	e.store.Iterate(1, func(r wal.Record) bool {
		if r.Kind == wal.KMTRCommit && r.Txn == 7 {
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("MTR commit marker missing")
	}
	if err := m.Commit(true); err == nil {
		t.Fatal("double commit accepted")
	}
	if _, err := m.Get(1, buffer.Read); err == nil {
		t.Fatal("get after commit accepted")
	}
	if _, err := m.New(); err == nil {
		t.Fatal("new after commit accepted")
	}
}

func TestGetIsHeldUntilCommit(t *testing.T) {
	e := newEnv(t)
	m := Begin(e.clk, e.pool, e.log, 1)
	f, _ := m.New()
	m.InitPage(f, page.TypeLeaf, 0)
	id := f.ID()
	// Re-get returns the same held frame.
	g, err := m.Get(id, buffer.Write)
	if err != nil {
		t.Fatal(err)
	}
	if g != f {
		t.Fatal("re-get returned a different frame")
	}
	if len(m.frames) != 1 {
		t.Fatalf("held = %d", len(m.frames))
	}
	m.Commit(false)
	if len(m.frames) != 0 {
		t.Fatal("commit did not release")
	}
}

func TestDMLRecordsCarryTag(t *testing.T) {
	e := newEnv(t)
	m := Begin(e.clk, e.pool, e.log, 1)
	m.SetTag(42)
	f, _ := m.New()
	m.InitPage(f, page.TypeLeaf, 0)
	m.Insert(f, 1, []byte("v"))
	m.Update(f, 1, []byte("w"))
	m.Delete(f, 1)
	m.Commit(false)
	e.log.Flush(e.clk)
	e.store.Iterate(1, func(r wal.Record) bool {
		switch r.Kind {
		case wal.KInsert, wal.KUpdate, wal.KDelete:
			if r.Ref != 42 {
				t.Fatalf("%v record has tag %d", r.Kind, r.Ref)
			}
		case wal.KPageInit:
			if r.Ref == 42 {
				t.Fatal("structure record was tagged")
			}
		}
		return true
	})
}

func TestApplyRedoRoundTrip(t *testing.T) {
	e := newEnv(t)
	m := Begin(e.clk, e.pool, e.log, 1)
	f, _ := m.New()
	m.InitPage(f, page.TypeLeaf, 0)
	m.Insert(f, 1, []byte("one"))
	m.Insert(f, 2, []byte("two"))
	m.Update(f, 1, []byte("ONE"))
	m.Delete(f, 2)
	id := f.ID()
	m.Commit(false)
	e.log.Flush(e.clk)

	// Replay everything onto a blank image: must reproduce the final page.
	pg := page.Image(make([]byte, page.Size))
	e.store.Iterate(1, func(r wal.Record) bool {
		if r.Page == id {
			if err := Apply(pg, r); err != nil {
				t.Fatalf("apply %v: %v", r.Kind, err)
			}
		}
		return true
	})
	v, err := pg.Find(1)
	if err != nil || string(v) != "ONE" {
		t.Fatalf("replayed find(1) = %q, %v", v, err)
	}
	if _, err := pg.Find(2); !errors.Is(err, page.ErrNotFound) {
		t.Fatal("deleted key resurrected by replay")
	}
	// Replaying again is a no-op (LSN test).
	lsnBefore, _ := pg.LSN()
	e.store.Iterate(1, func(r wal.Record) bool {
		if r.Page == id {
			Apply(pg, r)
		}
		return true
	})
	lsnAfter, _ := pg.LSN()
	if lsnBefore != lsnAfter {
		t.Fatal("idempotent replay changed the page")
	}
}

func TestApplyControlRecordsAreNoOps(t *testing.T) {
	pg := page.Image(make([]byte, page.Size))
	pg.Init(1, page.TypeLeaf, 0)
	for _, k := range []wal.Kind{wal.KTxnCommit, wal.KMTRCommit, wal.KCheckpoint} {
		if err := Apply(pg, wal.Record{LSN: 99, Kind: k}); err != nil {
			t.Fatalf("apply %v: %v", k, err)
		}
	}
	lsn, _ := pg.LSN()
	if lsn != 0 {
		t.Fatal("control record stamped the page")
	}
	if err := Apply(pg, wal.Record{LSN: 1, Kind: wal.Kind(99)}); err == nil {
		t.Fatal("unknown kind applied")
	}
}

func TestIDGen(t *testing.T) {
	var g IDGen
	if g.Next() != 1 || g.Next() != 2 {
		t.Fatal("idgen sequence wrong")
	}
	g.Bump(100)
	if got := g.Next(); got != 101 {
		t.Fatalf("post-bump next = %d", got)
	}
	g.Bump(5) // must not regress
	if got := g.Next(); got != 102 {
		t.Fatalf("regressed: %d", got)
	}
}

func TestAdoptAndAccessors(t *testing.T) {
	e := newEnv(t)
	m := Begin(e.clk, e.pool, e.log, 9)
	if m.ID() != 9 {
		t.Fatal("id accessor")
	}
	if m.Clock() != e.clk {
		t.Fatal("clock accessor")
	}
	f, err := e.pool.Get(e.clk, func() uint64 {
		// materialize a page to adopt
		m2 := Begin(e.clk, e.pool, e.log, 8)
		g, _ := m2.New()
		m2.InitPage(g, page.TypeLeaf, 0)
		id := g.ID()
		m2.Commit(false)
		return id
	}(), buffer.Write)
	if err != nil {
		t.Fatal(err)
	}
	m.Adopt(f)
	m.Adopt(f) // idempotent
	if len(m.frames) != 1 {
		t.Fatalf("held = %d", len(m.frames))
	}
	// Get of the adopted page returns the held frame, not a fresh latch.
	g, err := m.Get(f.ID(), buffer.Write)
	if err != nil || g != f {
		t.Fatalf("get of adopted frame: %v, same=%v", err, g == f)
	}
	if err := m.Commit(false); err != nil {
		t.Fatal(err)
	}
}

func TestStructureOpsLogged(t *testing.T) {
	e := newEnv(t)
	m := Begin(e.clk, e.pool, e.log, 1)
	f, _ := m.New()
	m.InitPage(f, page.TypeLeaf, 0)
	if err := m.SetRightSibling(f, 77); err != nil {
		t.Fatal(err)
	}
	if err := m.SetAux(f, 88); err != nil {
		t.Fatal(err)
	}
	m.Commit(true)
	var sib, aux bool
	e.store.Iterate(1, func(r wal.Record) bool {
		switch r.Kind {
		case wal.KSetRightSib:
			sib = r.Ref == 77
		case wal.KSetAux:
			aux = r.Ref == 88
		}
		return true
	})
	if !sib || !aux {
		t.Fatal("structure pointer records missing or wrong")
	}
	// And they replay.
	pg := page.Image(make([]byte, page.Size))
	e.store.Iterate(1, func(r wal.Record) bool {
		if r.Page == f.ID() {
			if err := Apply(pg, r); err != nil {
				t.Fatalf("apply %v: %v", r.Kind, err)
			}
		}
		return true
	})
	if rs, _ := pg.RightSibling(); rs != 77 {
		t.Fatalf("replayed sibling = %d", rs)
	}
	if ax, _ := pg.Aux(); ax != 88 {
		t.Fatalf("replayed aux = %d", ax)
	}
}

func TestMTRFailedOpsDoNotLog(t *testing.T) {
	e := newEnv(t)
	m := Begin(e.clk, e.pool, e.log, 1)
	f, _ := m.New()
	m.InitPage(f, page.TypeLeaf, 0)
	m.Insert(f, 1, []byte("v"))
	next := e.log.NextLSN()
	// Failing operations must not append records.
	if err := m.Insert(f, 1, []byte("dup")); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if err := m.Update(f, 404, []byte("x")); err == nil {
		t.Fatal("update of missing key accepted")
	}
	if err := m.Delete(f, 404); err == nil {
		t.Fatal("delete of missing key accepted")
	}
	if e.log.NextLSN() != next {
		t.Fatal("failed operations appended redo records")
	}
	m.Commit(false)
}

func TestApplySkipsOldRecords(t *testing.T) {
	pg := page.Image(make([]byte, page.Size))
	pg.Init(5, page.TypeLeaf, 0)
	pg.Insert(1, []byte("current"))
	pg.SetLSN(100)
	// A record older than the page LSN must be skipped.
	rec := wal.Record{LSN: 50, Page: 5, Kind: wal.KUpdate, Key: 1, Value: []byte("stale!!")}
	if err := Apply(pg, rec); err != nil {
		t.Fatal(err)
	}
	v, _ := pg.Find(1)
	if string(v) != "current" {
		t.Fatalf("old record applied: %q", v)
	}
	// An init older than the page LSN must also be skipped.
	if err := Apply(pg, wal.Record{LSN: 60, Page: 5, Kind: wal.KPageInit, PType: page.TypeInternal}); err != nil {
		t.Fatal(err)
	}
	if typ, _ := pg.Type(); typ != page.TypeLeaf {
		t.Fatal("old init re-formatted the page")
	}
}
