package dataplane

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"polarcxlmem/internal/btree"
	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/wal"
)

// rig is a minimal engine with one preloaded table.
type rig struct {
	eng *txn.Engine
	tr  *btree.Tree
	clk *simclock.Clock
}

func newRig(t *testing.T, rows int64) *rig {
	t.Helper()
	store := storage.New(storage.Config{})
	pool := buffer.NewDRAMPool(store, 4096, cxl.DRAMProfile(), nil)
	log := wal.Attach(wal.NewStore(0, 0))
	clk := simclock.New()
	eng, err := txn.Bootstrap(clk, pool, log, store)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eng.CreateTable(clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	tx := eng.Begin(clk)
	for id := int64(1); id <= rows; id++ {
		if err := tx.Insert(tr, id, []byte(fmt.Sprintf("row-%d", id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(clk); err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, tr: tr, clk: clk}
}

// armedRegistry returns a registry with the default checkers attached and a
// cleanup that fails the test on any violation.
func armedRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.New(obs.Options{})
	for _, c := range obs.DefaultCheckers() {
		reg.AddChecker(c)
	}
	t.Cleanup(func() {
		for _, v := range reg.Finish() {
			t.Errorf("checker violation: %s: %s", v.Checker, v.Detail)
		}
	})
	return reg
}

func getOp(r *rig, id int64) func(*txn.Txn) error {
	return func(tx *txn.Txn) error {
		_, err := tx.Get(r.tr, id)
		return err
	}
}

func TestBatchedStepExecution(t *testing.T) {
	r := newRig(t, 100)
	reg := armedRegistry(t)
	router := New(r.eng, Config{Workers: 2, BatchSize: 4, Registry: reg})

	var mu sync.Mutex
	done := 0
	const n = 22
	for i := 0; i < n; i++ {
		err := router.Submit(Request{
			Session: i,
			Arrival: int64(i) * 1_000,
			Op:      getOp(r, int64(1+i%100)),
			Done: func(err error) {
				if err != nil {
					t.Errorf("request failed: %v", err)
				}
				mu.Lock()
				done++
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	router.Drain()
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	st := router.Stats()
	if st.Admitted != n || st.Requests != n || st.Rejected != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// 2 shards x 11 requests each, batches of 4 -> 3 batches per shard.
	if st.Batches != 6 {
		t.Fatalf("batches = %d, want 6", st.Batches)
	}
	if st.OverheadNanos <= 0 {
		t.Fatalf("overhead = %d, want > 0", st.OverheadNanos)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["dataplane.requests"]; got != n {
		t.Fatalf("dataplane.requests = %d, want %d", got, n)
	}
	if got := snap.Gauges["dataplane.queue_depth"]; got != 0 {
		t.Fatalf("queue_depth gauge = %d, want 0 after drain", got)
	}
	if got := snap.Histograms["dataplane.batch_size"].Max; got != 4 {
		t.Fatalf("max batch size = %d, want 4", got)
	}
}

// TestStepDeterminism: same submissions, same config -> identical stats and
// identical execution order, run to run.
func TestStepDeterminism(t *testing.T) {
	run := func() (Stats, []int) {
		r := newRig(t, 50)
		router := New(r.eng, Config{Workers: 4, BatchSize: 8})
		var order []int
		for i := 0; i < 100; i++ {
			i := i
			err := router.Submit(Request{
				Session: i * 7,
				Arrival: int64(i) * 500,
				Op:      getOp(r, int64(1+i%50)),
				Done:    func(error) { order = append(order, i) },
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		router.Drain()
		return router.Stats(), order
	}
	s1, o1 := run()
	s2, o2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ:\n%+v\n%+v", s1, s2)
	}
	if len(o1) != len(o2) {
		t.Fatalf("order lengths differ: %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("execution order diverges at %d: %d vs %d", i, o1[i], o2[i])
		}
	}
}

// TestZeroCapacityRouter: QueueDepth NoQueue rejects everything, typed.
func TestZeroCapacityRouter(t *testing.T) {
	r := newRig(t, 10)
	reg := armedRegistry(t)
	router := New(r.eng, Config{Workers: 1, QueueDepth: NoQueue, Registry: reg})
	for i := 0; i < 5; i++ {
		if err := router.Submit(Request{Session: i, Op: getOp(r, 1)}); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("submit %d: err = %v, want ErrOverloaded", i, err)
		}
	}
	// SubmitWait must fail fast too, not block forever on a queue that can
	// never have space.
	if err := router.SubmitWait(Request{Session: 0, Op: getOp(r, 1)}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("SubmitWait: err = %v, want ErrOverloaded", err)
	}
	if st := router.Stats(); st.Rejected != 6 || st.Admitted != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := reg.Snapshot().Counters["dataplane.rejected"]; got != 6 {
		t.Fatalf("dataplane.rejected = %d, want 6", got)
	}
	router.Drain() // no-op; checker Finish must see empty queues
}

// TestQueueFullRejects: the bounded queue rejects exactly past capacity.
func TestQueueFullRejects(t *testing.T) {
	r := newRig(t, 10)
	router := New(r.eng, Config{Workers: 1, QueueDepth: 3})
	for i := 0; i < 3; i++ {
		if err := router.Submit(Request{Session: 0, Op: getOp(r, 1)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	err := router.Submit(Request{Session: 0, Op: getOp(r, 1)})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	router.Drain()
	if st := router.Stats(); st.Requests != 3 || st.Rejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTokenBucketBurstBoundary: a cold bucket admits exactly Burst requests
// at one instant; the next token arrives exactly 1/rate later.
func TestTokenBucketBurstBoundary(t *testing.T) {
	r := newRig(t, 10)
	const burst = 8
	router := New(r.eng, Config{
		Workers:     1,
		TenantRate:  1000, // 1 token per virtual millisecond
		TenantBurst: burst,
	})
	submit := func(arrival int64) error {
		return router.Submit(Request{Session: 0, Tenant: 3, Arrival: arrival, Op: getOp(r, 1)})
	}
	for i := 0; i < burst; i++ {
		if err := submit(0); err != nil {
			t.Fatalf("burst submit %d: %v", i, err)
		}
	}
	if err := submit(0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("burst+1: err = %v, want ErrOverloaded", err)
	}
	// One token refills after exactly 1ms of virtual time; just before it,
	// still rejected.
	if err := submit(simclock.Millisecond - 1); !errors.Is(err, ErrOverloaded) {
		t.Fatal("token refilled early")
	}
	if err := submit(simclock.Millisecond); err != nil {
		t.Fatalf("refilled token rejected: %v", err)
	}
	if err := submit(simclock.Millisecond); !errors.Is(err, ErrOverloaded) {
		t.Fatal("second token granted from a single refill")
	}
	// Other tenants are unaffected.
	if err := router.Submit(Request{Session: 0, Tenant: 4, Op: getOp(r, 1)}); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	router.Drain()
}

// TestBackpressureReleaseOrdering: SubmitWait callers blocked on a full
// queue are admitted strictly in the order they started waiting, verified
// under concurrent enqueue with a deterministic Step-driven drain.
func TestBackpressureReleaseOrdering(t *testing.T) {
	r := newRig(t, 10)
	reg := armedRegistry(t)
	router := New(r.eng, Config{Workers: 1, QueueDepth: 1, BatchSize: 1, Registry: reg})

	var mu sync.Mutex
	var execOrder []int
	mk := func(i int) Request {
		return Request{
			Session: 0,
			Op:      getOp(r, 1),
			Done: func(err error) {
				if err != nil {
					t.Errorf("request %d: %v", i, err)
				}
				mu.Lock()
				execOrder = append(execOrder, i)
				mu.Unlock()
			},
		}
	}
	if err := router.Submit(mk(0)); err != nil { // fills the queue
		t.Fatal(err)
	}
	const waiters = 5
	var wg sync.WaitGroup
	for i := 1; i <= waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := router.SubmitWait(mk(i)); err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
		}()
		// Admit waiters to the ticket line one at a time so the intended
		// order is fixed even though the goroutines run concurrently.
		for router.Waiting() != i {
			runtime.Gosched()
		}
	}
	// Drain one batch at a time. Each Step frees the single queue slot,
	// which must go to the LOWEST outstanding ticket; the admitted waiter
	// refills the queue for the next Step.
	for executed := 0; executed < waiters+1; {
		if router.Step() {
			executed++
		} else {
			runtime.Gosched() // freed slot not refilled by the waiter yet
		}
	}
	wg.Wait()
	router.Drain()
	mu.Lock()
	defer mu.Unlock()
	if len(execOrder) != waiters+1 {
		t.Fatalf("executed %d requests, want %d", len(execOrder), waiters+1)
	}
	for i, got := range execOrder {
		if got != i {
			t.Fatalf("execution order %v, want FIFO 0..%d", execOrder, waiters)
		}
	}
}

// TestAbortDiscards: Abort drops the backlog with ErrClosed completions and
// dp.discard events, and further submits fail with ErrClosed.
func TestAbortDiscards(t *testing.T) {
	r := newRig(t, 10)
	reg := armedRegistry(t)
	router := New(r.eng, Config{Workers: 2, Registry: reg})
	var mu sync.Mutex
	discarded := 0
	const n = 9
	for i := 0; i < n; i++ {
		err := router.Submit(Request{
			Session: i,
			Op:      getOp(r, 1),
			Done: func(err error) {
				if !errors.Is(err, ErrClosed) {
					t.Errorf("discarded request err = %v, want ErrClosed", err)
				}
				mu.Lock()
				discarded++
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	router.Abort()
	if discarded != n {
		t.Fatalf("discarded = %d, want %d", discarded, n)
	}
	if err := router.Submit(Request{Session: 0, Op: getOp(r, 1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-abort submit err = %v, want ErrClosed", err)
	}
	if st := router.Stats(); st.Requests != 0 {
		t.Fatalf("aborted router executed %d requests", st.Requests)
	}
}

// TestBatchFailureIsAtomic: one failing op fails the whole batch, every
// request sees the error, and the batch's writes are rolled back.
func TestBatchFailureIsAtomic(t *testing.T) {
	r := newRig(t, 10)
	router := New(r.eng, Config{Workers: 1, BatchSize: 3})
	var errs []error
	var mu sync.Mutex
	collect := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	ins := func(id int64) func(*txn.Txn) error {
		return func(tx *txn.Txn) error { return tx.Insert(r.tr, id, []byte("x")) }
	}
	bad := func(tx *txn.Txn) error { return tx.Update(r.tr, 99_999, []byte("missing")) }
	for _, req := range []Request{
		{Session: 0, Op: ins(1001), Done: collect},
		{Session: 0, Op: bad, Done: collect},
		{Session: 0, Op: ins(1002), Done: collect},
	} {
		if err := router.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	router.Drain()
	if len(errs) != 3 {
		t.Fatalf("completions = %d, want 3", len(errs))
	}
	for i, err := range errs {
		if err == nil {
			t.Fatalf("request %d: nil error in failed batch", i)
		}
	}
	// The batch's first insert must have been rolled back.
	if _, err := r.tr.Get(r.clk, 1001); err == nil {
		t.Fatal("key 1001 visible after batch rollback")
	}
}

// TestConcurrentRunDrains: Run mode under real goroutines (run with -race):
// concurrent SubmitWait from many submitters, Close drains everything, the
// checkers stay silent.
func TestConcurrentRunDrains(t *testing.T) {
	r := newRig(t, 200)
	reg := armedRegistry(t)
	router := New(r.eng, Config{Workers: 4, QueueDepth: 32, BatchSize: 8, Registry: reg})
	router.Run()

	const submitters = 8
	const perSubmitter = 150
	var completed sync.WaitGroup
	var mu sync.Mutex
	ok, bad := 0, 0
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			clk := simclock.New()
			for i := 0; i < perSubmitter; i++ {
				clk.Advance(10_000)
				completed.Add(1)
				err := router.SubmitWait(Request{
					Session: s*perSubmitter + i,
					Tenant:  s,
					Arrival: clk.Now(),
					Op:      getOp(r, int64(1+i%200)),
					Done: func(err error) {
						defer completed.Done()
						mu.Lock()
						if err != nil {
							bad++
						} else {
							ok++
						}
						mu.Unlock()
					},
				})
				if err != nil {
					completed.Done()
					t.Errorf("submitter %d: %v", s, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	router.Close()
	completed.Wait()
	mu.Lock()
	defer mu.Unlock()
	if bad != 0 {
		t.Fatalf("%d requests failed", bad)
	}
	if ok != submitters*perSubmitter {
		t.Fatalf("completed = %d, want %d", ok, submitters*perSubmitter)
	}
	st := router.Stats()
	if st.Requests != submitters*perSubmitter {
		t.Fatalf("stats.Requests = %d, want %d", st.Requests, submitters*perSubmitter)
	}
	if got := reg.Snapshot().Gauges["dataplane.queue_depth"]; got != 0 {
		t.Fatalf("queue_depth = %d after Close", got)
	}
}

// TestRunBatchEmpty: the zero-op batch is a no-op, not a transaction.
func TestRunBatchEmpty(t *testing.T) {
	r := newRig(t, 1)
	err := r.eng.RunBatch(r.clk, 0, func(int, *txn.Txn) error {
		t.Fatal("an empty batch ran an op")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
