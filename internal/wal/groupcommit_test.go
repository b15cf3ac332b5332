package wal

import (
	"sort"
	"sync"
	"testing"

	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
)

// TestConcurrentAppendFlushKeepsStoreSorted is the regression test for the
// Log concurrency contract: 8 committer goroutines appending and flushing
// concurrently must leave the durable tail sorted, complete, and with a
// truthful DurableLSN. Before flushMu, two flushes could persist their
// snapshots out of LSN order, silently breaking Iterate's binary search.
func TestConcurrentAppendFlushKeepsStoreSorted(t *testing.T) {
	const goroutines = 8
	const perG = 200
	ws := NewStore(0, 0)
	log := Attach(ws)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clk := simclock.New()
			for i := 0; i < perG; i++ {
				log.Append(Record{Kind: KTxnCommit, Txn: uint64(i + 1)})
				log.Flush(clk)
			}
		}()
	}
	wg.Wait()
	clk := simclock.New()
	log.Flush(clk) // drain any records buffered behind the last flushes

	var lsns []uint64
	ws.Iterate(1, func(r Record) bool {
		lsns = append(lsns, r.LSN)
		return true
	})
	if len(lsns) != goroutines*perG {
		t.Fatalf("durable records = %d, want %d", len(lsns), goroutines*perG)
	}
	if !sort.SliceIsSorted(lsns, func(i, j int) bool { return lsns[i] < lsns[j] }) {
		t.Fatal("durable tail is not sorted by LSN")
	}
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("lsns[%d] = %d, want %d (gap or duplicate)", i, lsn, i+1)
		}
	}
	if got, want := ws.DurableLSN(), uint64(goroutines*perG); got != want {
		t.Fatalf("DurableLSN = %d, want %d", got, want)
	}
}

// TestGroupCommitSingleCommitterMatchesDirectFlush: with one committer the
// group committer must behave exactly like Append+Flush — one batch per
// commit, identical virtual cost — so enabling it never perturbs
// deterministic single-threaded runs (the crash-sweep harness relies on
// this).
func TestGroupCommitSingleCommitterMatchesDirectFlush(t *testing.T) {
	direct := simclock.New()
	wsD := NewStore(0, 0)
	logD := Attach(wsD)
	for i := 0; i < 10; i++ {
		logD.Append(Record{Kind: KTxnCommit, Txn: uint64(i + 1)})
		logD.Flush(direct)
	}

	grouped := simclock.New()
	wsG := NewStore(0, 0)
	gc := NewGroupCommitter(Attach(wsG), GroupPolicy{}, nil)
	for i := 0; i < 10; i++ {
		gc.Commit(grouped, Record{Kind: KTxnCommit, Txn: uint64(i + 1)})
	}

	if direct.Now() != grouped.Now() {
		t.Fatalf("virtual cost diverged: direct %d ns, grouped %d ns", direct.Now(), grouped.Now())
	}
	if gc.Batches() != 10 || gc.Commits() != 10 {
		t.Fatalf("batches/commits = %d/%d, want 10/10", gc.Batches(), gc.Commits())
	}
	if wsG.DurableLSN() != wsD.DurableLSN() {
		t.Fatalf("durable LSN diverged: %d vs %d", wsG.DurableLSN(), wsD.DurableLSN())
	}
}

// TestGroupCommitConcurrentDurability: every Commit return implies the
// record is durable, under 8 concurrent committers; batches must never
// exceed commits, and every committed record must be in the durable tail.
func TestGroupCommitConcurrentDurability(t *testing.T) {
	const goroutines = 8
	const perG = 150
	ws := NewStore(0, 0)
	reg := obs.New(obs.Options{})
	gc := NewGroupCommitter(Attach(ws), GroupPolicy{}, reg)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			clk := simclock.New()
			for i := 0; i < perG; i++ {
				txn := uint64(g*perG + i + 1)
				lsn := gc.Commit(clk, Record{Kind: KTxnCommit, Txn: txn})
				if d := ws.DurableLSN(); d < lsn {
					t.Errorf("commit of txn %d returned at LSN %d but DurableLSN is %d", txn, lsn, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	total := int64(goroutines * perG)
	if gc.Commits() != total {
		t.Fatalf("Commits = %d, want %d", gc.Commits(), total)
	}
	if gc.Batches() > gc.Commits() || gc.Batches() <= 0 {
		t.Fatalf("Batches = %d out of range (commits %d)", gc.Batches(), gc.Commits())
	}
	seen := make(map[uint64]bool)
	ws.Iterate(1, func(r Record) bool {
		seen[r.Txn] = true
		return true
	})
	for txn := uint64(1); txn <= uint64(total); txn++ {
		if !seen[txn] {
			t.Fatalf("committed txn %d missing from the durable tail", txn)
		}
	}
	snap := reg.Snapshot()
	if h, ok := snap.Histograms["wal.batch_size"]; !ok || h.Count != gc.Batches() {
		t.Fatalf("wal.batch_size histogram: %+v, want count %d", h, gc.Batches())
	}
	if h, ok := snap.Histograms["wal.commit_wait_ns"]; !ok || h.Count != total {
		t.Fatalf("wal.commit_wait_ns histogram: %+v, want count %d", h, total)
	}
}

// TestGroupCommitBytesCapClosesBatch: a record larger than the remaining
// batch budget starts its own batch rather than stretching the open one.
func TestGroupCommitBytesCapClosesBatch(t *testing.T) {
	ws := NewStore(0, 0)
	gc := NewGroupCommitter(Attach(ws), GroupPolicy{MaxBatchBytes: 1}, nil)
	clk := simclock.New()
	for i := 0; i < 5; i++ {
		gc.Commit(clk, Record{Kind: KTxnCommit, Txn: uint64(i + 1)})
	}
	if gc.Batches() != 5 {
		t.Fatalf("with a 1-byte cap every commit must flush alone: batches = %d", gc.Batches())
	}
}

// TestFsyncOccupiesLogDevice: two committers flushing "simultaneously" in
// virtual time serialize on the device — the second flush completes one full
// fsync later, not at the same instant. This is the modeling fix that makes
// per-transaction flushing an IOPS wall worth batching away.
func TestFsyncOccupiesLogDevice(t *testing.T) {
	ws := NewStore(0, 0)
	log := Attach(ws)
	a, b := simclock.New(), simclock.New()
	log.Append(Record{Kind: KTxnCommit, Txn: 1})
	log.Flush(a)
	log.Append(Record{Kind: KTxnCommit, Txn: 2})
	log.Flush(b) // b starts at virtual 0 too, but the device is busy
	if b.Now() <= a.Now() {
		t.Fatalf("second flush must queue behind the first: a=%d b=%d", a.Now(), b.Now())
	}
	if b.Now() < 2*DefaultFsyncNanos {
		t.Fatalf("second flush completed at %d ns, want >= two fsyncs (%d)", b.Now(), 2*DefaultFsyncNanos)
	}
}

// TestGroupCommitSchedulerBatchesByArrival: under a simclock.Sched, batch
// membership follows virtual arrival times alone — the committers arriving
// within MaxWaitNanos of the leader share its flush and finish together, a
// later one leads its own batch.
func TestGroupCommitSchedulerBatchesByArrival(t *testing.T) {
	ws := NewStore(0, 0)
	gc := NewGroupCommitter(Attach(ws), GroupPolicy{}, nil)
	s := simclock.NewSched()
	arrivals := []int64{0, 10_000, DefaultMaxWaitNanos, DefaultMaxWaitNanos + 30_000}
	finish := make([]int64, len(arrivals))
	for i, at := range arrivals {
		s.Go(simclock.NewAt(at), func(w *simclock.Worker) {
			lsn := gc.Commit(w.Clock(), Record{Kind: KTxnCommit, Txn: uint64(i + 1)})
			if ws.DurableLSN() < lsn {
				t.Errorf("committer %d returned before LSN %d was durable", i, lsn)
			}
			finish[i] = w.Clock().Now()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if gc.Batches() != 2 || gc.Commits() != 4 {
		t.Fatalf("batches = %d, commits = %d, want 2 batches for 4 commits", gc.Batches(), gc.Commits())
	}
	if finish[0] != finish[1] || finish[1] != finish[2] {
		t.Fatalf("window members finished at %v, want one shared completion", finish[:3])
	}
	if finish[2] < arrivals[2]+DefaultFsyncNanos || finish[3] <= finish[2] {
		t.Fatalf("finish times %v: the batch must flush after its latest member, the late committer after it", finish)
	}
}

// TestGroupCommitFreeCommitterDuringRun: a free goroutine committing while a
// Sched runs is not mistaken for a worker. Its clock carries no worker, so it
// takes the wall-clock path and neither parks nor sleeps on the scheduler.
func TestGroupCommitFreeCommitterDuringRun(t *testing.T) {
	sched := NewGroupCommitter(Attach(NewStore(0, 0)), GroupPolicy{}, nil)
	free := NewGroupCommitter(Attach(NewStore(0, 0)), GroupPolicy{}, nil)
	s := simclock.NewSched()
	for i := 0; i < 4; i++ {
		s.Go(simclock.NewAt(int64(i)*1_000), func(w *simclock.Worker) {
			for j := 0; j < 20; j++ {
				sched.Commit(w.Clock(), Record{Kind: KTxnCommit, Txn: uint64(i*100 + j + 1)})
				w.Yield()
			}
		})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		clk := simclock.New()
		for j := 0; j < 20; j++ {
			if clk.Worker() != nil {
				t.Error("a free goroutine's clock reports a worker")
			}
			free.Commit(clk, Record{Kind: KTxnCommit, Txn: uint64(j + 1)})
		}
	}()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	<-done
	if sched.Commits() != 80 || free.Commits() != 20 || free.Batches() != 20 {
		t.Fatalf("scheduled commits %d, free commits %d in %d batches; want 80, 20 in 20",
			sched.Commits(), free.Commits(), free.Batches())
	}
}
