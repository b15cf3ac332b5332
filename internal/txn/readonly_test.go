package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"polarcxlmem/internal/btree"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/wal"
)

// commitModes runs a test on an inline engine and on a group-commit engine.
// Neither enables a daemon, so a commit's only virtual cost is the log.
var commitModes = []struct {
	name  string
	group bool
}{{"inline", false}, {"group", true}}

// newModeEnv builds a fresh engine for mode with table "t" holding keys
// 0..rows-1, committed.
func newModeEnv(t *testing.T, group bool, rows int64) (*env, *btree.Tree) {
	t.Helper()
	ev := newEnv(t)
	if group {
		ev.e.EnableGroupCommit(wal.GroupPolicy{}, nil)
	}
	tr, err := ev.e.CreateTable(ev.clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	tx := ev.e.Begin(ev.clk)
	for k := int64(0); k < rows; k++ {
		if err := tx.Insert(tr, k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return ev, tr
}

// hasMarker reports whether unit has a durable KTxnCommit record.
func hasMarker(ws *wal.Store, unit uint64) bool {
	found := false
	ws.Iterate(ws.TruncatedBefore(), func(r *wal.Record) bool {
		if r.Kind == wal.KTxnCommit && r.Txn == unit {
			found = true
			return false
		}
		return true
	})
	return found
}

// TestReadOnlyCommitTouchesNoLog: with every record already durable, a
// read-only commit appends nothing, issues no log-device request and, with
// no daemon to tick, costs no virtual time.
func TestReadOnlyCommitTouchesNoLog(t *testing.T) {
	for _, m := range commitModes {
		t.Run(m.name, func(t *testing.T) {
			ev, tr := newModeEnv(t, m.group, 50)
			tx := ev.e.Begin(ev.clk)
			if _, err := tx.Get(tr, 7); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Scan(tr, 10, 5); err != nil {
				t.Fatal(err)
			}
			reqs, next, now := ev.ws.Device().Stats().Requests, ev.log.NextLSN(), ev.clk.Now()
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if got := ev.ws.Device().Stats().Requests; got != reqs {
				t.Fatalf("read-only commit issued %d wal-dev requests, want 0", got-reqs)
			}
			if got := ev.log.NextLSN(); got != next {
				t.Fatalf("read-only commit appended %d records, want 0", got-next)
			}
			if got := ev.clk.Now(); got != now {
				t.Fatalf("read-only commit advanced the clock %d ns, want 0", got-now)
			}
			if hasMarker(ev.ws, tx.ID()) {
				t.Fatal("read-only commit wrote a commit marker")
			}

			rb := ev.e.Begin(ev.clk)
			if _, err := rb.Get(tr, 8); err != nil {
				t.Fatal(err)
			}
			if err := rb.Rollback(); err != nil {
				t.Fatal(err)
			}
			if got := ev.ws.Device().Stats().Requests; got != reqs {
				t.Fatalf("read-only rollback issued %d wal-dev requests, want 0", got-reqs)
			}
			if hasMarker(ev.ws, rb.ID()) {
				t.Fatal("read-only rollback wrote a commit marker")
			}
		})
	}
}

// TestReadOnlyCommitWaitsForPendingRecords: a reader that commits while
// another unit's records sit unforced in the log buffer returns only once
// those records are durable, with its clock at or past the persist that
// made them so.
func TestReadOnlyCommitWaitsForPendingRecords(t *testing.T) {
	for _, m := range commitModes {
		t.Run(m.name, func(t *testing.T) {
			ev, tr := newModeEnv(t, m.group, 50)
			wclk := simclock.NewAt(ev.clk.Now())
			w := ev.e.Begin(wclk)
			if err := w.Update(tr, 3, []byte("pending")); err != nil {
				t.Fatal(err)
			}
			tail := ev.log.NextLSN() - 1
			if ev.ws.DurableLSN() >= tail {
				t.Fatal("setup: the writer's records are already durable")
			}

			rclk := simclock.NewAt(ev.clk.Now())
			r := ev.e.Begin(rclk)
			if _, err := r.Get(tr, 3); err != nil {
				t.Fatal(err)
			}
			if err := r.Commit(); err != nil {
				t.Fatal(err)
			}
			if got := ev.ws.DurableLSN(); got < tail {
				t.Fatalf("reader returned with DurableLSN %d below the appended tail %d", got, tail)
			}
			if free := ev.ws.Device().Stats().LastFree; rclk.Now() < free {
				t.Fatalf("reader returned at %d ns, before the persist completed at %d ns", rclk.Now(), free)
			}
			if hasMarker(ev.ws, r.ID()) {
				t.Fatal("reader wrote a commit marker")
			}

			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			if !hasMarker(ev.ws, w.ID()) {
				t.Fatal("writer's commit marker missing")
			}
		})
	}
}

// TestFailedOrRolledBackWriteStillMarks: a write statement may log
// mini-transaction records before it fails, so a unit that attempted one
// commits with a marker even if the write failed, and a rolled-back write
// commits its compensation with a marker too.
func TestFailedOrRolledBackWriteStillMarks(t *testing.T) {
	for _, m := range commitModes {
		t.Run(m.name, func(t *testing.T) {
			ev, tr := newModeEnv(t, m.group, 50)

			failed := ev.e.Begin(ev.clk)
			if err := failed.Update(tr, 999, []byte("x")); !errors.Is(err, btree.ErrKeyNotFound) {
				t.Fatalf("update of a missing key: %v, want ErrKeyNotFound", err)
			}
			if err := failed.Commit(); err != nil {
				t.Fatal(err)
			}
			if !hasMarker(ev.ws, failed.ID()) {
				t.Fatal("unit whose only write failed has no commit marker")
			}

			rolled := ev.e.Begin(ev.clk)
			if err := rolled.Insert(tr, 1000, []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := rolled.Rollback(); err != nil {
				t.Fatal(err)
			}
			if !hasMarker(ev.ws, rolled.ID()) {
				t.Fatal("rolled-back write has no commit marker")
			}
		})
	}
}

// TestReadOnlyBatchFailureWritesNothing: a read-only RunBatch whose op fails
// rolls back, returns the op's error and touches no log.
func TestReadOnlyBatchFailureWritesNothing(t *testing.T) {
	for _, m := range commitModes {
		t.Run(m.name, func(t *testing.T) {
			ev, tr := newModeEnv(t, m.group, 50)
			reqs, next := ev.ws.Device().Stats().Requests, ev.log.NextLSN()
			keys := []int64{1, 999}
			err := ev.e.RunBatch(ev.clk, len(keys), func(i int, tx *Txn) error {
				_, err := tx.Get(tr, keys[i])
				return err
			})
			if !errors.Is(err, btree.ErrKeyNotFound) {
				t.Fatalf("RunBatch = %v, want the failing op's ErrKeyNotFound", err)
			}
			if got := ev.ws.Device().Stats().Requests; got != reqs {
				t.Fatalf("failed read-only batch issued %d wal-dev requests, want 0", got-reqs)
			}
			if got := ev.log.NextLSN(); got != next {
				t.Fatalf("failed read-only batch appended %d records, want 0", got-next)
			}
		})
	}
}

// TestReadOnlyCommitDurabilityConcurrent runs readers and writers on free
// goroutines, each with its own clock: every reader's Commit returns with
// the durable tail at or above the tail appended when the commit began.
// Run with -race in CI.
func TestReadOnlyCommitDurabilityConcurrent(t *testing.T) {
	const readers, writers, perWorker = 4, 3, 150
	for _, m := range commitModes {
		t.Run(m.name, func(t *testing.T) {
			ev, tr := newModeEnv(t, m.group, 200)
			var wg sync.WaitGroup
			errs := make(chan error, readers+writers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					clk := simclock.New()
					for i := 0; i < perWorker; i++ {
						tx := ev.e.Begin(clk)
						k := int64(w*perWorker+i) % 200
						if err := tx.Update(tr, k, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
							errs <- fmt.Errorf("writer %d: %w", w, err)
							return
						}
						if err := tx.Commit(); err != nil {
							errs <- fmt.Errorf("writer %d: %w", w, err)
							return
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					clk := simclock.New()
					for i := 0; i < perWorker; i++ {
						tx := ev.e.Begin(clk)
						if _, err := tx.Get(tr, int64(r*31+i)%200); err != nil {
							errs <- fmt.Errorf("reader %d: %w", r, err)
							return
						}
						tail := ev.log.NextLSN() - 1
						if err := tx.Commit(); err != nil {
							errs <- fmt.Errorf("reader %d: %w", r, err)
							return
						}
						if got := ev.ws.DurableLSN(); got < tail {
							errs <- fmt.Errorf("reader %d returned with DurableLSN %d below tail %d", r, got, tail)
							return
						}
					}
				}(r)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}
