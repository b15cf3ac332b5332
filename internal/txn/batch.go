package txn

import (
	"fmt"

	"polarcxlmem/internal/simclock"
)

// RunBatch executes n ops as ONE transaction: a single Begin, op(0, tx)
// through op(n-1, tx) in order, and a single Commit — so the
// per-transaction costs the commit path pays (the background-flusher,
// checkpointer and tier ticks, the begin/commit CPU bookkeeping, and for a
// batch that writes the commit-marker append and log force) are amortized
// over the whole batch instead of charged per request. A read-only batch
// forces no log, so batching it amortizes only the daemon ticks and the
// caller's dispatch cost. This is the execution primitive the dataplane
// router batches front-end requests onto (see internal/dataplane); op is
// one function indexed by position, so a caller need not build a closure
// per request.
//
// Semantics are all-or-nothing: if any op fails, the whole batch is rolled
// back via logical compensation and the failing op's error is returned
// (wrapped with its index). Ops see each other's effects — they share the
// transaction — so independent requests batched together must not rely on
// isolation from their batch peers; the router only batches requests that
// are independent by construction (distinct sessions).
func (e *Engine) RunBatch(clk *simclock.Clock, n int, op func(i int, tx *Txn) error) error {
	if n == 0 {
		return nil
	}
	tx := e.Begin(clk)
	for i := range n {
		if err := op(i, tx); err != nil {
			if rbErr := tx.Rollback(); rbErr != nil {
				return fmt.Errorf("txn: batch op %d: %w (rollback also failed: %v)", i, err, rbErr)
			}
			return fmt.Errorf("txn: batch op %d: %w", i, err)
		}
	}
	return tx.Commit()
}
