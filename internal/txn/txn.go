package txn

import (
	"fmt"

	"polarcxlmem/internal/btree"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/wal"
)

// Txn is one user transaction. Statements execute immediately through
// mini-transactions; a writing transaction's durability is decided by the
// KTxnCommit marker appended (and flushed) at Commit. Rollback applies the
// logical inverses in reverse order — correct even if SMOs have since moved
// the records — and then marks the unit committed so crash recovery never
// re-undoes it. A transaction that issued no write statement logged nothing,
// so it commits or rolls back without a marker (see Commit).
type Txn struct {
	e     *Engine
	clk   *simclock.Clock
	id    uint64
	undo  []btree.Undo
	wrote bool // a write statement started; it may have logged records
	done  bool
}

// Begin starts a transaction on clk's worker.
func (e *Engine) Begin(clk *simclock.Clock) *Txn {
	return &Txn{e: e, clk: clk, id: e.ids.Next()}
}

// ID reports the transaction id.
func (t *Txn) ID() uint64 { return t.id }

// Clock exposes the worker clock the transaction runs on, so callers that
// only see the Txn — e.g. request ops executing inside a dataplane batch —
// can charge per-statement CPU to the right clock.
func (t *Txn) Clock() *simclock.Clock { return t.clk }

func (t *Txn) active() error {
	if t.done {
		return fmt.Errorf("txn %d: already finished", t.id)
	}
	return nil
}

// Insert adds (key, val) to tr.
func (t *Txn) Insert(tr *btree.Tree, key int64, val []byte) error {
	if err := t.active(); err != nil {
		return err
	}
	t.wrote = true
	if err := tr.Insert(t.clk, t.id, key, val); err != nil {
		return err
	}
	t.undo = append(t.undo, btree.Undo{Tree: tr, Kind: wal.KInsert, Key: key})
	return nil
}

// Update replaces key's value in tr.
func (t *Txn) Update(tr *btree.Tree, key int64, val []byte) error {
	if err := t.active(); err != nil {
		return err
	}
	t.wrote = true
	old, err := tr.UpdateReturningOld(t.clk, t.id, key, val)
	if err != nil {
		return err
	}
	t.undo = append(t.undo, btree.Undo{Tree: tr, Kind: wal.KUpdate, Key: key, Old: old})
	return nil
}

// Delete removes key from tr.
func (t *Txn) Delete(tr *btree.Tree, key int64) error {
	if err := t.active(); err != nil {
		return err
	}
	t.wrote = true
	old, err := tr.DeleteReturningOld(t.clk, t.id, key)
	if err != nil {
		return err
	}
	t.undo = append(t.undo, btree.Undo{Tree: tr, Kind: wal.KDelete, Key: key, Old: old})
	return nil
}

// Get reads key from tr (no locks held across statements: the engine's
// workloads are single-statement-consistent, as in sysbench).
func (t *Txn) Get(tr *btree.Tree, key int64) ([]byte, error) {
	if err := t.active(); err != nil {
		return nil, err
	}
	return tr.Get(t.clk, key)
}

// Scan reads up to limit records with key >= from.
func (t *Txn) Scan(tr *btree.Tree, from int64, limit int) ([]btree.KV, error) {
	if err := t.active(); err != nil {
		return nil, err
	}
	return tr.Scan(t.clk, from, limit)
}

// Commit appends the durable commit marker and forces the log — through the
// engine's group committer when one is enabled (concurrent committers then
// share a single leader-driven flush), inline otherwise. A read-only
// transaction appends no marker and forces nothing: it only waits until
// every record appended before its commit is durable, which covers anything
// it could have read and costs nothing when the log is already forced.
func (t *Txn) Commit() error {
	if err := t.active(); err != nil {
		return err
	}
	t.done = true
	return t.e.commitUnit(t.clk, t.id, !t.wrote)
}

// Rollback undoes every statement in reverse order via logical compensation
// and then commits the unit (net effect: nothing happened, durably).
func (t *Txn) Rollback() error {
	if err := t.active(); err != nil {
		return err
	}
	t.done = true
	for i := len(t.undo) - 1; i >= 0; i-- {
		if err := t.undo[i].Apply(t.clk, t.id); err != nil {
			return fmt.Errorf("txn %d: undo step %d: %w", t.id, i, err)
		}
	}
	return t.e.commitUnit(t.clk, t.id, !t.wrote)
}
