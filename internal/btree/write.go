package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/mtr"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/wal"
)

// ErrDuplicateKey reports an insert of an existing key.
var ErrDuplicateKey = errors.New("btree: duplicate key")

// Undo is the logical inverse of one DML statement, applied by transaction
// rollback through ordinary tree operations (so it stays correct even after
// SMOs moved the record to another page).
type Undo struct {
	Tree *Tree
	Kind wal.Kind // the ORIGINAL operation's kind
	Key  int64
	Old  []byte
}

// Apply executes the inverse operation under unit id txn.
func (u Undo) Apply(clk *simclock.Clock, txn uint64) error {
	switch u.Kind {
	case wal.KInsert:
		return u.Tree.Delete(clk, txn, u.Key)
	case wal.KUpdate:
		return u.Tree.Update(clk, txn, u.Key, u.Old)
	case wal.KDelete:
		return u.Tree.Insert(clk, txn, u.Key, u.Old)
	}
	return fmt.Errorf("btree: cannot undo %v", u.Kind)
}

const (
	slotOverhead      = 4
	internalEntryNeed = 8 + 8 + slotOverhead // key + child id + slot
)

func childBytes(id uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], id)
	return b[:]
}

// roomFor reads f's level and reports, in one visit, whether f can absorb
// one more entry — need bytes (record + slot) on a leaf, an internal entry
// on an internal page — counting compactable garbage.
func roomFor(f buffer.Frame, need int) (lvl uint16, ok bool, err error) {
	err = buffer.Visit(f, func(pg page.Page) error {
		if lvl, err = pg.Level(); err != nil {
			return err
		}
		if lvl > 0 {
			need = internalEntryNeed
		}
		free, err := pg.FreeSpace()
		if err != nil {
			return err
		}
		g, err := pg.Garbage()
		ok = free+g >= need
		return err
	})
	return lvl, ok, err
}

// findIn looks key up in leaf's page in one visit.
func findIn(leaf buffer.Frame, key int64) (v []byte, err error) {
	err = buffer.Visit(leaf, func(pg page.Page) error {
		v, err = pg.Find(key)
		return err
	})
	return v, err
}

// Insert adds (key, val) under transaction txn, splitting as needed.
func (t *Tree) Insert(clk *simclock.Clock, txn uint64, key int64, val []byte) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	for attempt := 0; attempt < 4; attempt++ {
		m := mtr.Begin(clk, t.pool, t.log, txn)
		m.SetTag(t.metaID)
		leaf, err := t.descendToLeaf(clk, key, buffer.Write)
		if err != nil {
			return err
		}
		m.Adopt(leaf)
		err = m.Insert(leaf, key, val)
		if cerr := m.Commit(false); cerr != nil && err == nil {
			err = cerr
		}
		switch {
		case err == nil:
			return nil
		case errors.Is(err, page.ErrDuplicate):
			return fmt.Errorf("key %d: %w", key, ErrDuplicateKey)
		case errors.Is(err, page.ErrPageFull):
			if err := t.smoSplit(clk, key, 8+len(val)+slotOverhead); err != nil {
				return err
			}
			continue
		default:
			return err
		}
	}
	return fmt.Errorf("btree: key %d did not fit after repeated splits", key)
}

// Update replaces key's value under transaction txn and returns the old
// value (for transaction-level undo).
func (t *Tree) UpdateReturningOld(clk *simclock.Clock, txn uint64, key int64, val []byte) ([]byte, error) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	for attempt := 0; attempt < 4; attempt++ {
		m := mtr.Begin(clk, t.pool, t.log, txn)
		m.SetTag(t.metaID)
		leaf, err := t.descendToLeaf(clk, key, buffer.Write)
		if err != nil {
			return nil, err
		}
		m.Adopt(leaf)
		old, ferr := findIn(leaf, key)
		if ferr == nil {
			err = m.Update(leaf, key, val)
		}
		if cerr := m.Commit(false); cerr != nil && err == nil {
			err = cerr
		}
		if errors.Is(ferr, page.ErrNotFound) {
			return nil, ErrKeyNotFound
		}
		if ferr != nil {
			return nil, ferr
		}
		switch {
		case err == nil:
			return old, nil
		case errors.Is(err, page.ErrPageFull):
			if err := t.smoSplit(clk, key, 8+len(val)+slotOverhead); err != nil {
				return nil, err
			}
			continue
		default:
			return nil, err
		}
	}
	return nil, fmt.Errorf("btree: update of key %d did not fit after repeated splits", key)
}

// Update replaces key's value under transaction txn.
func (t *Tree) Update(clk *simclock.Clock, txn uint64, key int64, val []byte) error {
	_, err := t.UpdateReturningOld(clk, txn, key, val)
	return err
}

// Delete removes key under transaction txn and returns the old value.
func (t *Tree) DeleteReturningOld(clk *simclock.Clock, txn uint64, key int64) ([]byte, error) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	m := mtr.Begin(clk, t.pool, t.log, txn)
	m.SetTag(t.metaID)
	leaf, err := t.descendToLeaf(clk, key, buffer.Write)
	if err != nil {
		return nil, err
	}
	m.Adopt(leaf)
	old, ferr := findIn(leaf, key)
	if ferr == nil {
		err = m.Delete(leaf, key)
	}
	if cerr := m.Commit(false); cerr != nil && err == nil {
		err = cerr
	}
	if errors.Is(ferr, page.ErrNotFound) {
		return nil, ErrKeyNotFound
	}
	if ferr != nil {
		return nil, ferr
	}
	if err != nil {
		return nil, err
	}
	// Merge-on-underflow: if the leaf fell below the merge threshold, fold
	// it into its left sibling in a separate durable SMO (§3.2 names page
	// merging among the crash-hazardous SMOs).
	if err := t.maybeMerge(clk, key); err != nil {
		return nil, err
	}
	return old, nil
}

// Delete removes key under transaction txn.
func (t *Tree) Delete(clk *simclock.Clock, txn uint64, key int64) error {
	_, err := t.DeleteReturningOld(clk, txn, key)
	return err
}

// smoSplit is the pessimistic path: a durable mini-transaction that
// write-latches the root path for key top-down and preemptively splits every
// node that cannot absorb one more entry (leaf: need bytes), so the
// retried DML is guaranteed to fit.
func (t *Tree) smoSplit(clk *simclock.Clock, key int64, need int) error {
	m := mtr.Begin(clk, t.pool, t.log, t.ids.Next())
	m.SetTag(t.metaID)
	abort := func(err error) error {
		// Release latches; the mini-transaction is not marked committed, so
		// a crash here (the test hooks' case) leaves redo without a marker
		// and the pages write-locked.
		m.Commit(false)
		return err
	}
	meta, err := m.Get(t.metaID, buffer.Write)
	if err != nil {
		return abort(err)
	}
	rootID, err := aux(meta)
	if err != nil {
		return abort(err)
	}
	cur, err := m.Get(rootID, buffer.Write)
	if err != nil {
		return abort(err)
	}
	lvl, ok, err := roomFor(cur, need)
	if err != nil {
		return abort(err)
	}
	if !ok {
		// Grow the tree: fresh root pointing at the old one, then fall
		// through so the descent loop splits the old root as a child.
		newRoot, err := m.New()
		if err != nil {
			return abort(err)
		}
		if err := m.InitPage(newRoot, page.TypeInternal, lvl+1); err != nil {
			return abort(err)
		}
		var firstKey int64
		err = buffer.Visit(cur, func(pg page.Page) (err error) {
			firstKey, err = pg.KeyAt(0)
			return err
		})
		if err != nil {
			return abort(err)
		}
		if err := m.Insert(newRoot, firstKey, childBytes(rootID)); err != nil {
			return abort(err)
		}
		if err := m.SetAux(meta, newRoot.ID()); err != nil {
			return abort(err)
		}
		if err := t.step("smo-grew-root"); err != nil {
			return abort(err)
		}
		cur = newRoot
		lvl = lvl + 1
	}
	// Invariant: cur is internal (or a roomy leaf) and can absorb one entry.
	for lvl > 0 {
		childID, entryKey, err := route(cur, key)
		if err != nil {
			return abort(err)
		}
		child, err := m.Get(childID, buffer.Write)
		if err != nil {
			return abort(err)
		}
		clvl, ok, err := roomFor(child, need)
		if err != nil {
			return abort(err)
		}
		if !ok {
			right, sep, err := t.splitChild(m, child)
			if err != nil {
				return abort(err)
			}
			if err := t.step("smo-split-before-parent-link"); err != nil {
				return abort(err)
			}
			if err := lowerLeftmost(m, cur, child, entryKey, sep); err != nil {
				return abort(err)
			}
			if err := m.Insert(cur, sep, childBytes(right.ID())); err != nil {
				return abort(err)
			}
			if key >= sep {
				child = right
			}
		}
		cur = child
		lvl = clvl
	}
	if err := t.step("smo-before-commit"); err != nil {
		return abort(err)
	}
	return m.Commit(true)
}

// lowerLeftmost keeps the entry for the split child left in its parent
// leftmost when left gets the separator sep. The leftmost entry stands for
// -infinity, so its key can exceed keys below it: a key smaller than every
// separator descends there. A separator below that key would sort in front
// of the entry and strand the keys under it, and one equal to it would
// collide, so the entry is re-keyed to math.MinInt64 first. Only the
// leftmost entry can meet such a separator: any other entry's key (entryKey)
// is at most its child's smallest key, and a separator exceeds that.
func lowerLeftmost(m *mtr.MTR, parent, left buffer.Frame, entryKey, sep int64) error {
	if sep > entryKey {
		return nil
	}
	if err := m.Delete(parent, entryKey); err != nil {
		return err
	}
	return m.Insert(parent, math.MinInt64, childBytes(left.ID()))
}

// splitChild splits left, moving its upper half into a fresh right sibling,
// and returns the right frame plus the separator key. All record motion is
// logged through the mini-transaction, so redo can replay it.
func (t *Tree) splitChild(m *mtr.MTR, left buffer.Frame) (buffer.Frame, int64, error) {
	var typ, lvl uint16
	var n int
	err := buffer.Visit(left, func(pg page.Page) (err error) {
		if typ, err = pg.Type(); err != nil {
			return err
		}
		if lvl, err = pg.Level(); err != nil {
			return err
		}
		n, err = pg.NSlots()
		return err
	})
	if err != nil {
		return buffer.Frame{}, 0, err
	}
	if n < 2 {
		return buffer.Frame{}, 0, fmt.Errorf("btree: cannot split page %d with %d records", left.ID(), n)
	}
	right, err := m.New()
	if err != nil {
		return buffer.Frame{}, 0, err
	}
	if err := m.InitPage(right, typ, lvl); err != nil {
		return buffer.Frame{}, 0, err
	}
	mid := n / 2
	moved := make([]KV, 0, n-mid)
	err = buffer.Visit(left, func(pg page.Page) error {
		for i := mid; i < n; i++ {
			k, err := pg.KeyAt(i)
			if err != nil {
				return err
			}
			v, err := pg.ValAt(i, nil)
			if err != nil {
				return err
			}
			moved = append(moved, KV{Key: k, Val: v})
		}
		return nil
	})
	if err != nil {
		return buffer.Frame{}, 0, err
	}
	for _, kv := range moved {
		if err := m.Insert(right, kv.Key, kv.Val); err != nil {
			return buffer.Frame{}, 0, err
		}
	}
	for i := len(moved) - 1; i >= 0; i-- {
		if err := m.Delete(left, moved[i].Key); err != nil {
			return buffer.Frame{}, 0, err
		}
	}
	if lvl == 0 {
		var sib uint64
		err := buffer.Visit(left, func(pg page.Page) (err error) {
			sib, err = pg.RightSibling()
			return err
		})
		if err != nil {
			return buffer.Frame{}, 0, err
		}
		if err := m.SetRightSibling(right, sib); err != nil {
			return buffer.Frame{}, 0, err
		}
		if err := m.SetRightSibling(left, right.ID()); err != nil {
			return buffer.Frame{}, 0, err
		}
	}
	return right, moved[0].Key, nil
}
