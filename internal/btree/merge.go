package btree

import (
	"encoding/binary"
	"errors"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/mtr"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
)

// mergeThresholdDiv: a leaf whose used space falls below
// capacity/mergeThresholdDiv after a delete is merged into its left sibling
// when the combined records fit. The paper's SMO discussion names "page
// splitting or merging" as the operations whose mini-transactions must
// survive crashes (§3.2); merge gives the recovery tests the second
// species.
const mergeThresholdDiv = 4

// maybeMerge checks whether key's leaf is underfull and, if so, runs the
// merge SMO. Called by Delete with t.wmu held.
func (t *Tree) maybeMerge(clk *simclock.Clock, key int64) error {
	leaf, err := t.descendToLeaf(clk, key, buffer.Read)
	if err != nil {
		return err
	}
	pg := page.Wrap(leaf)
	free, ferr := pg.FreeSpace()
	g, gerr := pg.Garbage()
	leaf.Release()
	if ferr != nil {
		return ferr
	}
	if gerr != nil {
		return gerr
	}
	capacity := page.Size - page.HeaderSize
	used := capacity - free - g
	if used >= capacity/mergeThresholdDiv {
		return nil
	}
	err = t.smoMergeLeft(clk, key)
	if errors.Is(err, errNoMergePartner) {
		return nil
	}
	return err
}

var errNoMergePartner = errors.New("btree: no merge partner")

// smoMergeLeft merges key's leaf into its LEFT sibling when both are
// children of the same parent and the combined records fit — a durable
// mini-transaction write-locking parent, left sibling, and the leaf
// (left-to-right order, matching scan traversal). The emptied page is
// unlinked from the sibling chain and the parent; its block is reclaimed by
// buffer-pool eviction (the page id itself is not reused, as in
// append-only page allocators).
func (t *Tree) smoMergeLeft(clk *simclock.Clock, key int64) error {
	m := mtr.Begin(clk, t.pool, t.log, t.ids.Next())
	m.SetTag(t.metaID)
	abort := func(err error) error {
		m.Commit(false)
		return err
	}
	meta, err := m.Get(t.metaID, buffer.Write)
	if err != nil {
		return abort(err)
	}
	rootID, err := page.Wrap(meta).Aux()
	if err != nil {
		return abort(err)
	}
	// Descend to the leaf's PARENT.
	cur, err := m.Get(rootID, buffer.Write)
	if err != nil {
		return abort(err)
	}
	curPg := page.Wrap(cur)
	lvl, err := curPg.Level()
	if err != nil {
		return abort(err)
	}
	if lvl == 0 {
		return abort(errNoMergePartner) // root is the leaf: nothing to merge with
	}
	for lvl > 1 {
		childID, _, err := childFor(curPg, key)
		if err != nil {
			return abort(err)
		}
		child, err := m.Get(childID, buffer.Write)
		if err != nil {
			return abort(err)
		}
		cur = child
		curPg = page.Wrap(cur)
		if lvl, err = curPg.Level(); err != nil {
			return abort(err)
		}
	}
	// cur is the parent (level 1). Locate the leaf's entry index.
	n, err := curPg.NSlots()
	if err != nil {
		return abort(err)
	}
	idx, err := curPg.LowerBound(key)
	if err != nil {
		return abort(err)
	}
	if idx >= n {
		idx = n - 1
	} else {
		k, err := curPg.KeyAt(idx)
		if err != nil {
			return abort(err)
		}
		if k != key {
			idx--
			if idx < 0 {
				idx = 0
			}
		}
	}
	if idx == 0 {
		return abort(errNoMergePartner) // leftmost child: no left sibling under this parent
	}
	leftID, err := childIDAt(curPg, idx-1)
	if err != nil {
		return abort(err)
	}
	rightID, err := childIDAt(curPg, idx)
	if err != nil {
		return abort(err)
	}
	left, err := m.Get(leftID, buffer.Write)
	if err != nil {
		return abort(err)
	}
	right, err := m.Get(rightID, buffer.Write)
	if err != nil {
		return abort(err)
	}
	leftPg, rightPg := page.Wrap(left), page.Wrap(right)
	// Fit check: left must absorb all of right's live records.
	lFree, err := leftPg.FreeSpace()
	if err != nil {
		return abort(err)
	}
	lGarb, err := leftPg.Garbage()
	if err != nil {
		return abort(err)
	}
	rn, err := rightPg.NSlots()
	if err != nil {
		return abort(err)
	}
	need := 0
	moved := make([]KV, 0, rn)
	for i := 0; i < rn; i++ {
		k, err := rightPg.KeyAt(i)
		if err != nil {
			return abort(err)
		}
		v, err := rightPg.ValAt(i)
		if err != nil {
			return abort(err)
		}
		moved = append(moved, KV{Key: k, Val: v})
		need += 8 + len(v) + slotOverhead
	}
	if lFree+lGarb < need {
		return abort(errNoMergePartner)
	}
	// Move records, unlink, drop the parent entry.
	for _, kv := range moved {
		if err := m.Insert(left, kv.Key, kv.Val); err != nil {
			return abort(err)
		}
	}
	for i := len(moved) - 1; i >= 0; i-- {
		if err := m.Delete(right, moved[i].Key); err != nil {
			return abort(err)
		}
	}
	if err := t.step("smo-merge-before-unlink"); err != nil {
		return abort(err)
	}
	rSib, err := rightPg.RightSibling()
	if err != nil {
		return abort(err)
	}
	if err := m.SetRightSibling(left, rSib); err != nil {
		return abort(err)
	}
	sepKey, err := curPg.KeyAt(idx)
	if err != nil {
		return abort(err)
	}
	if err := m.Delete(cur, sepKey); err != nil {
		return abort(err)
	}
	// Root collapse: an internal root left with a single child hands the
	// root role to that child.
	if cur.ID() == rootID {
		rn, err := curPg.NSlots()
		if err != nil {
			return abort(err)
		}
		if rn == 1 {
			only, err := childIDAt(curPg, 0)
			if err != nil {
				return abort(err)
			}
			if err := m.SetAux(meta, only); err != nil {
				return abort(err)
			}
		}
	}
	if err := t.step("smo-merge-before-commit"); err != nil {
		return abort(err)
	}
	return m.Commit(true)
}

// childIDAt decodes the child pointer of entry i in an internal page.
func childIDAt(pg page.Page, i int) (uint64, error) {
	v, err := pg.ValAt(i)
	if err != nil {
		return 0, err
	}
	if len(v) != 8 {
		return 0, errors.New("btree: malformed internal entry")
	}
	return binary.LittleEndian.Uint64(v), nil
}
