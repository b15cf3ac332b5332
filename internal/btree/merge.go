package btree

import (
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
	var free, g int
	err = buffer.Visit(leaf, func(pg page.Page) (err error) {
		if free, err = pg.FreeSpace(); err != nil {
			return err
		}
		g, err = pg.Garbage()
		return err
	})
	leaf.Release()
	if err != nil {
		return err
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
	rootID, err := aux(meta)
	if err != nil {
		return abort(err)
	}
	// Descend to the leaf's PARENT.
	cur, err := m.Get(rootID, buffer.Write)
	if err != nil {
		return abort(err)
	}
	lvl, err := level(cur)
	if err != nil {
		return abort(err)
	}
	if lvl == 0 {
		return abort(errNoMergePartner) // root is the leaf: nothing to merge with
	}
	for lvl > 1 {
		childID, _, err := route(cur, key)
		if err != nil {
			return abort(err)
		}
		child, err := m.Get(childID, buffer.Write)
		if err != nil {
			return abort(err)
		}
		cur = child
		if lvl, err = level(cur); err != nil {
			return abort(err)
		}
	}
	// cur is the parent (level 1). Locate the leaf's entry index and the
	// two children to merge.
	var idx int
	var leftID, rightID uint64
	err = buffer.Visit(cur, func(pg page.Page) error {
		n, err := pg.NSlots()
		if err != nil {
			return err
		}
		if idx, err = pg.LowerBound(key); err != nil {
			return err
		}
		if idx >= n {
			idx = n - 1
		} else {
			k, err := pg.KeyAt(idx)
			if err != nil {
				return err
			}
			if k != key {
				idx = max(idx-1, 0)
			}
		}
		if idx == 0 {
			return errNoMergePartner // leftmost child: no left sibling under this parent
		}
		if leftID, err = pg.WordAt(idx - 1); err != nil {
			return err
		}
		rightID, err = pg.WordAt(idx)
		return err
	})
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
	// Fit check: left must absorb all of right's live records.
	var lFree, lGarb int
	err = buffer.Visit(left, func(pg page.Page) (err error) {
		if lFree, err = pg.FreeSpace(); err != nil {
			return err
		}
		lGarb, err = pg.Garbage()
		return err
	})
	if err != nil {
		return abort(err)
	}
	need := 0
	var moved []KV
	err = buffer.Visit(right, func(pg page.Page) error {
		rn, err := pg.NSlots()
		if err != nil {
			return err
		}
		moved = make([]KV, 0, rn)
		for i := 0; i < rn; i++ {
			k, err := pg.KeyAt(i)
			if err != nil {
				return err
			}
			v, err := pg.ValAt(i, nil)
			if err != nil {
				return err
			}
			moved = append(moved, KV{Key: k, Val: v})
			need += 8 + len(v) + slotOverhead
		}
		return nil
	})
	if err != nil {
		return abort(err)
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
	var rSib uint64
	err = buffer.Visit(right, func(pg page.Page) (err error) {
		rSib, err = pg.RightSibling()
		return err
	})
	if err != nil {
		return abort(err)
	}
	if err := m.SetRightSibling(left, rSib); err != nil {
		return abort(err)
	}
	var sepKey int64
	err = buffer.Visit(cur, func(pg page.Page) (err error) {
		sepKey, err = pg.KeyAt(idx)
		return err
	})
	if err != nil {
		return abort(err)
	}
	if err := m.Delete(cur, sepKey); err != nil {
		return abort(err)
	}
	// Root collapse: an internal root left with a single child hands the
	// root role to that child.
	if cur.ID() == rootID {
		var only uint64 // the single child, when one is left
		collapse := false
		err := buffer.Visit(cur, func(pg page.Page) error {
			rn, err := pg.NSlots()
			if err != nil || rn != 1 {
				return err
			}
			collapse = true
			only, err = pg.WordAt(0)
			return err
		})
		if err != nil {
			return abort(err)
		}
		if collapse {
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
