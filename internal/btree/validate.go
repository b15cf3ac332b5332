package btree

import (
	"fmt"
	"math"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
)

// Validate checks the structural invariants of the tree and returns a
// descriptive error on the first violation. Used by property tests and the
// post-recovery consistency checks:
//
//   - every node's keys are strictly ascending (slotted-page order)
//   - an internal entry's key is <= every key in its child's subtree
//     (except the leftmost entry, which acts as -infinity)
//   - all leaves are at level 0 and levels decrease by exactly 1 per step
//   - the leaf sibling chain visits exactly the leaves, left to right, in
//     global key order
func (t *Tree) Validate(clk *simclock.Clock) error {
	rootID, err := t.rootID(clk)
	if err != nil {
		return err
	}
	var leaves []uint64
	if err := t.validateNode(clk, rootID, math.MinInt64, math.MaxInt64, -1, true, &leaves); err != nil {
		return err
	}
	// Walk the sibling chain from the leftmost leaf.
	if len(leaves) == 0 {
		return fmt.Errorf("btree: no leaves found")
	}
	cur := leaves[0]
	prevKey := int64(math.MinInt64)
	seen := 0
	for cur != 0 {
		if seen >= len(leaves) || leaves[seen] != cur {
			return fmt.Errorf("btree: sibling chain visits %d out of order", cur)
		}
		seen++
		f, err := t.pool.Get(clk, cur, buffer.Read)
		if err != nil {
			return err
		}
		leaf := cur
		err = buffer.Visit(f, func(pg page.Page) error {
			n, err := pg.NSlots()
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				k, err := pg.KeyAt(i)
				if err != nil {
					return err
				}
				if k <= prevKey && !(prevKey == math.MinInt64 && k == math.MinInt64) {
					return fmt.Errorf("btree: global key order violated at leaf %d key %d (prev %d)", leaf, k, prevKey)
				}
				prevKey = k
			}
			cur, err = pg.RightSibling()
			return err
		})
		f.Release()
		if err != nil {
			return err
		}
	}
	if seen != len(leaves) {
		return fmt.Errorf("btree: sibling chain visited %d of %d leaves", seen, len(leaves))
	}
	return nil
}

// validateNode recursively checks node id whose keys must lie in [lo, hi).
// wantLevel is -1 at the root (level learned there). leftmost marks the
// leftmost descent path, where the first entry's key is allowed to exceed
// actual subtree minimums (it acts as -infinity).
func (t *Tree) validateNode(clk *simclock.Clock, id uint64, lo, hi int64, wantLevel int, leftmost bool, leaves *[]uint64) error {
	f, err := t.pool.Get(clk, id, buffer.Read)
	if err != nil {
		return err
	}
	type childRef struct {
		id     uint64
		lo, hi int64
		left   bool
	}
	var children []childRef
	var lvl, n int
	err = buffer.Visit(f, func(pg page.Page) error {
		lvl16, err := pg.Level()
		if err != nil {
			return err
		}
		lvl = int(lvl16)
		if wantLevel >= 0 && lvl != wantLevel {
			return fmt.Errorf("btree: page %d at level %d, want %d", id, lvl, wantLevel)
		}
		if n, err = pg.NSlots(); err != nil {
			return err
		}
		prev := int64(math.MinInt64)
		for i := 0; i < n; i++ {
			k, err := pg.KeyAt(i)
			if err != nil {
				return err
			}
			if i > 0 && k <= prev {
				return fmt.Errorf("btree: page %d keys out of order (%d after %d)", id, k, prev)
			}
			// Leaf keys must respect the parent separator range; an
			// internal node's own entry keys must too (except the
			// leftmost-as--inf).
			if !(leftmost && i == 0) && (k < lo || k >= hi) {
				return fmt.Errorf("btree: page %d key %d outside [%d,%d)", id, k, lo, hi)
			}
			if lvl > 0 {
				child, err := pg.WordAt(i)
				if err != nil {
					return fmt.Errorf("btree: internal page %d: %w", id, err)
				}
				childLo, childHi := k, hi
				if i+1 < n {
					if childHi, err = pg.KeyAt(i + 1); err != nil {
						return err
					}
				}
				cl := leftmost && i == 0
				if cl {
					childLo = math.MinInt64
				}
				children = append(children, childRef{id: child, lo: childLo, hi: childHi, left: cl})
			}
			prev = k
		}
		return nil
	})
	f.Release()
	if err != nil {
		return err
	}
	if lvl == 0 {
		*leaves = append(*leaves, id)
		return nil
	}
	if n == 0 {
		return fmt.Errorf("btree: empty internal page %d", id)
	}
	for _, c := range children {
		if err := t.validateNode(clk, c.id, c.lo, c.hi, lvl-1, c.left, leaves); err != nil {
			return err
		}
	}
	return nil
}

// Count returns the number of records via a full scan (test helper).
func (t *Tree) Count(clk *simclock.Clock) (int, error) {
	kvs, err := t.Scan(clk, math.MinInt64, math.MaxInt32)
	if err != nil {
		return 0, err
	}
	return len(kvs), nil
}

// Height reports the tree height (1 = root is a leaf).
func (t *Tree) Height(clk *simclock.Clock) (int, error) {
	rootID, err := t.rootID(clk)
	if err != nil {
		return 0, err
	}
	f, err := t.pool.Get(clk, rootID, buffer.Read)
	if err != nil {
		return 0, err
	}
	defer f.Release()
	lvl, err := level(f)
	return int(lvl) + 1, err
}
