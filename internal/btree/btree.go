// Package btree implements the B+tree index the transaction engine stores
// tables in. It runs unchanged over every buffer pool in the repository —
// DRAM, tiered-RDMA, PolarCXLMem — because all page access goes through
// buffer.Visit, whose page.Page hides the pool's medium.
//
// Concurrency model: readers descend with latch coupling (child latched
// before parent released), writers serialize on a per-tree mutex and latch
// only the leaf for in-place DML; structure modification operations (SMOs)
// run as separate durable mini-transactions that write-latch the affected
// path top-down and split preemptively, so a DML retry after an SMO always
// fits. This mirrors the paper's description of SMO mini-transactions with
// two-phase page locking (§3.2) — and a crash anywhere inside an SMO leaves
// all touched pages write-locked in CXL metadata, which is exactly the
// signal PolarRecv uses to rebuild them from redo.
package btree

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/mtr"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/wal"
)

// ErrKeyNotFound reports a missing key.
var ErrKeyNotFound = errors.New("btree: key not found")

// KV is one record.
type KV struct {
	Key int64
	Val []byte
}

// Tree is a B+tree rooted under a meta page.
type Tree struct {
	pool   buffer.Pool
	log    *wal.Log
	ids    *mtr.IDGen
	metaID uint64

	wmu sync.Mutex // serializes writers (readers use latch coupling only)

	// hook, when set, aborts SMOs at named steps for crash-injection tests.
	hook func(step string) error
}

// Create builds an empty tree: a meta page whose Aux word holds the root
// id, and an empty leaf root. The creation is a durable mini-transaction.
func Create(clk *simclock.Clock, pool buffer.Pool, log *wal.Log, ids *mtr.IDGen) (*Tree, error) {
	m := mtr.Begin(clk, pool, log, ids.Next())
	meta, err := m.New()
	if err != nil {
		return nil, err
	}
	if err := m.InitPage(meta, page.TypeMeta, 0); err != nil {
		return nil, err
	}
	root, err := m.New()
	if err != nil {
		return nil, err
	}
	if err := m.InitPage(root, page.TypeLeaf, 0); err != nil {
		return nil, err
	}
	if err := m.SetAux(meta, root.ID()); err != nil {
		return nil, err
	}
	if err := m.Commit(true); err != nil {
		return nil, err
	}
	return &Tree{pool: pool, log: log, ids: ids, metaID: meta.ID()}, nil
}

// Open attaches to an existing tree by its meta page id.
func Open(clk *simclock.Clock, pool buffer.Pool, log *wal.Log, ids *mtr.IDGen, metaID uint64) (*Tree, error) {
	f, err := pool.Get(clk, metaID, buffer.Read)
	if err != nil {
		return nil, err
	}
	defer f.Release()
	var typ uint16
	err = buffer.Visit(f, func(pg page.Page) (err error) {
		typ, err = pg.Type()
		return err
	})
	if err != nil {
		return nil, err
	}
	if typ != page.TypeMeta {
		return nil, fmt.Errorf("btree: page %d is not a meta page (type %d)", metaID, typ)
	}
	return &Tree{pool: pool, log: log, ids: ids, metaID: metaID}, nil
}

// MetaID reports the tree's meta page id (catalog bootstrap).
func (t *Tree) MetaID() uint64 { return t.metaID }

// SetHook installs the SMO crash-injection hook (tests only).
func (t *Tree) SetHook(h func(step string) error) { t.hook = h }

func (t *Tree) step(name string) error {
	if t.hook != nil {
		return t.hook(name)
	}
	return nil
}

// rootID reads the current root id from the meta page.
func (t *Tree) rootID(clk *simclock.Clock) (uint64, error) {
	f, err := t.pool.Get(clk, t.metaID, buffer.Read)
	if err != nil {
		return 0, err
	}
	defer f.Release()
	return aux(f)
}

// aux reads f's Aux word (a meta page's root id) in one visit.
func aux(f buffer.Frame) (v uint64, err error) {
	err = buffer.Visit(f, func(pg page.Page) (err error) {
		v, err = pg.Aux()
		return err
	})
	return v, err
}

// level reads f's btree level in one visit.
func level(f buffer.Frame) (lvl uint16, err error) {
	err = buffer.Visit(f, func(pg page.Page) (err error) {
		lvl, err = pg.Level()
		return err
	})
	return lvl, err
}

// route runs childFor over internal page f in one visit.
func route(f buffer.Frame, key int64) (child uint64, entryKey int64, err error) {
	err = buffer.Visit(f, func(pg page.Page) (err error) {
		child, entryKey, err = childFor(pg, key)
		return err
	})
	return child, entryKey, err
}

// childFor routes key within an internal page: the entry with the largest
// key <= the search key; the leftmost entry doubles as -infinity. It also
// reports the chosen entry's key, which the routing has read.
func childFor(pg page.Page, key int64) (uint64, int64, error) {
	n, err := pg.NSlots()
	if err != nil {
		return 0, 0, err
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("btree: empty internal page")
	}
	i, ek, err := pg.LowerBoundPrev(key)
	if err != nil {
		return 0, 0, err
	}
	if i >= n {
		i = n - 1
	} else {
		k, err := pg.KeyAt(i)
		if err != nil {
			return 0, 0, err
		}
		if k == key || i == 0 {
			ek = k
		} else {
			i--
		}
	}
	child, err := pg.WordAt(i)
	return child, ek, err
}

// descendToLeaf latch-couples from the meta page through the root to the
// leaf responsible for key, returning the leaf frame latched in leafMode.
// The meta page stays latched until the root is: a root split between
// reading the root id and latching the root would leave the old root
// covering only part of the key range.
func (t *Tree) descendToLeaf(clk *simclock.Clock, key int64, leafMode buffer.Mode) (buffer.Frame, error) {
	parent, err := t.pool.Get(clk, t.metaID, buffer.Read)
	if err != nil {
		return buffer.Frame{}, err
	}
	id, err := aux(parent)
	if err != nil {
		parent.Release()
		return buffer.Frame{}, err
	}
	defer func() {
		if parent.Entry() != nil {
			parent.Release()
		}
	}()
	for {
		// Peek at the level with a read latch first.
		f, err := t.pool.Get(clk, id, buffer.Read)
		if err != nil {
			return buffer.Frame{}, err
		}
		// One visit reads the level and, on an internal page, routes.
		var lvl uint16
		var next uint64
		err = buffer.Visit(f, func(pg page.Page) error {
			var err error
			if lvl, err = pg.Level(); err != nil || lvl == 0 {
				return err
			}
			next, _, err = childFor(pg, key)
			return err
		})
		if err != nil {
			f.Release()
			return buffer.Frame{}, err
		}
		if lvl == 0 {
			if leafMode == buffer.Write {
				// Re-latch the leaf in write mode. Writers hold t.wmu, so
				// no SMO can move the key range in the gap.
				f.Release()
				if parent.Entry() != nil {
					parent.Release()
				}
				return t.pool.Get(clk, id, buffer.Write)
			}
			if parent.Entry() != nil {
				parent.Release()
			}
			return f, nil
		}
		if parent.Entry() != nil {
			parent.Release()
		}
		parent = f
		id = next
	}
}

// Get returns the value stored under key.
func (t *Tree) Get(clk *simclock.Clock, key int64) ([]byte, error) {
	leaf, err := t.descendToLeaf(clk, key, buffer.Read)
	if err != nil {
		return nil, err
	}
	defer leaf.Release()
	v, err := findIn(leaf, key)
	if errors.Is(err, page.ErrNotFound) {
		return nil, ErrKeyNotFound
	}
	return v, err
}

// Scan returns up to limit records with key >= from, in key order, walking
// the leaf sibling chain with latch coupling.
func (t *Tree) Scan(clk *simclock.Clock, from int64, limit int) ([]KV, error) {
	if limit <= 0 {
		return nil, nil
	}
	leaf, err := t.descendToLeaf(clk, from, buffer.Read)
	if err != nil {
		return nil, err
	}
	out := make([]KV, 0, min(limit, 1024))
	for {
		// One visit per leaf: its qualifying records, then, if the limit
		// is not reached, its right sibling.
		var sib uint64
		err := buffer.Visit(leaf, func(pg page.Page) error {
			start, err := pg.LowerBound(from)
			if err != nil {
				return err
			}
			n, err := pg.NSlots()
			if err != nil {
				return err
			}
			// The leaf's values share one buffer, sized from the first
			// one for the records the scan can still take here.
			var vals []byte
			for i := start; i < n && len(out) < limit; i++ {
				k, err := pg.KeyAt(i)
				if err != nil {
					return err
				}
				m := len(vals)
				if vals, err = pg.ValAt(i, vals); err != nil {
					return err
				}
				if m == 0 {
					vals = slices.Grow(vals, len(vals)*min(limit-len(out)-1, n-i-1))
				}
				out = append(out, KV{Key: k, Val: vals[m:len(vals):len(vals)]})
			}
			if len(out) >= limit {
				return nil
			}
			sib, err = pg.RightSibling()
			return err
		})
		if err != nil {
			leaf.Release()
			return nil, err
		}
		if len(out) >= limit || sib == 0 {
			leaf.Release()
			return out, nil
		}
		next, err := t.pool.Get(clk, sib, buffer.Read)
		leaf.Release()
		if err != nil {
			return nil, err
		}
		leaf = next
		from = int64(-1 << 63) // everything in subsequent leaves qualifies
	}
}
