package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/mtr"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/wal"
)

type env struct {
	pool  buffer.Pool
	log   *wal.Log
	ids   *mtr.IDGen
	clk   *simclock.Clock
	store *storage.Store
}

func newEnv(t *testing.T, capacityPages int) *env {
	t.Helper()
	store := storage.New(storage.Config{})
	return &env{
		pool:  buffer.NewDRAMPool(store, capacityPages, cxl.DRAMProfile(), nil),
		log:   wal.Attach(wal.NewStore(0, 0)),
		ids:   &mtr.IDGen{},
		clk:   simclock.New(),
		store: store,
	}
}

func (e *env) tree(t *testing.T) *Tree {
	t.Helper()
	tr, err := Create(e.clk, e.pool, e.log, e.ids)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func val(k int64) []byte { return []byte(fmt.Sprintf("value-of-%08d", k)) }

func TestInsertGetSmall(t *testing.T) {
	e := newEnv(t, 64)
	tr := e.tree(t)
	for k := int64(0); k < 50; k++ {
		if err := tr.Insert(e.clk, e.ids.Next(), k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(0); k < 50; k++ {
		v, err := tr.Get(e.clk, k)
		if err != nil || !bytes.Equal(v, val(k)) {
			t.Fatalf("Get(%d) = %q, %v", k, v, err)
		}
	}
	if _, err := tr.Get(e.clk, 999); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("missing key err = %v", err)
	}
	if h, _ := tr.Height(e.clk); h != 1 {
		t.Fatalf("height = %d, want 1 (50 small records fit in one leaf)", h)
	}
	if err := tr.Validate(e.clk); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateInsert(t *testing.T) {
	e := newEnv(t, 64)
	tr := e.tree(t)
	if err := tr.Insert(e.clk, 1, 7, val(7)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(e.clk, 2, 7, val(7)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate err = %v", err)
	}
}

func TestSplitsAndHeightGrowth(t *testing.T) {
	e := newEnv(t, 512)
	tr := e.tree(t)
	const n = 3000 // ~24B values; a 16KB leaf holds ~600, forces splits
	for k := int64(0); k < n; k++ {
		if err := tr.Insert(e.clk, e.ids.Next(), k, val(k)); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	h, err := tr.Height(e.clk)
	if err != nil {
		t.Fatal(err)
	}
	if h < 2 {
		t.Fatalf("height = %d after %d inserts; splits never happened", h, n)
	}
	if err := tr.Validate(e.clk); err != nil {
		t.Fatal(err)
	}
	cnt, err := tr.Count(e.clk)
	if err != nil || cnt != n {
		t.Fatalf("count = %d, %v", cnt, err)
	}
	// Spot-check across the key space.
	for _, k := range []int64{0, 1, n / 3, n / 2, n - 2, n - 1} {
		v, err := tr.Get(e.clk, k)
		if err != nil || !bytes.Equal(v, val(k)) {
			t.Fatalf("Get(%d) after splits = %q, %v", k, v, err)
		}
	}
}

func TestRandomOrderInsert(t *testing.T) {
	e := newEnv(t, 512)
	tr := e.tree(t)
	rng := rand.New(rand.NewSource(42))
	keys := rng.Perm(2000)
	for _, k := range keys {
		if err := tr.Insert(e.clk, e.ids.Next(), int64(k), val(int64(k))); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	if err := tr.Validate(e.clk); err != nil {
		t.Fatal(err)
	}
	kvs, err := tr.Scan(e.clk, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2000 {
		t.Fatalf("scan found %d", len(kvs))
	}
	for i, kv := range kvs {
		if kv.Key != int64(i) {
			t.Fatalf("scan[%d] = key %d", i, kv.Key)
		}
	}
}

func TestUpdateAndDelete(t *testing.T) {
	e := newEnv(t, 256)
	tr := e.tree(t)
	for k := int64(0); k < 1000; k++ {
		if err := tr.Insert(e.clk, e.ids.Next(), k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	old, err := tr.UpdateReturningOld(e.clk, e.ids.Next(), 500, []byte("new-value"))
	if err != nil || !bytes.Equal(old, val(500)) {
		t.Fatalf("update old = %q, %v", old, err)
	}
	v, _ := tr.Get(e.clk, 500)
	if string(v) != "new-value" {
		t.Fatalf("after update: %q", v)
	}
	dOld, err := tr.DeleteReturningOld(e.clk, e.ids.Next(), 501)
	if err != nil || !bytes.Equal(dOld, val(501)) {
		t.Fatalf("delete old = %q, %v", dOld, err)
	}
	if _, err := tr.Get(e.clk, 501); !errors.Is(err, ErrKeyNotFound) {
		t.Fatal("deleted key still present")
	}
	if err := tr.Update(e.clk, e.ids.Next(), 99999, []byte("x")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("update missing = %v", err)
	}
	if err := tr.Delete(e.clk, e.ids.Next(), 99999); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("delete missing = %v", err)
	}
	if err := tr.Validate(e.clk); err != nil {
		t.Fatal(err)
	}
}

func TestScanRange(t *testing.T) {
	e := newEnv(t, 512)
	tr := e.tree(t)
	for k := int64(0); k < 2000; k += 2 { // even keys only
		if err := tr.Insert(e.clk, e.ids.Next(), k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := tr.Scan(e.clk, 501, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 100 {
		t.Fatalf("scan returned %d", len(kvs))
	}
	if kvs[0].Key != 502 {
		t.Fatalf("scan start = %d, want 502", kvs[0].Key)
	}
	for i := 1; i < len(kvs); i++ {
		if kvs[i].Key != kvs[i-1].Key+2 {
			t.Fatalf("scan gap at %d", i)
		}
	}
	// Scan beyond the end.
	tail, err := tr.Scan(e.clk, 1990, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 4 { // 1990, 1992, ..., 1998 -> wait: 1990..1998 even = 5
		if len(tail) != 5 {
			t.Fatalf("tail scan = %d records", len(tail))
		}
	}
	if _, err := tr.Scan(e.clk, 0, 0); err != nil {
		t.Fatal("zero-limit scan errored")
	}
}

func TestUpdateWithGrowingValuesForcesSplits(t *testing.T) {
	e := newEnv(t, 512)
	tr := e.tree(t)
	for k := int64(0); k < 400; k++ {
		if err := tr.Insert(e.clk, e.ids.Next(), k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	big := make([]byte, 300)
	for k := int64(0); k < 400; k++ {
		if err := tr.Update(e.clk, e.ids.Next(), k, big); err != nil {
			t.Fatalf("growing update %d: %v", k, err)
		}
	}
	if err := tr.Validate(e.clk); err != nil {
		t.Fatal(err)
	}
	cnt, _ := tr.Count(e.clk)
	if cnt != 400 {
		t.Fatalf("count after growth = %d", cnt)
	}
}

func TestTreeModelProperty(t *testing.T) {
	// Property: the tree behaves as a sorted map under mixed random ops,
	// validated structurally every few hundred operations.
	e := newEnv(t, 1024)
	tr := e.tree(t)
	model := map[int64][]byte{}
	rng := rand.New(rand.NewSource(99))
	for op := 0; op < 4000; op++ {
		k := int64(rng.Intn(1500))
		switch rng.Intn(4) {
		case 0, 1: // insert
			v := make([]byte, 10+rng.Intn(60))
			rng.Read(v)
			err := tr.Insert(e.clk, e.ids.Next(), k, v)
			if _, exists := model[k]; exists {
				if !errors.Is(err, ErrDuplicateKey) {
					t.Fatalf("op %d: duplicate insert err = %v", op, err)
				}
			} else {
				if err != nil {
					t.Fatalf("op %d: insert: %v", op, err)
				}
				model[k] = v
			}
		case 2: // update
			v := make([]byte, 10+rng.Intn(60))
			rng.Read(v)
			err := tr.Update(e.clk, e.ids.Next(), k, v)
			if _, exists := model[k]; exists {
				if err != nil {
					t.Fatalf("op %d: update: %v", op, err)
				}
				model[k] = v
			} else if !errors.Is(err, ErrKeyNotFound) {
				t.Fatalf("op %d: update missing err = %v", op, err)
			}
		case 3: // delete
			err := tr.Delete(e.clk, e.ids.Next(), k)
			if _, exists := model[k]; exists {
				if err != nil {
					t.Fatalf("op %d: delete: %v", op, err)
				}
				delete(model, k)
			} else if !errors.Is(err, ErrKeyNotFound) {
				t.Fatalf("op %d: delete missing err = %v", op, err)
			}
		}
		if op%500 == 499 {
			if err := tr.Validate(e.clk); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	// Final full comparison.
	cnt, err := tr.Count(e.clk)
	if err != nil || cnt != len(model) {
		t.Fatalf("count = %d, model %d (%v)", cnt, len(model), err)
	}
	for k, want := range model {
		got, err := tr.Get(e.clk, k)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%d) = %q, want %q (%v)", k, got, want, err)
		}
	}
}

func TestOpenExistingTree(t *testing.T) {
	e := newEnv(t, 64)
	tr := e.tree(t)
	tr.Insert(e.clk, 1, 5, val(5))
	tr2, err := Open(e.clk, e.pool, e.log, e.ids, tr.MetaID())
	if err != nil {
		t.Fatal(err)
	}
	v, err := tr2.Get(e.clk, 5)
	if err != nil || !bytes.Equal(v, val(5)) {
		t.Fatalf("reopened tree Get = %q, %v", v, err)
	}
	// Opening a non-meta page must fail.
	if _, err := Open(e.clk, e.pool, e.log, e.ids, tr.MetaID()+1); err == nil {
		t.Fatal("opened a non-meta page as a tree")
	}
}

func TestSMOAbortReleasesLatches(t *testing.T) {
	e := newEnv(t, 512)
	tr := e.tree(t)
	for k := int64(0); k < 700; k++ {
		if err := tr.Insert(e.clk, e.ids.Next(), k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("injected")
	tr.SetHook(func(step string) error {
		if step == "smo-before-commit" {
			return boom
		}
		return nil
	})
	// Drive inserts until one triggers an SMO, which aborts.
	var err error
	for k := int64(10000); k < 12000; k++ {
		if err = tr.Insert(e.clk, e.ids.Next(), k, val(k)); err != nil {
			break
		}
	}
	if !errors.Is(err, boom) {
		t.Fatalf("SMO hook never fired: %v", err)
	}
	tr.SetHook(nil)
	// All latches must have been released: further ops proceed.
	if err := tr.Insert(e.clk, e.ids.Next(), 999999, val(999999)); err != nil {
		t.Fatalf("tree wedged after aborted SMO: %v", err)
	}
}

func TestUndoApply(t *testing.T) {
	e := newEnv(t, 64)
	tr := e.tree(t)
	if err := tr.Insert(e.clk, e.ids.Next(), 1, []byte("orig")); err != nil {
		t.Fatal(err)
	}
	// Undo of an insert deletes; of an update restores; of a delete
	// reinserts.
	if err := (Undo{Tree: tr, Kind: wal.KInsert, Key: 1}).Apply(e.clk, e.ids.Next()); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Get(e.clk, 1); !errors.Is(err, ErrKeyNotFound) {
		t.Fatal("undo-insert did not delete")
	}
	if err := (Undo{Tree: tr, Kind: wal.KDelete, Key: 1, Old: []byte("orig")}).Apply(e.clk, e.ids.Next()); err != nil {
		t.Fatal(err)
	}
	v, err := tr.Get(e.clk, 1)
	if err != nil || string(v) != "orig" {
		t.Fatalf("undo-delete: %q, %v", v, err)
	}
	if err := (Undo{Tree: tr, Kind: wal.KUpdate, Key: 1, Old: []byte("prev")}).Apply(e.clk, e.ids.Next()); err != nil {
		t.Fatal(err)
	}
	v, _ = tr.Get(e.clk, 1)
	if string(v) != "prev" {
		t.Fatalf("undo-update: %q", v)
	}
	// Non-DML kinds cannot be undone.
	if err := (Undo{Tree: tr, Kind: wal.KPageInit}).Apply(e.clk, e.ids.Next()); err == nil {
		t.Fatal("undo of a structure record accepted")
	}
}

// TestInsertBelowLeftmostSeparator inserts keys below every key already in
// the tree, so they pile into the leftmost leaf under an entry whose key
// exceeds theirs, and that leaf, and later its parent, split with
// separators below the entry's key. No key may be stranded by a split.
func TestInsertBelowLeftmostSeparator(t *testing.T) {
	e := newEnv(t, 4096)
	tr := e.tree(t)
	// Big values keep leaves small, so the leftmost internal page fills
	// and splits too.
	big := func(k int64) []byte { return bytes.Repeat(val(k), 60) }
	for k := int64(100_000); k < 100_080; k++ {
		if err := tr.Insert(e.clk, e.ids.Next(), k, big(k)); err != nil {
			t.Fatal(err)
		}
	}
	const below = 8000
	for k := int64(below - 1); k >= 0; k-- {
		if err := tr.Insert(e.clk, e.ids.Next(), k, big(k)); err != nil {
			t.Fatal(err)
		}
	}
	if h, err := tr.Height(e.clk); err != nil || h < 3 {
		t.Fatalf("Height = %d, %v; want internal pages that split", h, err)
	}
	if err := tr.Validate(e.clk); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < below; k++ {
		if v, err := tr.Get(e.clk, k); err != nil || !bytes.Equal(v, big(k)) {
			t.Fatalf("Get(%d) = %q, %v", k, v, err)
		}
	}
	if n, err := tr.Count(e.clk); err != nil || n != below+80 {
		t.Fatalf("Count = %d, %v; want %d", n, err, below+80)
	}
}
