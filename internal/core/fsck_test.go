package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/simclock"
)

func TestFsckCleanPool(t *testing.T) {
	r := newRig(t, 16)
	for i := 0; i < 6; i++ {
		id := r.seed(t, int64(i), fmt.Sprintf("v%d", i))
		f, err := r.pool.Get(r.clk, id, buffer.Read)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	rep := r.pool.Fsck()
	if !rep.OK() {
		t.Fatalf("clean pool failed fsck: %v", rep.Problems)
	}
	if rep.InUse != 6 || rep.Free != 10 {
		t.Fatalf("accounting: %+v", rep)
	}
	if len(rep.LockedPages) != 0 {
		t.Fatalf("locked pages on a quiesced pool: %v", rep.LockedPages)
	}
}

func TestFsckAfterChurn(t *testing.T) {
	// Heavy get/update/evict churn must always leave a structurally valid
	// pool.
	r := newRig(t, 6)
	ids := make([]uint64, 20)
	for i := range ids {
		ids[i] = r.seed(t, 1, fmt.Sprintf("val-%02d", i))
	}
	rng := rand.New(rand.NewSource(5))
	for op := 0; op < 300; op++ {
		id := ids[rng.Intn(len(ids))]
		mode := buffer.Read
		if rng.Intn(3) == 0 {
			mode = buffer.Write
		}
		f, err := r.pool.Get(r.clk, id, mode)
		if err != nil {
			t.Fatal(err)
		}
		if mode == buffer.Write {
			updateVal(f, 1, []byte(fmt.Sprintf("upd-%03d", op)))
			f.MarkDirty()
		}
		f.Release()
	}
	rep := r.pool.Fsck()
	if !rep.OK() {
		t.Fatalf("post-churn fsck: %v", rep.Problems)
	}
}

func TestFsckDetectsLockedPages(t *testing.T) {
	r := newRig(t, 8)
	id := r.seed(t, 1, "x")
	f, err := r.pool.Get(r.clk, id, buffer.Write)
	if err != nil {
		t.Fatal(err)
	}
	rep := r.pool.Fsck()
	if len(rep.LockedPages) != 1 || rep.LockedPages[0] != id {
		t.Fatalf("locked pages = %v", rep.LockedPages)
	}
	f.Release()
	if rep := r.pool.Fsck(); len(rep.LockedPages) != 0 {
		t.Fatal("lock word not cleared on release")
	}
}

func TestFsckDetectsCorruption(t *testing.T) {
	r := newRig(t, 8)
	id := r.seed(t, 1, "x")
	f, _ := r.pool.Get(r.clk, id, buffer.Read)
	f.Release()

	// Corrupt the in-use count.
	if err := r.pool.Region().Store64Raw(hInuseCount, 99); err != nil {
		t.Fatal(err)
	}
	rep := r.pool.Fsck()
	if rep.OK() {
		t.Fatal("fsck missed a corrupted in-use count")
	}
	found := false
	for _, p := range rep.Problems {
		if strings.Contains(p, "count") {
			found = true
		}
	}
	if !found {
		t.Fatalf("problems: %v", rep.Problems)
	}
}

func TestFsckDetectsCrashResidueAndRecoveryClearsIt(t *testing.T) {
	r := newRig(t, 8)
	ids := make([]uint64, 4)
	for i := range ids {
		ids[i] = r.seed(t, int64(i), "v")
		f, _ := r.pool.Get(r.clk, ids[i], buffer.Read)
		f.Release()
	}
	// Abort mid-splice, as in the pool tests.
	boom := errors.New("crash")
	r.pool.SetHook(func(step string) error {
		if step == "lru-mid-splice" {
			return boom
		}
		return nil
	})
	var err error
	for i := 0; i < 40 && err == nil; i++ {
		var f buffer.Frame
		f, err = r.pool.Get(r.clk, ids[i%4], buffer.Read)
		if err == nil {
			f.Release()
		}
	}
	if !errors.Is(err, boom) {
		t.Fatalf("hook never fired: %v", err)
	}
	if rep := r.pool.Fsck(); rep.OK() {
		t.Fatal("fsck passed a pool with a torn LRU splice")
	}
	// Recovery (core.Open) must leave an fsck-clean pool.
	r.pool.Crash()
	host2 := r.reconnect(t)
	clk2 := simclock.NewAt(r.clk.Now())
	region2, err := host2.Reattach(clk2, "db0")
	if err != nil {
		t.Fatal(err)
	}
	pool2, _, err := Open(clk2, host2, region2, host2.NewCache("db0", 1<<20), r.store)
	if err != nil {
		t.Fatal(err)
	}
	if rep := pool2.Fsck(); !rep.OK() {
		t.Fatalf("post-recovery fsck: %v", rep.Problems)
	}
}
