package sharing

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simcpu"
	"polarcxlmem/internal/storage"
)

// Direct unit coverage for the fusion server's lock/unlock protocol paths
// (previously exercised only indirectly through Node workloads).

func TestFusionLockPathsOnUnknownPage(t *testing.T) {
	r := newRig(t, 4, 2, 16)
	const ghost = 12345
	cases := []struct {
		name string
		call func() error
	}{
		{"read-lock", func() error { return r.fusion.Lock(r.clk, "node-0", ghost, false) }},
		{"write-lock", func() error { return r.fusion.Lock(r.clk, "node-0", ghost, true) }},
		{"unlock-read", func() error { return r.fusion.UnlockRead(r.clk, "node-0", ghost) }},
		{"unlock-write", func() error { return r.fusion.UnlockWrite(r.clk, "node-0", ghost) }},
		{"unlock-write-clean", func() error { return r.fusion.unlockWriteClean(r.clk, "node-0", ghost) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if err == nil {
				t.Fatalf("%s on unknown page must fail", tc.name)
			}
			if !strings.Contains(err.Error(), fmt.Sprint(ghost)) {
				t.Fatalf("%s error should name the page: %v", tc.name, err)
			}
		})
	}
}

// flagWord reads one node's flag word for the page directly from CXL.
func flagWord(t *testing.T, r *rig, n *Node, pid uint64, removal bool) uint64 {
	t.Helper()
	m := n.meta[pid]
	if m == nil {
		t.Fatalf("node %s has no metadata for page %d", n.name, pid)
	}
	fa := n.flagOffsets(m.slot)
	off := fa.invalid
	if removal {
		off = fa.removal
	}
	v, err := n.dev.Load64Raw(off)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestUnlockWriteInvalidatesOnlyOtherNodes(t *testing.T) {
	r := newRig(t, 4, 3, 16)
	pid := r.seedPage(t, 0x01)
	// All three nodes register for the page.
	buf := make([]byte, 8)
	for _, n := range r.nodes {
		if err := n.Read(r.clk, pid, 4096, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.fusion.Lock(r.clk, "node-1", pid, true); err != nil {
		t.Fatal(err)
	}
	if err := r.fusion.UnlockWrite(r.clk, "node-1", pid); err != nil {
		t.Fatal(err)
	}
	for i, n := range r.nodes {
		want := uint64(1)
		if i == 1 { // the writer itself must NOT be invalidated
			want = 0
		}
		if got := flagWord(t, r, n, pid, false); got != want {
			t.Fatalf("node-%d invalid flag = %d, want %d", i, got, want)
		}
	}
	r.fusion.mu.Lock()
	dirty := r.fusion.pages[pid].dirty
	r.fusion.mu.Unlock()
	if !dirty {
		t.Fatal("write unlock must mark the page dirty")
	}
}

func TestUnlockWriteCleanSkipsInvalidation(t *testing.T) {
	r := newRig(t, 4, 2, 16)
	pid := r.seedPage(t, 0x01)
	buf := make([]byte, 8)
	for _, n := range r.nodes {
		if err := n.Read(r.clk, pid, 4096, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.fusion.Lock(r.clk, "node-0", pid, true); err != nil {
		t.Fatal(err)
	}
	if err := r.fusion.unlockWriteClean(r.clk, "node-0", pid); err != nil {
		t.Fatal(err)
	}
	for i, n := range r.nodes {
		if got := flagWord(t, r, n, pid, false); got != 0 {
			t.Fatalf("clean unlock set node-%d invalid flag (=%d)", i, got)
		}
	}
	r.fusion.mu.Lock()
	dirty := r.fusion.pages[pid].dirty
	r.fusion.mu.Unlock()
	if dirty {
		t.Fatal("clean unlock must not dirty the page")
	}
	// The lock is actually free again: a write lock succeeds immediately.
	if err := r.fusion.Lock(r.clk, "node-0", pid, true); err != nil {
		t.Fatal(err)
	}
	if err := r.fusion.unlockWriteClean(r.clk, "node-0", pid); err != nil {
		t.Fatal(err)
	}
}

func TestFlushDirtyBarrierOrdering(t *testing.T) {
	r := newRig(t, 4, 1, 16)
	pidA := r.seedPage(t, 0x10)
	pidB := r.seedPage(t, 0x20)
	n := r.nodes[0]
	if err := n.Write(r.clk, pidA, 4096, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	if err := n.Write(r.clk, pidB, 4096, []byte{0xBB}); err != nil {
		t.Fatal(err)
	}
	// The barrier must run BEFORE each storage write: at barrier time,
	// storage must still hold the pre-flush image of that page.
	img := make([]byte, page.Size)
	var barriers int
	preFlush := map[int]byte{0: 0x10, 1: 0x20} // pages flush in id order
	err := r.fusion.FlushDirty(r.clk, func(clk *simclock.Clock, lsn uint64) {
		pid := []uint64{pidA, pidB}[barriers]
		if err := r.store.ReadPage(clk, pid, img); err != nil {
			t.Fatalf("barrier %d: %v", barriers, err)
		}
		if img[4096] != preFlush[barriers] {
			t.Fatalf("barrier %d ran AFTER the storage write: byte %#x", barriers, img[4096])
		}
		barriers++
	})
	if err != nil {
		t.Fatal(err)
	}
	if barriers != 2 {
		t.Fatalf("barrier ran %d times, want once per dirty page", barriers)
	}
	// Storage now holds the updates, and both pages are clean: a second
	// FlushDirty must invoke no barriers at all.
	for i, pid := range []uint64{pidA, pidB} {
		if err := r.store.ReadPage(r.clk, pid, img); err != nil {
			t.Fatal(err)
		}
		want := []byte{0xAA, 0xBB}[i]
		if img[4096] != want {
			t.Fatalf("page %d not checkpointed: byte %#x, want %#x", pid, img[4096], want)
		}
	}
	if err := r.fusion.FlushDirty(r.clk, func(*simclock.Clock, uint64) {
		t.Fatal("barrier invoked with no dirty pages")
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameAllocENOSPCInjection(t *testing.T) {
	r := newRig(t, 8, 1, 16)
	p1 := r.seedPage(t, 1)
	p2 := r.seedPage(t, 2)
	n := r.nodes[0]

	plan := fault.NewPlan(1).FailAt(fault.OpFrameAlloc, 2, fault.ErrNoSpace)
	r.fusion.SetInjector(plan)
	buf := make([]byte, 8)
	if err := n.Read(r.clk, p1, 4096, buf); err != nil {
		t.Fatalf("alloc #1 must pass: %v", err)
	}
	err := n.Read(r.clk, p2, 4096, buf)
	if !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("alloc #2: want injected ENOSPC, got %v", err)
	}
	// State stays consistent: the failed page is not half-registered.
	if r.fusion.ResidentPages() != 1 {
		t.Fatalf("resident = %d after failed alloc, want 1", r.fusion.ResidentPages())
	}
	r.fusion.mu.Lock()
	_, ghost := r.fusion.pages[p2]
	r.fusion.mu.Unlock()
	if ghost {
		t.Fatal("failed allocation left page state behind")
	}
	// The failure is transient: the same read succeeds after the fault
	// clears (one-shot trigger), and the page is fully usable.
	plan.Disarm()
	if err := n.Read(r.clk, p2, 4096, buf); err != nil {
		t.Fatalf("retry after disarm: %v", err)
	}
	if buf[0] != 2 {
		t.Fatalf("retried page contents %#x", buf[0])
	}
	r.fusion.SetInjector(nil)
}

// pageDirty reports whether the fusion server holds pid dirty.
func pageDirty(f *Fusion, pid uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pages[pid].dirty
}

// failNextFlush makes the next Flush of c fail outright.
func failNextFlush(c *simcpu.Cache) {
	c.SetInjector(fault.NewPlan(1).FailAt(fault.OpFlushRange, 1, fault.ErrInjected))
}

// TestUpdateFailedInvalidCheckReleasesClean: a Write whose invalid-flag
// flush fails under its fresh write lock has changed nothing, so the lock
// is released clean: the page stays clean, no peer is invalidated, and the
// lock is free.
func TestUpdateFailedInvalidCheckReleasesClean(t *testing.T) {
	reg := obs.New(obs.Options{})
	r := buildRig(t, 4, 3, 16, nil, reg)
	pid := r.seedPage(t, 0x01)
	a, b, c := r.nodes[0], r.nodes[1], r.nodes[2]
	buf := make([]byte, 8)
	for _, n := range r.nodes {
		if err := n.Read(r.clk, pid, 4096, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Write(r.clk, pid, 4096, buf); err != nil { // sets a's and c's invalid flags
		t.Fatal(err)
	}
	if err := r.fusion.FlushDirty(r.clk, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(r.clk, pid, 4096, buf); err != nil { // c honours its flag
		t.Fatal(err)
	}
	sent := reg.Counter("sharing.invalidations").Value()
	failNextFlush(a.cache)
	if err := a.Write(r.clk, pid, 4096, buf); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("write with a failing invalid-flag flush: %v, want the injected failure", err)
	}
	if pageDirty(r.fusion, pid) {
		t.Fatal("a write that changed nothing left the page dirty")
	}
	if got := reg.Counter("sharing.invalidations").Value(); got != sent {
		t.Fatalf("a write that changed nothing sent %d invalidations", got-sent)
	}
	for _, n := range []*Node{b, c} {
		if got := flagWord(t, r, n, pid, false); got != 0 {
			t.Fatalf("%s invalid flag = %d after a write that changed nothing", n.name, got)
		}
	}
	if flagWord(t, r, a, pid, false) != 1 {
		t.Fatal("the failed check cleared the writer's own invalid flag")
	}
	if r.fusion.pages[pid].lk.holds(a.name) {
		t.Fatal("the failed write kept its write lock")
	}
}

// TestSharedLatchFailedInvalidCheckReleasesClean: a SharedPool write latch
// whose invalid-flag flush fails is released clean: the page stays clean
// and no peer is invalidated.
func TestSharedLatchFailedInvalidCheckReleasesClean(t *testing.T) {
	reg := obs.New(obs.Options{})
	clk := simclock.New()
	store := storage.New(storage.Config{})
	topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: 8*page.Size + 3<<17}, reg)
	dep, err := NewDeployment(clk, topo, "fusion", 8, store)
	if err != nil {
		t.Fatal(err)
	}
	var pools []*SharedPool
	for i := range 3 {
		p, err := dep.AttachPrimary(clk, fmt.Sprintf("p%d", i), 0, 1<<16, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		pools = append(pools, NewSharedPool(p.Name, dep.Fusion, p.Cache, p.Flags))
	}
	pid := store.AllocPageID()
	if err := store.WritePage(clk, pid, make([]byte, page.Size)); err != nil {
		t.Fatal(err)
	}
	visit := func(p *SharedPool, mode buffer.Mode, data []byte) error {
		f, err := p.Get(clk, pid, mode)
		if err != nil {
			return err
		}
		if data != nil {
			if err := writeAt(f, 4096, data); err != nil {
				t.Fatal(err)
			}
		}
		return f.Release()
	}
	for _, p := range pools {
		if err := visit(p, buffer.Read, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := visit(pools[1], buffer.Write, []byte{7}); err != nil { // invalidates p0 and p2
		t.Fatal(err)
	}
	if err := dep.Fusion.FlushDirty(clk, nil); err != nil {
		t.Fatal(err)
	}
	if err := visit(pools[2], buffer.Read, nil); err != nil { // p2 honours its flag
		t.Fatal(err)
	}
	sent := reg.Counter("sharing.invalidations").Value()
	failNextFlush(pools[0].n.cache)
	if err := visit(pools[0], buffer.Write, nil); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("write latch with a failing invalid-flag flush: %v, want the injected failure", err)
	}
	if pageDirty(dep.Fusion, pid) {
		t.Fatal("a write latch that changed nothing left the page dirty")
	}
	if got := reg.Counter("sharing.invalidations").Value(); got != sent {
		t.Fatalf("a write latch that changed nothing sent %d invalidations", got-sent)
	}
	if dep.Fusion.pages[pid].lk.holds("p0") {
		t.Fatal("the failed latch kept its write lock")
	}
}

// TestRDMALockAndBindFailedGetReleasesClean: an RDMA pool whose local copy
// cannot be made after it took the write lock (its one LBP frame is
// pinned) releases the lock clean: the page stays clean and the peer's
// copy is not invalidated.
func TestRDMALockAndBindFailedGetReleasesClean(t *testing.T) {
	clk := simclock.New()
	store := storage.New(storage.Config{})
	fusion := NewRDMAFusion(8, store)
	p0 := NewRDMASharedPool("p0", fusion, rdma.NewNIC("p0", 0, 0), 1, nil)
	p1 := NewRDMASharedPool("p1", fusion, rdma.NewNIC("p1", 0, 0), 4, nil)
	var ids [2]uint64
	for i := range ids {
		ids[i] = store.AllocPageID()
		if err := store.WritePage(clk, ids[i], make([]byte, page.Size)); err != nil {
			t.Fatal(err)
		}
	}
	pinned, target := ids[0], ids[1]
	f, err := p1.Get(clk, target, buffer.Read)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Release(); err != nil {
		t.Fatal(err)
	}
	held, err := p0.Get(clk, pinned, buffer.Read)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p0.Get(clk, target, buffer.Write); err == nil {
		t.Fatal("a write Get with every LBP frame pinned succeeded")
	}
	if pageDirty(fusion, target) {
		t.Fatal("a write Get that changed nothing left the page dirty")
	}
	if p1.Table().Lookup(target) == nil {
		t.Fatal("a write Get that changed nothing invalidated the peer's copy")
	}
	if fusion.pages[target].lk.holds("p0") {
		t.Fatal("the failed Get kept its write lock")
	}
	if err := held.Release(); err != nil {
		t.Fatal(err)
	}
}
