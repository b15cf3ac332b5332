package core

import (
	"errors"
	"sync"
	"testing"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/tier"
)

// enableTiering arms the rig's pool with a fast tier and returns the heat
// map feeding it.
func (r *rig) enableTiering() *tier.Heat {
	h := tier.NewHeat(0)
	r.pool.EnableTiering(h, cxl.BufferDRAMProfile())
	return h
}

// getRelease faults id in (making it resident) and releases the latch.
func (r *rig) getRelease(t *testing.T, id uint64) {
	t.Helper()
	f, err := r.pool.Get(r.clk, id, buffer.Read)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestPromoteServesReadsFromMirror(t *testing.T) {
	r := newRig(t, 8)
	r.enableTiering()
	id := r.seed(t, 1, "mirrored")
	r.getRelease(t, id)

	ok, err := r.pool.Promote(r.clk, id)
	if err != nil || !ok {
		t.Fatalf("Promote = %v, %v, want true", ok, err)
	}
	if got := r.pool.FastResident(); got != 1 {
		t.Fatalf("FastResident = %d, want 1", got)
	}
	f, err := r.pool.Get(r.clk, id, buffer.Read)
	if err != nil {
		t.Fatal(err)
	}
	v, err := findVal(f, 1)
	if err != nil || string(v) != "mirrored" {
		t.Fatalf("mirror read = %q, %v", v, err)
	}
	f.Release()
	if hits := r.pool.FastHits(); hits == 0 {
		t.Fatal("read under read latch did not hit the fast tier")
	}
	// Idempotence: promoting a promoted page is a no-move.
	if ok, err := r.pool.Promote(r.clk, id); err != nil || ok {
		t.Fatalf("re-Promote = %v, %v, want false, nil", ok, err)
	}
}

func TestPromoteSkipsPinnedAndAbsentPages(t *testing.T) {
	r := newRig(t, 8)
	r.enableTiering()
	id := r.seed(t, 1, "pinned")

	// Absent: promotion must not fault the page in.
	if ok, err := r.pool.Promote(r.clk, id); err != nil || ok {
		t.Fatalf("Promote of absent page = %v, %v, want false, nil", ok, err)
	}
	if r.pool.Resident() != 0 {
		t.Fatal("Promote faulted a page in")
	}

	// Write-latched: skipped without blocking.
	f, err := r.pool.Get(r.clk, id, buffer.Write)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := r.pool.Promote(r.clk, id); err != nil || ok {
		t.Fatalf("Promote of write-latched page = %v, %v, want false, nil", ok, err)
	}
	if err := f.Release(); err != nil {
		t.Fatal(err)
	}

	// Released (pin-free, latch-free): promotion goes through.
	if ok, err := r.pool.Promote(r.clk, id); err != nil || !ok {
		t.Fatalf("Promote after release = %v, %v, want true", ok, err)
	}
}

func TestWriteLatchInvalidatesMirrorBeforeModification(t *testing.T) {
	r := newRig(t, 8)
	r.enableTiering()
	id := r.seed(t, 1, "aaaa")
	r.getRelease(t, id)
	if ok, err := r.pool.Promote(r.clk, id); err != nil || !ok {
		t.Fatalf("Promote = %v, %v", ok, err)
	}

	f, err := r.pool.Get(r.clk, id, buffer.Write)
	if err != nil {
		t.Fatal(err)
	}
	// The WriteLatched hook fired during Get: the mirror must already be
	// gone, before any modification happened.
	if r.pool.FastResident() != 0 {
		t.Fatal("mirror survived write-latch acquisition")
	}
	if err := updateVal(f, 1, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	f.MarkDirty()
	if err := f.Release(); err != nil {
		t.Fatal(err)
	}
	// No stale serve: the next read sees the new bytes.
	g, err := r.pool.Get(r.clk, id, buffer.Read)
	if err != nil {
		t.Fatal(err)
	}
	v, err := findVal(g, 1)
	if err != nil || string(v) != "bbbb" {
		t.Fatalf("read after write = %q, %v, want bbbb", v, err)
	}
	g.Release()
}

func TestEvictionDemotesMirrorFirst(t *testing.T) {
	reg := obs.New(obs.Options{})
	tc := obs.NewTierChecker()
	reg.AddChecker(tc)

	r := newObservedRig(t, 2, reg)
	r.enableTiering()
	a := r.seed(t, 1, "one1")
	r.getRelease(t, a)
	if ok, err := r.pool.Promote(r.clk, a); err != nil || !ok {
		t.Fatalf("Promote = %v, %v", ok, err)
	}

	// Fill both blocks plus one: a's CXL home is evicted; the mirror must
	// go first (TierChecker flags an orphaned mirror otherwise).
	for _, k := range []int64{2, 3} {
		id := r.seed(t, k, "fill")
		r.getRelease(t, id)
	}
	if r.pool.FastResident() != 0 {
		t.Fatal("mirror outlived its evicted CXL home")
	}
	if vs := tc.Finish(); len(vs) != 0 {
		t.Fatalf("tier checker violations: %+v", vs)
	}
}

func TestDemotionRacesEvictionUnderLoad(t *testing.T) {
	// -race exercise: a placement daemon promoting/demoting against a reader
	// whose misses continuously evict. Each actor has its own clock, like
	// concurrent committers.
	r := newRig(t, 4)
	r.enableTiering()
	ids := make([]uint64, 8)
	for i := range ids {
		ids[i] = r.seed(t, int64(i+1), "racy")
	}
	var wg sync.WaitGroup
	wg.Add(2)
	errc := make(chan error, 2)
	go func() {
		defer wg.Done()
		clk := simclock.New()
		for i := 0; i < 400; i++ {
			id := ids[i%len(ids)]
			if _, err := r.pool.Promote(clk, id); err != nil {
				errc <- err
				return
			}
			if i%3 == 0 {
				r.pool.Demote(clk, id, tier.DemoteCold)
			}
		}
	}()
	go func() {
		defer wg.Done()
		clk := simclock.New()
		for i := 0; i < 400; i++ {
			f, err := r.pool.Get(clk, ids[(i*5)%len(ids)], buffer.Read)
			if err != nil {
				errc <- err
				return
			}
			if err := f.Release(); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// Inclusive invariant after the dust settles: every mirror has a
	// resident CXL home.
	for _, id := range r.pool.Promoted() {
		if err := rawPage(r.pool, id, make([]byte, page.Size)); err != nil {
			t.Fatalf("mirror for non-resident page %d: %v", id, err)
		}
	}
}

func TestQuotaBoundaryExactness(t *testing.T) {
	r := newRig(t, 8)
	if err := r.pool.SetBlockQuota(r.clk, 4); err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, 6)
	for i := range ids {
		ids[i] = r.seed(t, int64(i+1), "quota")
	}
	// Exactly at quota: 4 residents, no eviction yet.
	for _, id := range ids[:4] {
		r.getRelease(t, id)
	}
	if got := r.pool.Resident(); got != 4 {
		t.Fatalf("resident at quota = %d, want 4", got)
	}
	if n := r.pool.Stats().Evictions; n != 0 {
		t.Fatalf("evictions before crossing quota = %d, want 0", n)
	}
	// One past quota: the pool must evict even though 4 physical blocks are
	// still free (the carve is bigger than the allotment).
	r.getRelease(t, ids[4])
	if got := r.pool.Resident(); got != 4 {
		t.Fatalf("resident past quota = %d, want 4", got)
	}
	if n := r.pool.Stats().Evictions; n != 1 {
		t.Fatalf("evictions after crossing quota = %d, want 1", n)
	}
	if got := r.pool.BlockQuota(); got != 4 {
		t.Fatalf("BlockQuota = %d, want 4", got)
	}
}

func TestResizeSmallerEvictsOverflowAndKeepsData(t *testing.T) {
	r := newRig(t, 8)
	ids := make([]uint64, 6)
	for i := range ids {
		ids[i] = r.seed(t, int64(i+1), "old!")
	}
	// Dirty one page so the shrink has to flush it on the way out.
	f, err := r.pool.Get(r.clk, ids[0], buffer.Write)
	if err != nil {
		t.Fatal(err)
	}
	if err := updateVal(f, 1, []byte("new!")); err != nil {
		t.Fatal(err)
	}
	f.MarkDirty()
	f.Release()
	for _, id := range ids[1:] {
		r.getRelease(t, id)
	}
	if got := r.pool.Resident(); got != 6 {
		t.Fatalf("resident = %d, want 6", got)
	}
	if err := r.pool.SetBlockQuota(r.clk, 2); err != nil {
		t.Fatal(err)
	}
	if got := r.pool.Resident(); got != 2 {
		t.Fatalf("resident after shrink = %d, want 2", got)
	}
	// Nothing lost: every page reads back, including the dirty victim.
	for i, id := range ids {
		g, err := r.pool.Get(r.clk, id, buffer.Read)
		if err != nil {
			t.Fatal(err)
		}
		exp := "old!"
		if i == 0 {
			exp = "new!"
		}
		if v, err := findVal(g, int64(i+1)); err != nil || string(v) != exp {
			t.Fatalf("page %d after shrink = %q, %v, want %q", id, v, err, exp)
		}
		g.Release()
	}
}

func TestResizeSmallerFailsOnPinnedOverflow(t *testing.T) {
	r := newRig(t, 4)
	var frames []buffer.Frame
	for i := int64(1); i <= 3; i++ {
		id := r.seed(t, i, "pin!")
		f, err := r.pool.Get(r.clk, id, buffer.Read)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if err := r.pool.SetBlockQuota(r.clk, 1); err == nil {
		t.Fatal("shrink below an all-pinned resident set succeeded")
	}
	for _, f := range frames {
		f.Release()
	}
	if err := r.pool.SetBlockQuota(r.clk, 1); err != nil {
		t.Fatalf("shrink after unpin: %v", err)
	}
	if got := r.pool.Resident(); got != 1 {
		t.Fatalf("resident = %d, want 1", got)
	}
}

func TestCrashMidPromotionCXLCopyWins(t *testing.T) {
	r := newRig(t, 8)
	r.enableTiering()
	id := r.seed(t, 1, "home")
	r.getRelease(t, id)

	// Fault the staging copy: the promotion dies between the CXL read and
	// the mirror install.
	boom := errors.New("host crashed mid-migration")
	r.pool.SetHook(func(step string) error {
		if step == "tier-promote-staged" {
			return boom
		}
		return nil
	})
	if _, err := r.pool.Promote(r.clk, id); !errors.Is(err, boom) {
		t.Fatalf("Promote err = %v, want boom", err)
	}
	r.pool.SetHook(nil)
	if r.pool.FastResident() != 0 {
		t.Fatal("half-promoted mirror installed")
	}

	// Crash the host outright and reattach: the CXL durable copy wins — the
	// page is intact, no trace of the aborted migration.
	r.pool.Crash()
	clk2 := simclock.New()
	pool2, rep, err := Open(clk2, r.host, r.pool.Region(), r.host.NewCache("db0", 1<<20), r.store)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Blocks) != 1 || rep.Blocks[0].PageID != id {
		t.Fatalf("scan report blocks = %+v, want just page %d", rep.Blocks, id)
	}
	g, err := pool2.Get(clk2, id, buffer.Read)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := findVal(g, 1); err != nil || string(v) != "home" {
		t.Fatalf("page after crash = %q, %v, want home", v, err)
	}
	g.Release()
	if pool2.TieringEnabled() {
		t.Fatal("fast tier survived a host crash")
	}
}
