package sharing

import (
	"bytes"
	"strings"
	"testing"

	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/page"
)

// Broken fixtures: every trace checker must provably fire on a protocol
// stream that really violates its invariant. The clean-run counterparts (the
// conformance suite and the RPC sweep) assert zero violations; these tests
// are the other half — a checker nobody can trip checks nothing.

// newWatchedRig is newRig reporting into a fresh registry with one checker;
// finish collects the checker's violations.
func newWatchedRig(t *testing.T, dbpPages, nnodes, slots int, c obs.Checker) (r *rig, finish func() []obs.Violation) {
	t.Helper()
	reg := obs.New(obs.Options{})
	reg.AddChecker(c)
	return buildRig(t, dbpPages, nnodes, slots, nil, reg), reg.Finish
}

func hasViolation(vs []obs.Violation, substr string) bool {
	for _, v := range vs {
		if strings.Contains(v.Detail, substr) {
			return true
		}
	}
	return false
}

// TestStaleReadCheckerFiresOnDisabledCoherency: a node that ignores its
// invalid flag and reads its cached copy anyway must be called out — this is
// the DisableCoherency negative control seen through the trace stream.
func TestStaleReadCheckerFiresOnDisabledCoherency(t *testing.T) {
	r, finish := newWatchedRig(t, 8, 2, 16, obs.NewStaleReadChecker())
	pid := r.seedPage(t, 0x11)
	a, b := r.nodes[0], r.nodes[1]
	b.DisableCoherency = true

	buf := make([]byte, 64)
	if err := b.Read(r.clk, pid, page.HeaderSize, buf); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(r.clk, pid, page.HeaderSize, bytes.Repeat([]byte{0x22}, 64)); err != nil {
		t.Fatal(err)
	}
	// b's invalid flag is set, but coherency is off: this read is stale.
	if err := b.Read(r.clk, pid, page.HeaderSize, buf); err != nil {
		t.Fatal(err)
	}
	vs := finish()
	if !hasViolation(vs, "pending invalidation") {
		t.Fatalf("stale-read checker missed the uncoherent read; violations = %v", vs)
	}
}

// TestStaleReadCheckerFiresOnTornPublish: a dropped publication clflush
// leaves dirty lines in the writer's cache, so other nodes read a torn
// image. Sweep the drop over the writer's first few Flush calls; the one
// that lands on the publication flush must produce the torn-write violation.
func TestStaleReadCheckerFiresOnTornPublish(t *testing.T) {
	found := false
	for k := int64(1); k <= 4 && !found; k++ {
		r, finish := newWatchedRig(t, 8, 2, 16, obs.NewStaleReadChecker())
		pid := r.seedPage(t, 0x11)
		a, b := r.nodes[0], r.nodes[1]

		buf := make([]byte, 64)
		if err := b.Read(r.clk, pid, page.HeaderSize, buf); err != nil {
			t.Fatal(err)
		}
		a.cache.SetInjector(fault.NewPlan(1).DropAt(fault.OpFlushRange, k))
		if err := a.Write(r.clk, pid, page.HeaderSize, bytes.Repeat([]byte{0x22}, 64)); err != nil {
			t.Fatal(err)
		}
		a.cache.SetInjector(nil)
		if err := b.Read(r.clk, pid, page.HeaderSize, buf); err != nil {
			t.Fatal(err)
		}
		if hasViolation(finish(), "torn write") {
			found = true
		}
	}
	if !found {
		t.Fatal("no drop position produced a torn-write violation; the publication flush is unwatched")
	}
}

// TestLockLeakCheckerFiresOnUnreleasedGrant: a client that takes a write
// lock and walks away (no release, no crash declaration) must show up as a
// leak at Finish.
func TestLockLeakCheckerFiresOnUnreleasedGrant(t *testing.T) {
	r, finish := newWatchedRig(t, 4, 1, 16, obs.NewLockLeakChecker())
	pid := r.seedPage(t, 0)
	buf := make([]byte, 8)
	if err := r.nodes[0].Read(r.clk, pid, page.HeaderSize, buf); err != nil {
		t.Fatal(err)
	}
	if err := r.fusion.Lock(r.clk, "node-0", pid, true); err != nil {
		t.Fatal(err)
	}
	vs := finish()
	if !hasViolation(vs, "leaked write lock") {
		t.Fatalf("lock-leak checker missed the unreleased grant; violations = %v", vs)
	}
}

// TestLockLeakCheckerIgnoresReclaimedGrant: the converse fixture — the same
// orphaned grant is NOT a leak when the cluster formally reclaims it
// (crash + EvictNode absolve the holder).
func TestLockLeakCheckerIgnoresReclaimedGrant(t *testing.T) {
	r, finish := newWatchedRig(t, 4, 2, 16, obs.NewLockLeakChecker())
	pid := r.seedPage(t, 0)
	buf := make([]byte, 8)
	if err := r.nodes[1].Read(r.clk, pid, page.HeaderSize, buf); err != nil {
		t.Fatal(err)
	}
	if err := r.fusion.Lock(r.clk, "node-1", pid, true); err != nil {
		t.Fatal(err)
	}
	r.fusion.CrashNode("node-1")
	if err := r.fusion.EvictNode(r.clk, "node-1"); err != nil {
		t.Fatal(err)
	}
	if vs := finish(); len(vs) != 0 {
		t.Fatalf("reclaimed grant flagged as a leak: %v", vs)
	}
}
