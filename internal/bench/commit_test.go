package bench

import (
	"testing"

	"polarcxlmem/internal/obs"
)

// TestCommitScalingGroupBeatsPerTxn is the acceptance gate for the commit
// pipeline: at 16 concurrent committers, group commit must deliver at least
// 2x the per-txn-flush throughput in virtual time, with zero invariant
// violations from the trace checkers watching the rigs.
func TestCommitScalingGroupBeatsPerTxn(t *testing.T) {
	reg := obs.New(obs.Options{})
	for _, c := range obs.DefaultCheckers() {
		reg.AddChecker(c)
	}
	cfg := Config{Quick: true, Registry: reg}
	per, err := runCommitPoint(cfg, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	grp, err := runCommitPoint(cfg, 16, true)
	if err != nil {
		t.Fatal(err)
	}

	if per.CommitsPerSec <= 0 || grp.CommitsPerSec <= 0 {
		t.Fatalf("degenerate throughput: per-txn %.0f, group %.0f", per.CommitsPerSec, grp.CommitsPerSec)
	}
	speedup := grp.CommitsPerSec / per.CommitsPerSec
	t.Logf("16 committers: per-txn %.0f commits/s, group %.0f commits/s (%.2fx), mean batch %.2f over %d batches",
		per.CommitsPerSec, grp.CommitsPerSec, speedup, grp.MeanBatch, grp.Batches)
	if speedup < 2 {
		t.Fatalf("group commit speedup %.2fx at 16 committers, want >= 2x", speedup)
	}
	if grp.MeanBatch <= 1 {
		t.Fatalf("mean batch %.2f, want > 1 (no batching happened)", grp.MeanBatch)
	}

	if v := reg.Finish(); len(v) != 0 {
		t.Fatalf("invariant checker violations: %v", v)
	}
}

// TestCommitPointReproducible: committers run on a virtual-time scheduler,
// so the same commit cell measured twice gives the same numbers, batch
// formation included.
func TestCommitPointReproducible(t *testing.T) {
	cfg := Config{Quick: true}
	a, err := runCommitPoint(cfg, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCommitPoint(cfg, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("two runs of one commit cell differ:\n  %+v\n  %+v", a, b)
	}
}
