package bench

import (
	"os"
	"path/filepath"
	"testing"
)

// TestDataplaneShape pins the dataplane acceptance surface in quick mode:
// the router sustains the full open-session table with zero checker
// violations, the hot tenant is the only one throttled, and batching beats
// per-request dispatch by at least the 2x overhead floor at 16 workers. The
// JSON document lands in the test's own directory, never the working one.
func TestDataplaneShape(t *testing.T) {
	dir := t.TempDir()
	tabs := runIn(t, "dataplane", dir)
	if fi, err := os.Stat(filepath.Join(dir, "BENCH_dataplane.json")); err != nil || fi.Size() == 0 {
		t.Fatalf("BENCH_dataplane.json not written to the output dir: %v", err)
	}
	if len(tabs) != 2 {
		t.Fatalf("dataplane produced %d tables, want 2", len(tabs))
	}
	sessions, ablation := tabs[0], tabs[1]

	// Session phase: every request completed, checkers silent.
	if got := cell(t, sessions, 0, 0); got < 200_000 {
		t.Fatalf("open sessions = %.0f, want >= 200k in quick mode", got)
	}
	if got := cell(t, sessions, 0, 9); got != 0 {
		t.Fatalf("checker violations = %.0f, want 0", got)
	}
	if got := cell(t, sessions, 0, 4); got < 8 {
		t.Fatalf("mean batch = %.2f, want near the 16 cap under saturation", got)
	}
	if got := cell(t, sessions, 0, 3); got <= 0 {
		t.Fatalf("rate-dropped = %.0f, want > 0 (hot tenant must be throttled)", got)
	}

	// Ablation: the point selects write no log, so a batch's commit is free
	// and per-request overhead is the per-batch dispatch CPU split over the
	// batch: 2.00 us at batch 1 down to 0.06 us at batch 32. It must
	// strictly shrink through batch 8, and batch 16 must beat batch 1 by
	// >= 2x (the acceptance floor; expect ~16x).
	var over1, over16 float64
	prev := -1.0
	for i := range ablation.Rows {
		b := cell(t, ablation, i, 0)
		over := cell(t, ablation, i, 3)
		if b <= 8 && prev > 0 && over >= prev {
			t.Fatalf("overhead/req not decreasing: batch %v at %.2f after %.2f", b, over, prev)
		}
		prev = over
		switch b {
		case 1:
			over1 = over
		case 16:
			over16 = over
		}
	}
	if over16 <= 0 || over1/over16 < 2 {
		t.Fatalf("overhead ratio batch1/batch16 = %.2f, want >= 2", over1/over16)
	}
}
