package checkpoint

import (
	"testing"

	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simmem"
)

var testProf = simmem.Profile{Name: "ckpt", ReadLatency: 100, WriteLatency: 150, ReadStream: 1e9, WriteStream: 1e9}

func newTestRegion(t *testing.T) *simmem.Region {
	t.Helper()
	return simmem.NewDevice("ckpt", AreaSize, testProf, nil, nil).WholeRegion()
}

func TestAreaPublishReattachAndAlternation(t *testing.T) {
	reg := newTestRegion(t)
	clk := simclock.New()
	a, err := NewArea(reg)
	if err != nil {
		t.Fatal(err)
	}
	if a.LSN() != 0 || a.Seq() != 0 {
		t.Fatalf("fresh area: lsn=%d seq=%d, want 0,0", a.LSN(), a.Seq())
	}
	if _, ok, _ := a.Load(clk); ok {
		t.Fatal("fresh area claims a published checkpoint")
	}
	midRuns := 0
	if err := a.Publish(clk, 10, func() error { midRuns++; return nil }); err != nil {
		t.Fatal(err)
	}
	if midRuns != 1 {
		t.Fatalf("mid ran %d times, want 1", midRuns)
	}
	if a.LSN() != 10 || a.Seq() != 1 {
		t.Fatalf("after publish: lsn=%d seq=%d", a.LSN(), a.Seq())
	}
	if err := a.Publish(clk, 25, nil); err != nil {
		t.Fatal(err)
	}
	// Reattach over the surviving region: the newest record must win.
	b, err := NewArea(reg)
	if err != nil {
		t.Fatal(err)
	}
	if b.LSN() != 25 || b.Seq() != 2 {
		t.Fatalf("reattached: lsn=%d seq=%d, want 25,2", b.LSN(), b.Seq())
	}
	lsn, ok, err := b.Load(clk)
	if err != nil || !ok || lsn != 25 {
		t.Fatalf("Load = %d,%v,%v", lsn, ok, err)
	}
	// Alternation: a third publish from the reattached area must continue
	// the sequence and land in the other slot, leaving 25 intact until its
	// own seal.
	if err := b.Publish(clk, 40, nil); err != nil {
		t.Fatal(err)
	}
	c, err := NewArea(reg)
	if err != nil {
		t.Fatal(err)
	}
	if c.LSN() != 40 || c.Seq() != 3 {
		t.Fatalf("after third publish: lsn=%d seq=%d", c.LSN(), c.Seq())
	}
}

// TestAreaTornWriteFallsBack forges every prefix of an interrupted publish
// directly into the standby slot — magic only, magic+seq, full body with a
// stale checksum — and requires the reader to fall back to the intact
// record every time.
func TestAreaTornWriteFallsBack(t *testing.T) {
	reg := newTestRegion(t)
	clk := simclock.New()
	a, err := NewArea(reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Publish(clk, 10, nil); err != nil { // seq 1, slot 1
		t.Fatal(err)
	}
	if err := a.Publish(clk, 20, nil); err != nil { // seq 2, slot 0
		t.Fatal(err)
	}
	// A publish of seq 3 / lsn 30 would stage into slot 1. Forge each torn
	// prefix of it.
	standby := int64(1) * slotSize
	prefixes := [][]struct {
		off int64
		val uint64
	}{
		{{offMagic, slotMagic}},
		{{offMagic, slotMagic}, {offSeq, 3}},
		{{offMagic, slotMagic}, {offSeq, 3}, {offLSN, 30}},
	}
	for i, writes := range prefixes {
		for _, w := range writes {
			if err := reg.Store64Raw(standby+w.off, w.val); err != nil {
				t.Fatal(err)
			}
		}
		b, err := NewArea(reg)
		if err != nil {
			t.Fatal(err)
		}
		if b.LSN() != 20 || b.Seq() != 2 {
			t.Fatalf("torn prefix %d: lsn=%d seq=%d, want fallback to 20,2", i, b.LSN(), b.Seq())
		}
		lsn, ok, lerr := b.Load(clk)
		if lerr != nil || !ok || lsn != 20 {
			t.Fatalf("torn prefix %d: Load = %d,%v,%v", i, lsn, ok, lerr)
		}
	}
	// And with the checksum finally written, the new record takes over.
	if err := reg.Store64Raw(standby+offSum, slotSum(3, 30)); err != nil {
		t.Fatal(err)
	}
	b, err := NewArea(reg)
	if err != nil {
		t.Fatal(err)
	}
	if b.LSN() != 30 || b.Seq() != 3 {
		t.Fatalf("sealed record ignored: lsn=%d seq=%d", b.LSN(), b.Seq())
	}
}

func TestAreaPublishMustAdvance(t *testing.T) {
	reg := newTestRegion(t)
	clk := simclock.New()
	a, err := NewArea(reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Publish(clk, 10, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Publish(clk, 10, nil); err == nil {
		t.Fatal("republishing the same lsn must fail")
	}
	if err := a.Publish(clk, 5, nil); err == nil {
		t.Fatal("publishing a lower lsn must fail")
	}
}

func TestAreaRejectsTooSmallRegion(t *testing.T) {
	dev := simmem.NewDevice("tiny", AreaSize-1, testProf, nil, nil)
	if _, err := NewArea(dev.WholeRegion()); err == nil {
		t.Fatal("NewArea accepted an undersized region")
	}
}

// TestAreaMidErrorAbortsUnsealed: a failing mid callback (an injected crash
// in the truncation step) must leave the staged slot unsealed so the old
// record stays in force.
func TestAreaMidErrorAbortsUnsealed(t *testing.T) {
	reg := newTestRegion(t)
	clk := simclock.New()
	a, err := NewArea(reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Publish(clk, 10, nil); err != nil {
		t.Fatal(err)
	}
	boom := func() error { return errTest }
	if err := a.Publish(clk, 20, boom); err == nil {
		t.Fatal("mid error not propagated")
	}
	if a.LSN() != 10 {
		t.Fatalf("aborted publish moved the cursor: %d", a.LSN())
	}
	b, err := NewArea(reg)
	if err != nil {
		t.Fatal(err)
	}
	if b.LSN() != 10 || b.Seq() != 1 {
		t.Fatalf("aborted publish visible after reattach: lsn=%d seq=%d", b.LSN(), b.Seq())
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }
