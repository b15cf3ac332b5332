package sharing

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"polarcxlmem/internal/fault"
)

// Multi-primary coherency under flush faults: two primaries ping-pong
// updates through the shared DBP while individual clflushes are dropped or
// reordered. The invalid/removal flag protocol must keep every read inside
// the written history (no torn or fabricated values), and once the faults
// stop, one round of cache flushing must restore exact convergence.

const (
	dropSweepPages  = 3
	dropSweepRounds = 24
	dropSweepOff    = 4096 // line-aligned 8-byte stamp slot in each page
)

// flushDropRun is one (seed, dropIndex) experiment between two primaries.
func flushDropRun(t *testing.T, plan *fault.Plan) error {
	r := newRig(t, 4, 2, 16)
	pids := make([]uint64, dropSweepPages)
	for i := range pids {
		pids[i] = r.seedPage(t, 0)
	}
	// The plan watches BOTH primaries' caches: clflush loss can hit the
	// writer's publication or the reader's invalidation equally.
	for _, n := range r.nodes {
		n.cache.SetInjector(plan)
	}

	// history[pid] holds every stamp ever written to the page's slot (plus
	// the seeded zero). A dropped flush may leave any PAST value visible —
	// 8-byte aligned single-line stamps cannot tear — but a value outside
	// the history means the protocol served fabricated bytes.
	history := make(map[uint64]map[uint64]bool, len(pids))
	for _, pid := range pids {
		history[pid] = map[uint64]bool{0: true}
	}
	buf := make([]byte, 8)
	for round := 0; round < dropSweepRounds; round++ {
		writer := r.nodes[round%2]
		reader := r.nodes[(round+1)%2]
		pid := pids[round%len(pids)]
		stamp := uint64(round + 1)
		binary.LittleEndian.PutUint64(buf, stamp)
		if err := writer.Write(r.clk, pid, dropSweepOff, buf); err != nil {
			return fmt.Errorf("round %d write: %w", round, err)
		}
		history[pid][stamp] = true
		if err := reader.Read(r.clk, pid, dropSweepOff, buf); err != nil {
			return fmt.Errorf("round %d read: %w", round, err)
		}
		got := binary.LittleEndian.Uint64(buf)
		if !history[pid][got] {
			return fmt.Errorf("round %d: %s read %d from page %d — not in the written history (torn or fabricated value)",
				round, reader.name, got, pid)
		}
	}

	// Fault window over. Each primary writes back and invalidates its whole
	// cache: lines whose clflush was dropped are still resident-dirty and
	// republish now, after which no cache holds hidden state.
	plan.Disarm()
	for _, n := range r.nodes {
		if err := n.cache.Flush(r.clk, n.dbp, 0, int(n.dbp.Size())); err != nil {
			return fmt.Errorf("post-fault cache flush: %w", err)
		}
	}
	// Exactness is restored: a fresh write must be read back verbatim by
	// BOTH primaries.
	for i, pid := range pids {
		final := uint64(1000 + i)
		binary.LittleEndian.PutUint64(buf, final)
		if err := r.nodes[0].Write(r.clk, pid, dropSweepOff, buf); err != nil {
			return err
		}
		for _, n := range r.nodes {
			if err := n.Read(r.clk, pid, dropSweepOff, buf); err != nil {
				return err
			}
			if got := binary.LittleEndian.Uint64(buf); got != final {
				return fmt.Errorf("after faults cleared, %s reads %d from page %d, want %d (stale line survived recovery)",
					n.name, got, pid, final)
			}
		}
	}
	return nil
}

// TestFlushDropSweepTwoPrimaries drops every single clflush index of the
// ping-pong workload in turn.
func TestFlushDropSweepTwoPrimaries(t *testing.T) {
	res := fault.Sweep(t, fault.Config{Seed: 20250806, Op: fault.OpFlushLine, Act: fault.ActionDrop},
		func(plan *fault.Plan) error { return flushDropRun(t, plan) })
	if res.Total < 20 {
		t.Fatalf("workload emits only %d clflushes; sweep underpowered", res.Total)
	}
	if int64(res.Tested) != res.Total {
		t.Fatalf("drop sweep must cover every clflush: tested %d of %d", res.Tested, res.Total)
	}
	if res.Fired != res.Tested {
		t.Fatalf("fired %d of %d tested drop points", res.Fired, res.Tested)
	}
}

// TestFlushReorderExactness reverses the line order of selected range
// flushes. Publication order must not matter when every line still reaches
// CXL: multi-line values stay exact, not just history-bounded.
func TestFlushReorderExactness(t *testing.T) {
	r := newRig(t, 4, 2, 16)
	pid := r.seedPage(t, 0)
	plan := fault.NewPlan(1)
	for i := int64(1); i <= 64; i++ {
		if i%2 == 0 { // reverse every second range flush
			plan.ReverseFlushAt(i)
		}
	}
	for _, n := range r.nodes {
		n.cache.SetInjector(plan)
	}
	val := make([]byte, 256) // 4 cache lines
	got := make([]byte, 256)
	for round := 0; round < 12; round++ {
		writer := r.nodes[round%2]
		reader := r.nodes[(round+1)%2]
		for i := range val {
			val[i] = byte(round + 1)
		}
		if err := writer.Write(r.clk, pid, dropSweepOff, val); err != nil {
			t.Fatal(err)
		}
		if err := reader.Read(r.clk, pid, dropSweepOff, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("round %d: reordered flush broke publication: read %x... want %x...", round, got[:8], val[:8])
		}
	}
	for _, n := range r.nodes {
		n.cache.SetInjector(nil)
	}
}

// TestFlushReorderWithDropConvergence combines a reversed publication with a
// dropped line inside it — a torn multi-line publication — and verifies the
// post-fault flush protocol still converges to exact state.
func TestFlushReorderWithDropConvergence(t *testing.T) {
	r := newRig(t, 4, 2, 16)
	pid := r.seedPage(t, 0)
	plan := fault.NewPlan(1).ReverseFlushAt(2).DropAt(fault.OpFlushLine, 3)
	for _, n := range r.nodes {
		n.cache.SetInjector(plan)
	}
	val := bytes.Repeat([]byte{0x5A}, 256)
	if err := r.nodes[0].Write(r.clk, pid, dropSweepOff, val); err != nil {
		t.Fatal(err)
	}
	if len(plan.Firings()) == 0 {
		t.Fatal("drop trigger never fired; publication was not actually torn")
	}
	// The reader may observe a torn image right now — that is the injected
	// fault, not the assertion. Recovery: disarm, flush both caches (the
	// dropped line is still dirty in the writer's cache and republishes).
	plan.Disarm()
	for _, n := range r.nodes {
		if err := n.cache.Flush(r.clk, n.dbp, 0, int(n.dbp.Size())); err != nil {
			t.Fatal(err)
		}
	}
	val2 := bytes.Repeat([]byte{0xC3}, 256)
	if err := r.nodes[0].Write(r.clk, pid, dropSweepOff, val2); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 256)
	for _, n := range r.nodes {
		if err := n.Read(r.clk, pid, dropSweepOff, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val2) {
			t.Fatalf("%s did not converge after torn publication: %x... want %x...", n.name, got[:8], val2[:8])
		}
	}
	for _, n := range r.nodes {
		n.cache.SetInjector(nil)
	}
}
