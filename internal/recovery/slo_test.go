package recovery

import (
	"fmt"
	"testing"

	"polarcxlmem/internal/checkpoint"
	"polarcxlmem/internal/core"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/flusher"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/wal"
)

// The recovery-time SLO: with continuous fuzzy checkpointing on, the redo
// work PolarRecv performs after a crash is a function of the CHECKPOINT
// INTERVAL, not of how long the instance has been up. Without it, redo (and
// the retained WAL) grow linearly with uptime — the regime the paper's §4.3
// experiment runs in, fine for a one-shot benchmark and unacceptable for a
// long-lived service.
//
// sloRun runs `rounds` committed single-row transactions (a fixed per-round
// record shape, so rounds is a faithful uptime axis), crashes the host, and
// recovers — with fuzzy checkpointing when withCkpt is set. It returns the
// redo-scan length and the retained WAL bytes at crash time.
func sloRun(t *testing.T, rounds int, withCkpt bool) (redoRecords int, walBytes int64) {
	t.Helper()
	const nblocks = 192
	topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: core.RegionSizeFor(nblocks) + 4096})
	host, err := topo.AttachHost("h0", 0)
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	region, err := host.Allocate(clk, "db0", core.RegionSizeFor(nblocks))
	if err != nil {
		t.Fatal(err)
	}
	cache := host.NewCache("db0", 1<<20)
	store := storage.New(storage.Config{})
	pool, err := core.Format(host, region, cache, store)
	if err != nil {
		t.Fatal(err)
	}
	ws := wal.NewStore(0, 0)
	eng, err := txn.Bootstrap(clk, pool, wal.Attach(ws), store)
	if err != nil {
		t.Fatal(err)
	}
	var area *checkpoint.Area
	if withCkpt {
		ckReg, err := host.Allocate(clk, "db0-ckpt", checkpoint.AreaSize)
		if err != nil {
			t.Fatal(err)
		}
		if area, err = checkpoint.NewArea(ckReg); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.EnableBackgroundFlush(flusher.Policy{
			IntervalNanos: 20 * simclock.Microsecond,
			MinBatch:      2,
			MaxBatch:      8,
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.EnableCheckpoints(area, checkpoint.Policy{
			IntervalNanos:  50 * simclock.Microsecond,
			DirtyWatermark: 8,
		}); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := eng.CreateTable(clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	const keys = 64
	for r := 0; r < rounds; r++ {
		tx := eng.Begin(clk)
		k := int64(r % keys)
		v := []byte(fmt.Sprintf("round-%08d", r))
		if r < keys {
			err = tx.Insert(tr, k, v)
		} else {
			err = tx.Update(tr, k, v)
		}
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit round %d: %v", r, err)
		}
	}
	walBytes, err = ws.BytesFrom(ws.TruncatedBefore())
	if err != nil {
		t.Fatal(err)
	}

	pool.Crash()
	clk2 := simclock.NewAt(clk.Now())
	host2, err := topo.AttachHost("h0", 0)
	if err != nil {
		t.Fatal(err)
	}
	region2, err := host2.Reattach(clk2, "db0")
	if err != nil {
		t.Fatal(err)
	}
	var area2 *checkpoint.Area
	if withCkpt {
		ckReg2, err := host2.Reattach(clk2, "db0-ckpt")
		if err != nil {
			t.Fatal(err)
		}
		if area2, err = checkpoint.NewArea(ckReg2); err != nil {
			t.Fatal(err)
		}
	}
	_, eng2, res, err := PolarRecv(clk2, host2, region2, host2.NewCache("db0", 1<<20), ws, store, area2)
	if err != nil {
		t.Fatalf("PolarRecv: %v", err)
	}
	// The recovered state must be complete regardless of where the redo scan
	// started: spot-check the newest committed row.
	tr2, err := eng2.Table(clk2, "t")
	if err != nil {
		t.Fatal(err)
	}
	last := int64((rounds - 1) % keys)
	got, err := tr2.Get(clk2, last)
	if err != nil || string(got) != fmt.Sprintf("round-%08d", rounds-1) {
		t.Fatalf("key %d after recovery = %q, %v", last, got, err)
	}
	return res.RedoRecords, walBytes
}

// TestRecoverySLOBoundedByCheckpointInterval quadruples the uptime and
// requires the redo scan and the retained WAL to stay flat: both are bounded
// by the checkpoint interval, not by uptime.
func TestRecoverySLOBoundedByCheckpointInterval(t *testing.T) {
	const short, long = 150, 600
	redoShort, walShort := sloRun(t, short, true)
	redoLong, walLong := sloRun(t, long, true)
	t.Logf("ckpt on: redo %d -> %d records, retained WAL %d -> %d bytes over %dx uptime",
		redoShort, redoLong, walShort, walLong, long/short)
	// "Flat" with slack: the tail past the last checkpoint can be anywhere in
	// [0, interval]-worth of records at crash time, so allow 2x plus a
	// constant, but never the 4x the uptime grew by.
	if redoLong > 2*redoShort+32 {
		t.Fatalf("redo grew with uptime despite checkpointing: %d -> %d records", redoShort, redoLong)
	}
	if walLong > 2*walShort+4096 {
		t.Fatalf("retained WAL grew with uptime despite truncation: %d -> %d bytes", walShort, walLong)
	}
}

// TestRecoverySLOUnboundedWithoutCheckpoints is the companion baseline: the
// same workload without the checkpointer scales its redo scan and retained
// WAL linearly with uptime — the failure mode the tentpole removes. It also
// pins the comparison the SLO test relies on: checkpointing actually shrinks
// redo at equal uptime.
func TestRecoverySLOUnboundedWithoutCheckpoints(t *testing.T) {
	const short, long = 150, 600
	redoShort, walShort := sloRun(t, short, false)
	redoLong, walLong := sloRun(t, long, false)
	t.Logf("ckpt off: redo %d -> %d records, retained WAL %d -> %d bytes over %dx uptime",
		redoShort, redoLong, walShort, walLong, long/short)
	if redoLong < 3*redoShort {
		t.Fatalf("baseline redo did not scale with uptime: %d -> %d records (expected ~%dx)",
			redoShort, redoLong, long/short)
	}
	if walLong < 3*walShort {
		t.Fatalf("baseline WAL did not scale with uptime: %d -> %d bytes", walShort, walLong)
	}
	redoCkpt, _ := sloRun(t, long, true)
	if redoCkpt*4 > redoLong {
		t.Fatalf("checkpointed redo (%d records) not clearly below unbounded baseline (%d records) at equal uptime",
			redoCkpt, redoLong)
	}
}
