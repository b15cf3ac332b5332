package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"polarcxlmem/internal/btree"
	"polarcxlmem/internal/checkpoint"
	"polarcxlmem/internal/core"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/flusher"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/wal"
)

// The fuzzy-checkpoint variant of the PolarRecv crash-point sweep: group
// committer + background flusher + the continuous checkpointer, all enabled,
// over the same scripted workload. The checkpoint area lives on the SAME
// injected CXL device as the buffer pool, so the write-side op stream now
// also contains every checkpoint-record store — the three body words, the
// checksum flip, and the publish-time drain writebacks. Killing the host at
// each index in turn therefore covers every mid-checkpoint window the design
// argues about:
//
//   - between any two record body stores (a torn slot: the checksum cannot
//     match, recovery must fall back to the other slot);
//   - between the WAL truncation (which runs mid-publish, after the body,
//     before the checksum) and the checksum flip (recovery must restart from
//     the OLD checkpoint, whose redo tail truncation deliberately spared);
//   - during the publish-time drain, and during ordinary flusher writeback
//     with a checkpoint pending.
//
// Recovery reattaches BOTH regions, reads the newest valid checkpoint slot,
// replays redo from there, and must converge to exactly the committed shadow
// state — same invariants as the other sweeps, plus checkpoint-specific
// checks (recovery really started at the area's LSN; the surviving log tail
// covers it).

// checkpointSweepFlushPolicy mirrors the batched-pipeline sweep's aggressive
// flusher so the backlog keeps dipping below the checkpoint watermark.
var checkpointSweepFlushPolicy = flusher.Policy{
	IntervalNanos:   20 * simclock.Microsecond,
	MinBatch:        2,
	MaxBatch:        8,
	RedoBudgetBytes: 16 << 10,
}

// checkpointSweepPolicy fires a checkpoint attempt every couple of flusher
// intervals, so several full publish cycles — and at least one truncation —
// land inside the short swept window.
var checkpointSweepPolicy = checkpoint.Policy{
	IntervalNanos:  40 * simclock.Microsecond,
	DirtyWatermark: 8,
}

// checkpointSweepRun is one (seed, crashIndex) experiment with fuzzy
// checkpointing enabled end to end.
func checkpointSweepRun(plan *fault.Plan) error {
	topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: core.RegionSizeFor(sweepBlocks) + 4096})
	host, err := topo.AttachHost("h0", 0)
	if err != nil {
		return err
	}
	clk := simclock.New()
	region, err := host.Allocate(clk, "db0", core.RegionSizeFor(sweepBlocks))
	if err != nil {
		return err
	}
	ckReg, err := host.Allocate(clk, "db0-ckpt", checkpoint.AreaSize)
	if err != nil {
		return err
	}
	area, err := checkpoint.NewArea(ckReg)
	if err != nil {
		return err
	}
	cache := host.NewCache("db0", sweepCacheB)
	store := storage.New(storage.Config{})
	pool, err := core.Format(host, region, cache, store)
	if err != nil {
		return err
	}
	ws := wal.NewStore(0, 0)
	eng, err := txn.Bootstrap(clk, pool, wal.Attach(ws), store)
	if err != nil {
		return err
	}
	eng.EnableGroupCommit(wal.GroupPolicy{})
	if _, err := eng.EnableBackgroundFlush(checkpointSweepFlushPolicy); err != nil {
		return err
	}
	if _, err := eng.EnableCheckpoints(area, checkpointSweepPolicy); err != nil {
		return err
	}
	tr, err := eng.CreateTable(clk, "t")
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(plan.Seed()))
	rowVal := func(k int64) []byte {
		v := make([]byte, 32)
		rng.Read(v)
		copy(v, fmt.Sprintf("k%06d-", k))
		return v
	}

	committed := make(map[int64][]byte, sweepKeys)
	tx := eng.Begin(clk)
	for k := int64(0); k < sweepPreload; k++ {
		v := rowVal(k)
		if err := tx.Insert(tr, k, v); err != nil {
			return fmt.Errorf("preload insert %d: %w", k, err)
		}
		committed[k] = v
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	// No explicit Engine.Checkpoint anywhere: the fuzzy checkpointer owns
	// checkpointing AND log truncation for this rig, start to finish.

	topo.Leaf(0).Box().Device().SetInjector(plan)
	workErr := func() (retErr error) {
		defer func() {
			if r := recover(); r != nil {
				if e, ok := r.(error); ok && fault.IsCrash(e) {
					return
				}
				panic(r)
			}
		}()
		for round := 0; round < sweepRounds; round++ {
			staged := make(map[int64][]byte, len(committed))
			for k, v := range committed {
				staged[k] = v
			}
			tx := eng.Begin(clk)
			nops := 1 + rng.Intn(3)
			for i := 0; i < nops; i++ {
				k := rng.Int63n(sweepKeys)
				var err error
				switch rng.Intn(3) {
				case 0:
					v := rowVal(k)
					if err = tx.Insert(tr, k, v); err == nil {
						staged[k] = v
					}
				case 1:
					v := rowVal(k)
					if err = tx.Update(tr, k, v); err == nil {
						staged[k] = v
					}
				default:
					if err = tx.Delete(tr, k); err == nil {
						delete(staged, k)
					}
				}
				if err != nil {
					if errors.Is(err, btree.ErrKeyNotFound) || errors.Is(err, btree.ErrDuplicateKey) {
						continue
					}
					if fault.IsCrash(err) {
						return nil
					}
					return fmt.Errorf("round %d op %d: %w", round, i, err)
				}
			}
			// Commit ticks the flusher AND the checkpointer before the marker
			// append, so a crash anywhere mid-checkpoint — body stores, the
			// truncation, the checksum flip, the drain — leaves this unit
			// UNCOMMITTED and the shadow stays at `committed`.
			if err := tx.Commit(); err != nil {
				if fault.IsCrash(err) {
					return nil
				}
				return fmt.Errorf("commit round %d: %w", round, err)
			}
			committed = staged
		}
		return nil
	}()
	plan.Disarm()
	topo.Leaf(0).Box().Device().SetInjector(nil)
	if workErr != nil {
		return workErr
	}
	if len(plan.Firings()) == 0 {
		// Counting pass (no trigger armed): the workload itself must exercise
		// the windows the sweep is about, or the whole test is vacuous.
		if n := eng.Checkpointer().Published(); n < 2 {
			return fmt.Errorf("counting pass published only %d checkpoints (need >= 2 so a truncation lands in the swept window)", n)
		}
		if tb := ws.TruncatedBefore(); tb <= 1 {
			return fmt.Errorf("counting pass never truncated the log (truncation point %d)", tb)
		}
	}

	_ = pool
	clk2 := simclock.NewAt(clk.Now())
	host2, err := topo.AttachHost("h0", 0)
	if err != nil {
		return err
	}
	region2, err := host2.Reattach(clk2, "db0")
	if err != nil {
		return err
	}
	ckReg2, err := host2.Reattach(clk2, "db0-ckpt")
	if err != nil {
		return err
	}
	area2, err := checkpoint.NewArea(ckReg2)
	if err != nil {
		return fmt.Errorf("reattach checkpoint area: %w", err)
	}
	cache2 := host2.NewCache("db0", sweepCacheB)
	pool2, eng2, res, err := PolarRecv(clk2, host2, region2, cache2, ws, store, area2)
	if err != nil {
		return fmt.Errorf("PolarRecv: %w", err)
	}
	if res.RedoApplied < 0 || res.RedoApplied > res.RedoRecords {
		return fmt.Errorf("RedoApplied = %d outside [0, RedoRecords=%d]", res.RedoApplied, res.RedoRecords)
	}
	// Recovery must have started from the area's newest valid checkpoint
	// (the store-recorded checkpoint stays 0 in this rig), and the surviving
	// log tail must actually cover it: scanning from CheckpointLSN+1 is the
	// redo pass recovery just ran, so it must not be truncated away.
	if res.CheckpointLSN != area2.LSN() {
		return fmt.Errorf("recovery checkpoint LSN %d != area LSN %d", res.CheckpointLSN, area2.LSN())
	}
	if tb := ws.TruncatedBefore(); tb > res.CheckpointLSN+1 {
		return fmt.Errorf("log truncated to %d, above checkpoint redo start %d", tb, res.CheckpointLSN+1)
	}

	rep := pool2.Fsck()
	if !rep.OK() {
		return fmt.Errorf("fsck after recovery: %v", rep.Problems)
	}
	if len(rep.LockedPages) > 0 {
		return fmt.Errorf("fsck: %d pages still write-locked after recovery: %v", len(rep.LockedPages), rep.LockedPages)
	}
	tr2, err := eng2.Table(clk2, "t")
	if err != nil {
		return fmt.Errorf("reopen table: %w", err)
	}
	if err := tr2.Validate(clk2); err != nil {
		return fmt.Errorf("btree validate: %w", err)
	}
	n, err := tr2.Count(clk2)
	if err != nil {
		return err
	}
	if n != len(committed) {
		return fmt.Errorf("row count after recovery = %d, want %d committed rows", n, len(committed))
	}
	for k, want := range committed {
		got, err := tr2.Get(clk2, k)
		if err != nil {
			return fmt.Errorf("committed key %d lost: %w", k, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("committed key %d = %q, want %q", k, got, want)
		}
	}
	return nil
}

// TestCrashSweepCheckpoint kills the host at EVERY write-side CXL operation
// index — including each checkpoint-record store and the mid-publish WAL
// truncation window — and requires full recovery from the surviving
// checkpoint each time.
func TestCrashSweepCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep skipped in -short; TestCrashSweepCheckpointSmoke covers the strided variant")
	}
	res := fault.Sweep(t, fault.Config{Seed: 20250807}, checkpointSweepRun)
	if res.Total < 100 {
		t.Fatalf("workload too small: only %d write-side crash points (need >= 100)", res.Total)
	}
	if int64(res.Tested) != res.Total {
		t.Fatalf("full sweep must cover every index: tested %d of %d", res.Tested, res.Total)
	}
	if res.Fired != res.Tested {
		t.Fatalf("fired %d of %d tested crash points", res.Fired, res.Tested)
	}
}

// TestCrashSweepCheckpointSmoke is the CI short-budget variant: ~12 strided
// crash points over the same fuzzy-checkpoint workload.
func TestCrashSweepCheckpointSmoke(t *testing.T) {
	res := fault.Sweep(t, fault.Config{Seed: 778, Points: 12}, checkpointSweepRun)
	if res.Tested < 10 {
		t.Fatalf("smoke sweep tested only %d crash points (need >= 10)", res.Tested)
	}
	if res.Fired != res.Tested {
		t.Fatalf("fired %d of %d tested crash points", res.Fired, res.Tested)
	}
}
