package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"polarcxlmem/internal/btree"
	"polarcxlmem/internal/core"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/flusher"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/wal"
)

// The batched-pipeline variant of the PolarRecv crash-point sweep: the same
// scripted workload, but with the group committer AND the background flusher
// enabled, so the write-side op stream now includes the flusher's batched
// writeback sequences. Every one of those batched CXL writes passes through
// the same fault-injection op points as the inline paths — this sweep kills
// the host at each of them in turn and requires full recovery.
//
// Shadow accounting stays exact: commitUnit ticks the flusher BEFORE
// appending the commit marker, so a crash during background writeback leaves
// the transaction uncommitted (its effects must be absent after recovery),
// and the commit marker itself touches only the uninjected WAL device.

// batchedPipelinePolicy is deliberately aggressive — a tiny interval and
// budget so the flusher fires many times within the short sweep workload,
// putting plenty of background-writeback op points inside the swept window.
var batchedPipelinePolicy = flusher.Policy{
	IntervalNanos:   20 * simclock.Microsecond,
	MinBatch:        2,
	MaxBatch:        8,
	RedoBudgetBytes: 16 << 10,
}

// batchedPipelineSweepRun is one (seed, crashIndex) experiment with the
// commit pipeline enabled end to end.
func batchedPipelineSweepRun(plan *fault.Plan) error {
	topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: core.RegionSizeFor(sweepBlocks) + 4096}, nil)
	host, err := topo.AttachHost("h0", 0)
	if err != nil {
		return err
	}
	clk := simclock.New()
	region, err := host.Allocate(clk, "db0", core.RegionSizeFor(sweepBlocks))
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
	eng.EnableGroupCommit(wal.GroupPolicy{}, nil)
	if _, err := eng.EnableBackgroundFlush(batchedPipelinePolicy, nil); err != nil {
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
	if err := eng.Checkpoint(clk); err != nil {
		return err
	}

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
			// Unlike the base sweep, Commit CAN fail here: the flusher tick
			// precedes the marker append and its batched CXL writes are
			// injected. A crash there means the host died with the unit
			// UNCOMMITTED — the shadow stays at `committed`, exactly as for a
			// mid-statement crash. The marker append itself still touches
			// only the uninjected WAL device.
			if err := tx.Commit(); err != nil {
				if fault.IsCrash(err) {
					return nil
				}
				return fmt.Errorf("commit round %d: %w", round, err)
			}
			committed = staged
			if rng.Intn(4) == 0 {
				if err := eng.Checkpoint(clk); err != nil {
					if fault.IsCrash(err) {
						return nil
					}
					return fmt.Errorf("checkpoint round %d: %w", round, err)
				}
			}
		}
		return nil
	}()
	plan.Disarm()
	topo.Leaf(0).Box().Device().SetInjector(nil)
	if workErr != nil {
		return workErr
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
	cache2 := host2.NewCache("db0", sweepCacheB)
	pool2, eng2, res, err := PolarRecv(clk2, host2, region2, cache2, ws, store, nil)
	if err != nil {
		return fmt.Errorf("PolarRecv: %w", err)
	}
	if res.RedoApplied < 0 || res.RedoApplied > res.RedoRecords {
		return fmt.Errorf("RedoApplied = %d outside [0, RedoRecords=%d]", res.RedoApplied, res.RedoRecords)
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

// TestCrashSweepBatchedPipeline kills the host at EVERY write-side CXL
// operation index — now including the background flusher's batched
// writebacks — and requires full recovery each time.
func TestCrashSweepBatchedPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep skipped in -short; TestCrashSweepBatchedPipelineSmoke covers the strided variant")
	}
	res := fault.Sweep(t, fault.Config{Seed: 20250806}, batchedPipelineSweepRun)
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

// TestCrashSweepBatchedPipelineSmoke is the CI short-budget variant: ~12
// strided crash points over the same batched-pipeline workload.
func TestCrashSweepBatchedPipelineSmoke(t *testing.T) {
	res := fault.Sweep(t, fault.Config{Seed: 777, Points: 12}, batchedPipelineSweepRun)
	if res.Tested < 10 {
		t.Fatalf("smoke sweep tested only %d crash points (need >= 10)", res.Tested)
	}
	if res.Fired != res.Tested {
		t.Fatalf("fired %d of %d tested crash points", res.Fired, res.Tested)
	}
}
