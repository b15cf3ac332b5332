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
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/wal"
)

// The crash-point sweep: a seed-scripted transactional workload runs with a
// fault plan armed on the shared CXL device; the host is killed at every
// single write-side operation index in turn, PolarRecv reopens the surviving
// region, and the recovered system must pass fsck, B+tree validation, and an
// exact committed-row durability audit. A shadow map tracks the committed
// state: Commit touches only the (separately powered, uninjected) WAL
// device, so a transaction is either fully committed in the shadow or its
// effects must be absent after recovery — there is no ambiguous window.

const (
	sweepBlocks  = 192
	sweepCacheB  = 1 << 20
	sweepKeys    = 120
	sweepPreload = 40
	sweepRounds  = 14
)

// polarRecvSweepRun is one (seed, crashIndex) experiment: fresh rig, scripted
// workload under the plan, host death, PolarRecv, invariant checks. It
// returns an error (never t.Fatal) so the harness can attach the repro pair.
func polarRecvSweepRun(plan *fault.Plan) error {
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

	// Preload + checkpoint BEFORE arming, so the swept op indices cover
	// exactly the post-checkpoint transactional window.
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
			// Pool metadata accessors panic on device errors; an injected
			// crash surfaces here. Swallow it — the host just died — and let
			// anything else propagate.
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
						continue // logical no-op, transaction continues
					}
					if fault.IsCrash(err) {
						return nil // host died mid-statement; txn never commits
					}
					return fmt.Errorf("round %d op %d: %w", round, i, err)
				}
			}
			// Commit appends and flushes the WAL only — the WAL device is not
			// injected, so this cannot be interrupted: the shadow state is
			// exact at every crash point.
			if err := tx.Commit(); err != nil {
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

	// Host death (the clean pass power-cycles at the end): every DRAM
	// structure and the CPU cache's unflushed lines are abandoned — the old
	// pool is never touched again, since an injected crash may have panicked
	// through its mutexes — and only the CXL region and the WAL survive.
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

	// Invariant 1: the pool's CXL-resident structures are consistent.
	rep := pool2.Fsck()
	if !rep.OK() {
		return fmt.Errorf("fsck after recovery: %v", rep.Problems)
	}
	if len(rep.LockedPages) > 0 {
		return fmt.Errorf("fsck: %d pages still write-locked after recovery: %v", len(rep.LockedPages), rep.LockedPages)
	}
	// Invariant 2: the B+tree is structurally valid.
	tr2, err := eng2.Table(clk2, "t")
	if err != nil {
		return fmt.Errorf("reopen table: %w", err)
	}
	if err := tr2.Validate(clk2); err != nil {
		return fmt.Errorf("btree validate: %w", err)
	}
	// Invariant 3: exactly the committed rows survive — every committed
	// (key, value) readable and nothing extra.
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

// TestCrashSweepPolarRecv kills the host at EVERY write-side CXL operation
// index of the scripted workload and requires full recovery each time.
func TestCrashSweepPolarRecv(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep skipped in -short; TestCrashSweepSmoke covers the strided variant")
	}
	res := fault.Sweep(t, fault.Config{Seed: 20250805}, polarRecvSweepRun)
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

// TestCrashSweepSmoke is the CI short-budget variant: ~12 strided crash
// points over the same workload, different seed.
func TestCrashSweepSmoke(t *testing.T) {
	res := fault.Sweep(t, fault.Config{Seed: 4242, Points: 12}, polarRecvSweepRun)
	if res.Tested < 10 {
		t.Fatalf("smoke sweep tested only %d crash points (need >= 10)", res.Tested)
	}
	if res.Fired != res.Tested {
		t.Fatalf("fired %d of %d tested crash points", res.Fired, res.Tested)
	}
}
