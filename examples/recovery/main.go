// Recovery: crash a loaded database three ways and compare restart cost —
// conventional ARIES restart from storage, the RDMA-accelerated variant,
// and PolarRecv over the surviving CXL buffer pool. Demonstrates the fig. 10
// mechanics at example scale, including a crash in the middle of a B+tree
// structure modification.
package main

import (
	"errors"
	"fmt"
	"log"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/core"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/recovery"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/wal"
	"polarcxlmem/internal/workload"
)

const rows = 4000

// workloadPhase loads sysbench data, checkpoints, then runs post-checkpoint
// committed updates (the redo tail recovery must replay).
func workloadPhase(clk *simclock.Clock, eng *txn.Engine) error {
	sb, err := workload.NewSysbench(clk, eng, 1, rows, 1)
	if err != nil {
		return err
	}
	tbl := sb.Tables()[0]
	tx := eng.Begin(clk)
	for k := int64(1); k <= rows; k += 3 {
		if err := tx.Update(tbl, k, []byte(fmt.Sprintf("post-checkpoint-update-%06d", k))); err != nil {
			return err
		}
	}
	return tx.Commit()
}

func main() {
	// --- vanilla: full redo from storage, cold buffer ---
	{
		store := storage.New(storage.Config{})
		ws := wal.NewStore(0, 0)
		clk := simclock.New()
		pool := buffer.NewDRAMPool(store, 2048, cxl.BufferDRAMProfile())
		eng, err := txn.Bootstrap(clk, pool, wal.Attach(ws), store)
		if err != nil {
			log.Fatal(err)
		}
		if err := workloadPhase(clk, eng); err != nil {
			log.Fatal(err)
		}
		clk2 := simclock.NewAt(clk.Now())
		_, res, err := recovery.Recover(clk2, "vanilla", buffer.NewDRAMPool(store, 2048, cxl.BufferDRAMProfile()), ws, store)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("vanilla:    %8.2f ms  (%d pages rebuilt from storage, %d redo records, buffer restarts cold)\n",
			float64(res.Nanos())/1e6, res.PagesRebuilt, res.RedoRecords)
	}

	// --- RDMA-based: same redo, but base pages come from surviving remote memory ---
	{
		store := storage.New(storage.Config{})
		ws := wal.NewStore(0, 0)
		clk := simclock.New()
		remote := buffer.NewRemoteMemory("remote", 4096)
		pool := buffer.NewTieredPool(store, remote, rdma.NewNIC("h0", 0, 0), 48, cxl.BufferDRAMProfile())
		eng, err := txn.Bootstrap(clk, pool, wal.Attach(ws), store)
		if err != nil {
			log.Fatal(err)
		}
		if err := workloadPhase(clk, eng); err != nil {
			log.Fatal(err)
		}
		clk2 := simclock.NewAt(clk.Now())
		pool2 := buffer.NewTieredPool(store, remote, rdma.NewNIC("h0r", 0, 0), 48, cxl.BufferDRAMProfile())
		_, res, err := recovery.Recover(clk2, "rdma", pool2, ws, store)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("rdma-based: %8.2f ms  (%d pages rebuilt, reads served by remote memory)\n",
			float64(res.Nanos())/1e6, res.PagesRebuilt)
	}

	// --- PolarRecv: buffer pool survives in CXL; crash mid-SMO for drama ---
	{
		store := storage.New(storage.Config{})
		ws := wal.NewStore(0, 0)
		clk := simclock.New()
		topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: core.RegionSizeFor(2048) + 4096})
		host, err := topo.AttachHost("h0", 0)
		if err != nil {
			log.Fatal(err)
		}
		region, err := host.Allocate(clk, "db0", core.RegionSizeFor(2048))
		if err != nil {
			log.Fatal(err)
		}
		pool, err := core.Format(host, region, host.NewCache("db0", 8<<20), store)
		if err != nil {
			log.Fatal(err)
		}
		eng, err := txn.Bootstrap(clk, pool, wal.Attach(ws), store)
		if err != nil {
			log.Fatal(err)
		}
		if err := workloadPhase(clk, eng); err != nil {
			log.Fatal(err)
		}
		// Crash in the middle of a B+tree page split: every page the SMO
		// mini-transaction touched is left write-locked in CXL metadata.
		tbl, err := eng.Table(clk, "sbtest1")
		if err != nil {
			log.Fatal(err)
		}
		boom := errors.New("host dies mid-SMO")
		tbl.SetHook(func(step string) error {
			if step == "smo-split-before-parent-link" {
				return boom
			}
			return nil
		})
		tx := eng.Begin(clk)
		var smoErr error
		for k := int64(1_000_000); k < 1_100_000; k++ {
			if smoErr = tx.Insert(tbl, k, make([]byte, workload.RowSize)); smoErr != nil {
				break
			}
		}
		if !errors.Is(smoErr, boom) {
			log.Fatalf("SMO crash hook never fired: %v", smoErr)
		}
		pool.Crash()

		clk2 := simclock.NewAt(clk.Now())
		host2, err := topo.AttachHost("h0", 0)
		if err != nil {
			log.Fatal(err)
		}
		region2, err := host2.Reattach(clk2, "db0")
		if err != nil {
			log.Fatal(err)
		}
		pool2, eng2, res, err := recovery.PolarRecv(clk2, host2, region2, host2.NewCache("db0", 8<<20), ws, store, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("polarrecv:  %8.2f ms  (%d pages trusted in place, %d rebuilt — crash was mid-page-split)\n",
			float64(res.Nanos())/1e6, res.PagesTrusted, res.PagesRebuilt)

		// Prove the tree survived the interrupted SMO consistently.
		tbl2, err := eng2.Table(clk2, "sbtest1")
		if err != nil {
			log.Fatal(err)
		}
		if err := tbl2.Validate(clk2); err != nil {
			log.Fatalf("B+tree inconsistent after mid-SMO recovery: %v", err)
		}
		fmt.Printf("            B+tree validated after mid-SMO crash; buffer warm with %d pages\n", pool2.Resident())
	}
}
