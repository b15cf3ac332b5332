// Multiprimary: TWO complete transaction engines — each with its own B+tree
// code, WAL handle, and CPU cache — run against the SAME tables, whose
// pages live exactly once in CXL memory behind the buffer-fusion server.
// Page writes publish at cache-line granularity (clflush on lock release)
// and the fusion server invalidates the other node's cached lines: the
// paper's §3.3 protocol carrying real B+tree traffic, PolarDB-MP style.
package main

import (
	"fmt"
	"log"

	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/sharing"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/wal"
)

func main() {
	clk := simclock.New()
	store := storage.New(storage.Config{})
	topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: 256*page.Size + 1<<20})
	dep, err := sharing.NewDeployment(clk, topo, "fusion", 192, store)
	if err != nil {
		log.Fatal(err)
	}
	logStream := wal.Attach(wal.NewStore(0, 0)) // one global log stream

	// Two database nodes, each a full engine over the shared pool.
	engines := make([]*txn.Engine, 2)
	for i := range engines {
		p, err := dep.AttachPrimary(clk, fmt.Sprintf("primary-%d", i), 0, 1<<16, 4<<20)
		if err != nil {
			log.Fatal(err)
		}
		pool := sharing.NewSharedPool(p.Name, dep.Fusion, p.Cache, p.Flags)
		if i == 0 {
			engines[i], err = txn.Bootstrap(clk, pool, logStream, store)
		} else {
			engines[i], err = txn.Attach(clk, pool, logStream, store)
		}
		if err != nil {
			log.Fatal(err)
		}
		engines[i].IDs().Bump(uint64(i+1) << 40)
	}

	// Node 0 creates the table; node 1 finds it through the shared catalog.
	t0, err := engines[0].CreateTable(clk, "orders")
	if err != nil {
		log.Fatal(err)
	}
	t1, err := engines[1].Table(clk, "orders")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("node 1 opened the table node 0 created — one catalog, in CXL")

	// Both primaries insert into the same key space, alternating.
	for k := int64(1); k <= 600; k++ {
		node := int(k % 2)
		tree := t0
		if node == 1 {
			tree = t1
		}
		tx := engines[node].Begin(clk)
		if err := tx.Insert(tree, k, []byte(fmt.Sprintf("order %04d placed on primary-%d, details=%060d", k, node, k))); err != nil {
			log.Fatalf("node %d insert %d: %v", node, k, err)
		}
		if err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	h, _ := t0.Height(clk)
	fmt.Printf("600 orders committed from 2 primaries; shared B+tree height %d (co-owned splits)\n", h)

	// Cross-reads: node 1 scans rows node 0 wrote, and vice versa.
	tx := engines[1].Begin(clk)
	kvs, err := tx.Scan(t1, 1, 5)
	if err != nil {
		log.Fatal(err)
	}
	tx.Commit()
	for _, kv := range kvs {
		fmt.Printf("  primary-1 reads key %d: %.40s...\n", kv.Key, kv.Val)
	}

	// Validate from both viewpoints and checkpoint through the fusion server.
	if err := t0.Validate(clk); err != nil {
		log.Fatal("node 0 validate: ", err)
	}
	if err := t1.Validate(clk); err != nil {
		log.Fatal("node 1 validate: ", err)
	}
	if err := engines[0].Checkpoint(clk); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tree valid from both nodes; checkpoint flushed %d shared pages to storage\n", store.PageCount())
	fmt.Printf("fusion served %d page-address RPCs; total virtual time %.2f ms\n",
		dep.Fusion.GetCalls(), clk.Seconds()*1000)
}
