// Command polarsim runs an interactive-scale single-cluster simulation and
// dumps the state of every substrate: a quick way to see the system work
// end-to-end (load, query, crash, instant recovery) with virtual-time and
// device-traffic accounting.
//
// Usage:
//
//	polarsim [-rows N] [-pool P] [-crash]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"polarcxlmem"
)

func main() {
	rows := flag.Int64("rows", 5000, "rows to load into the demo table")
	pool := flag.Int64("pool", 256, "buffer pool size in CXL blocks")
	crash := flag.Bool("crash", true, "crash the instance and run PolarRecv")
	fsck := flag.Bool("fsck", true, "verify CXL pool invariants after recovery")
	flag.Parse()

	cluster, err := polarcxlmem.NewCluster(polarcxlmem.ClusterConfig{PoolPages: *pool * 2})
	if err != nil {
		fail(err)
	}
	inst, err := cluster.Start(polarcxlmem.InstanceConfig{Name: "demo", PoolPages: *pool})
	if err != nil {
		fail(err)
	}
	tbl, err := inst.CreateTable("demo")
	if err != nil {
		fail(err)
	}

	fmt.Printf("loading %d rows ...\n", *rows)
	tx := inst.Begin()
	for k := int64(1); k <= *rows; k++ {
		if err := tx.Insert(tbl, k, []byte(fmt.Sprintf("row-%08d-payload-padding-to-make-it-realistic", k))); err != nil {
			fail(err)
		}
		if k%1000 == 0 {
			if err := tx.Commit(); err != nil {
				fail(err)
			}
			tx = inst.Begin()
		}
	}
	if err := tx.Commit(); err != nil {
		fail(err)
	}
	if err := inst.Checkpoint(); err != nil {
		fail(err)
	}
	loadedAt := inst.Clock().Seconds()
	fmt.Printf("loaded at virtual t=%.3fs; CXL-resident pages: %d\n", loadedAt, inst.Pool().Resident())

	rng := rand.New(rand.NewSource(1))
	const queries = 2000
	qStart := inst.Clock().Now()
	tq := inst.Begin()
	for i := 0; i < queries; i++ {
		if _, err := tq.Get(tbl, 1+rng.Int63n(*rows)); err != nil {
			fail(err)
		}
	}
	tq.Commit()
	perOp := float64(inst.Clock().Now()-qStart) / queries / 1000
	fmt.Printf("%d point reads: %.1f us/op virtual (single worker)\n", queries, perOp)

	st := cluster.Topology().Leaf(0).Fabric().Stats()
	fmt.Printf("CXL fabric traffic: %.1f MB over the run\n", float64(st.Units)/1e6)

	if !*crash {
		return
	}
	// Post-checkpoint committed work so recovery has redo to consult.
	tw := inst.Begin()
	for i := 0; i < 500; i++ {
		k := 1 + rng.Int63n(*rows)
		if err := tw.Update(tbl, k, []byte(fmt.Sprintf("updated-%08d------------------------------", k))); err != nil {
			fail(err)
		}
	}
	tw.Commit()
	// And an in-flight transaction that dies with the host.
	tu := inst.Begin()
	tu.Update(tbl, 1, []byte("UNCOMMITTED------------------------------------"))

	fmt.Printf("\ncrashing instance at virtual t=%.3fs ...\n", inst.Clock().Seconds())
	inst.Crash()
	inst2, rec, err := cluster.Recover("demo")
	if err != nil {
		fail(err)
	}
	fmt.Printf("PolarRecv: %.3f ms virtual\n", float64(rec.Nanos())/1e6)
	fmt.Printf("  pages trusted in place: %d\n", rec.PagesTrusted)
	fmt.Printf("  pages rebuilt from redo: %d\n", rec.PagesRebuilt)
	fmt.Printf("  uncommitted txns undone: %d (%d ops)\n", rec.UndoneTxns, rec.UndoOps)
	fmt.Printf("  buffer warm after restart: %d pages\n", rec.WarmPages)

	tbl2, err := inst2.OpenTable("demo")
	if err != nil {
		fail(err)
	}
	tv := inst2.Begin()
	v, err := tv.Get(tbl2, 1)
	if err != nil {
		fail(err)
	}
	tv.Commit()
	fmt.Printf("  row 1 after recovery: %q (uncommitted update discarded)\n", trim(v))

	if *fsck {
		rep := inst2.Pool().Fsck()
		if rep.OK() {
			fmt.Printf("fsck: OK — %d blocks (%d in use, %d free), 0 problems\n", rep.Blocks, rep.InUse, rep.Free)
		} else {
			fmt.Printf("fsck: %d problems:\n", len(rep.Problems))
			for _, p := range rep.Problems {
				fmt.Println("  -", p)
			}
			os.Exit(1)
		}
	}
}

func trim(b []byte) string {
	if len(b) > 24 {
		return string(b[:24]) + "..."
	}
	return string(b)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "polarsim:", err)
	os.Exit(1)
}
