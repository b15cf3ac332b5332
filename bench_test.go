package polarcxlmem_test

// One testing.B benchmark per paper table/figure, plus microbenchmarks of
// the core primitives. The experiment benches run the same drivers as
// `polarbench` in quick mode and report the headline throughput as a custom
// metric, so `go test -bench=.` regenerates every artifact end to end.
//
// This file is an external test package: internal/bench imports the facade
// (for the tiering experiment), so importing it from an in-package test
// would be a cycle.

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"testing"

	polar "polarcxlmem"
	"polarcxlmem/internal/bench"
	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/core"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/mtr"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/wal"
	"polarcxlmem/internal/workload"
)

// runExperiment drives one bench experiment b.N times (normally once) and
// discards the tables after a sanity check.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(bench.Config{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
		for _, t := range tables {
			t.Print(io.Discard)
		}
	}
}

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkFig1(b *testing.B)   { runExperiment(b, "fig1") }
func BenchmarkFig3(b *testing.B)   { runExperiment(b, "fig3") }
func BenchmarkFig7(b *testing.B)   { runExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { runExperiment(b, "fig13") }
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

// --- microbenchmarks: core primitives ---------------------------------------

func BenchmarkCXLPoolPointRead(b *testing.B) {
	store := storage.New(storage.Config{})
	clk := simclock.New()
	host, err := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: core.RegionSizeFor(512) + 4096}).AttachHost("h", 0)
	if err != nil {
		b.Fatal(err)
	}
	region, err := host.Allocate(clk, "db", core.RegionSizeFor(512))
	if err != nil {
		b.Fatal(err)
	}
	pool, err := core.Format(host, region, host.NewCache("db", 2<<20), store)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := txn.Bootstrap(clk, pool, wal.Attach(wal.NewStore(0, 0)), store)
	if err != nil {
		b.Fatal(err)
	}
	sb, err := workload.NewSysbench(clk, eng, 1, 4000, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	start := clk.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sb.PointSelect(clk, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(clk.Now()-start)/float64(b.N)/1000, "virtual-us/op")
}

func BenchmarkTieredPoolPointRead(b *testing.B) {
	store := storage.New(storage.Config{})
	clk := simclock.New()
	nic := rdma.NewNIC("h", 0, 0)
	remote := buffer.NewRemoteMemory("rm", 4096)
	pool := buffer.NewTieredPool(store, remote, nic, 24, cxl.BufferDRAMProfile())
	eng, err := txn.Bootstrap(clk, pool, wal.Attach(wal.NewStore(0, 0)), store)
	if err != nil {
		b.Fatal(err)
	}
	sb, err := workload.NewSysbench(clk, eng, 1, 4000, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	startNIC := nic.Bandwidth().Stats().Units
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sb.PointSelect(clk, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(nic.Bandwidth().Stats().Units-startNIC)/float64(b.N), "NIC-B/op")
}

func BenchmarkBTreeInsert(b *testing.B) {
	store := storage.New(storage.Config{})
	clk := simclock.New()
	pool := buffer.NewDRAMPool(store, 8192, cxl.BufferDRAMProfile())
	eng, err := txn.Bootstrap(clk, pool, wal.Attach(wal.NewStore(0, 0)), store)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := eng.CreateTable(clk, "t")
	if err != nil {
		b.Fatal(err)
	}
	ids := &mtr.IDGen{}
	val := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(clk, ids.Next(), int64(i), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALAppendFlush(b *testing.B) {
	ws := wal.NewStore(0, 0)
	log := wal.Attach(ws)
	clk := simclock.New()
	rec := wal.Record{Kind: wal.KUpdate, Page: 1, Key: 2, Value: make([]byte, 100)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log.Append(rec)
		if i%100 == 99 {
			log.Flush(clk)
		}
	}
}

func BenchmarkSharedRMW(b *testing.B) {
	sc, err := polar.NewSharingCluster(polar.SharingConfig{Nodes: 2, DBPPages: 16})
	if err != nil {
		b.Fatal(err)
	}
	pid, err := sc.SeedPage()
	if err != nil {
		b.Fatal(err)
	}
	clk := sc.Clock()
	start := clk.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := sc.Node(i%2).ReadModifyWrite(clk, pid, 64, 8, func(bs []byte) { bs[0]++ })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(clk.Now()-start)/float64(b.N)/1000, "virtual-us/op")
}

func BenchmarkPolarRecvScan(b *testing.B) {
	// Recovery cost as a function of pool size: build once, crash/recover
	// b.N times.
	cluster, err := polar.NewCluster(polar.ClusterConfig{PoolPages: 1024})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := cluster.Start(polar.InstanceConfig{Name: "db", PoolPages: 512})
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := inst.CreateTable("t")
	if err != nil {
		b.Fatal(err)
	}
	tx := inst.Begin()
	for k := int64(0); k < 5000; k++ {
		if err := tx.Insert(tbl, k, []byte(strconv.Itoa(int(k)))); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	if err := inst.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var totalVirtual int64
	for i := 0; i < b.N; i++ {
		inst.Crash()
		inst2, rec, err := cluster.Recover("db")
		if err != nil {
			b.Fatal(err)
		}
		totalVirtual += rec.Nanos()
		inst = inst2
	}
	b.ReportMetric(float64(totalVirtual)/float64(b.N)/1e6, "virtual-ms/recovery")
	_ = fmt.Sprint()
}
