// Pooling: the fig. 7 scenario — many database instances on one host share
// its interconnect to disaggregated memory. The RDMA design moves whole
// 16 KB pages per buffer miss and saturates the 12 GB/s NIC after a few
// instances; PolarCXLMem touches only the cache lines it needs and keeps
// scaling. This example runs both substrates functionally, measures
// per-operation demands, and sweeps the instance count with the
// closed-network solver.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/core"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/perf"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/wal"
	"polarcxlmem/internal/workload"
)

const (
	tableRows  = 4000
	measureOps = 1500
)

// buildAndMeasure loads a sysbench table on the given pool and measures
// per-query demands for point-select.
func buildAndMeasure(name string, mk func(store *storage.Store, clk *simclock.Clock) (buffer.Pool, func() int64)) perf.Demands {
	store := storage.New(storage.Config{})
	clk := simclock.New()
	pool, nicBytes := mk(store, clk)
	eng, err := txn.Bootstrap(clk, pool, wal.Attach(wal.NewStore(0, 0)), store)
	if err != nil {
		log.Fatal(err)
	}
	sb, err := workload.NewSysbench(clk, eng, 1, tableRows, 1)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < measureOps/2; i++ { // warm
		if err := sb.PointSelect(clk, rng); err != nil {
			log.Fatal(err)
		}
	}
	startClk, startQ, startNIC := clk.Now(), sb.Queries, nicBytes()
	for i := 0; i < measureOps; i++ {
		if err := sb.PointSelect(clk, rng); err != nil {
			log.Fatal(err)
		}
	}
	q := float64(sb.Queries - startQ)
	d := perf.Demands{
		CPUNs:    float64(clk.Now()-startClk) / q,
		NICBytes: float64(nicBytes()-startNIC) / q,
	}
	fmt.Printf("%-12s per-op: %.1f us CPU, %.0f B over the NIC\n", name, d.CPUNs/1000, d.NICBytes)
	return d
}

func main() {
	fmt.Println("measuring per-operation demands (functional run)...")

	rdmaDemand := buildAndMeasure("RDMA (LBP-30%)", func(store *storage.Store, clk *simclock.Clock) (buffer.Pool, func() int64) {
		nic := rdma.NewNIC("host0", 0, 0)
		remote := buffer.NewRemoteMemory("remote", 4096)
		pool := buffer.NewTieredPool(store, remote, nic, 24, cxl.BufferDRAMProfile(), nil)
		return pool, func() int64 { return nic.Bandwidth().Stats().Units }
	})

	cxlDemand := buildAndMeasure("PolarCXLMem", func(store *storage.Store, clk *simclock.Clock) (buffer.Pool, func() int64) {
		host, err := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: core.RegionSizeFor(4096)}, nil).AttachHost("host0", 0)
		if err != nil {
			log.Fatal(err)
		}
		region, err := host.Allocate(clk, "db0", core.RegionSizeFor(2048))
		if err != nil {
			log.Fatal(err)
		}
		pool, err := core.Format(host, region, host.NewCache("db0", 2<<20), store)
		if err != nil {
			log.Fatal(err)
		}
		return pool, func() int64 { return host.Link().Stats().Units }
	})

	fmt.Println("\ninstances  RDMA K-QPS  (NIC GB/s)   CXL K-QPS")
	for _, inst := range []int{1, 2, 3, 4, 6, 8, 12} {
		r := perf.MVA(perf.PoolingStations(rdmaDemand, perf.DefaultRates(), inst, 16), inst*48)
		c := perf.MVA(perf.PoolingStations(cxlDemand, perf.DefaultRates(), inst, 16), inst*48)
		fmt.Printf("%9d  %10.0f  (%9.2f)  %10.0f\n",
			inst, r.Throughput/1e3, r.Throughput*rdmaDemand.NICBytes/1e9, c.Throughput/1e3)
	}
	fmt.Println("\nthe RDMA column plateaus when its NIC saturates; PolarCXLMem keeps scaling.")
}
