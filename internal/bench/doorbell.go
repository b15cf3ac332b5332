package bench

import (
	"fmt"

	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/perf"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/simclock"
)

func init() {
	register(Experiment{ID: "doorbell", Title: "Motivation §2.2(3): RDMA IOPS scaling wall vs CXL load/store", Run: runDoorbell})
}

// runDoorbell reproduces the motivation the paper cites from prior work
// ("existing IOPS-bound disaggregated applications do not scale well beyond
// 32 cores" — doorbell-register contention and NIC cache thrashing): an
// IOPS-bound microworkload (64 B random remote reads, minimal CPU) swept
// over core counts, RDMA verbs vs CXL loads.
func runDoorbell(cfg Config) ([]*Table, error) {
	t := &Table{ID: "doorbell", Title: "64 B remote reads: M ops/s vs cores on one host",
		Headers: []string{"cores", "RDMA M-IOPS", "RDMA bottleneck", "CXL M-ops/s", "CXL bottleneck"}}

	// Measure one RDMA verb and one cached CXL load functionally.
	pool := rdma.NewPool("p", 1<<20)
	nic := rdma.NewNIC("h", 0, 0)
	clk := simclock.New()
	buf := make([]byte, 64)
	const probes = 32
	for i := 0; i < probes; i++ {
		if err := pool.Read(clk, nic, int64(i)*64, buf); err != nil {
			return nil, err
		}
	}
	verbNs := float64(clk.Now()) / probes

	host, err := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: 1 << 22}, nil).AttachHost("h", 0)
	if err != nil {
		return nil, err
	}
	clk2 := simclock.New()
	region, err := host.Allocate(clk2, "probe", 1<<21)
	if err != nil {
		return nil, err
	}
	cache := host.NewCache("probe", 1<<16) // tiny: every load misses
	t0 := clk2.Now()
	cache.Hold()
	for i := 0; i < probes; i++ {
		if err := cache.ReadHeld(clk2, region, int64(i)*4096, buf); err != nil {
			cache.Unhold()
			return nil, err
		}
	}
	cache.Unhold()
	loadNs := float64(clk2.Now()-t0) / probes

	// The op: remote access + ~1 us of application CPU. RDMA polls the
	// completion queue, so the verb latency occupies the core too.
	const appCPUNs = 1_000
	r := perf.DefaultRates()
	for _, cores := range []int{8, 16, 32, 64, 128, 192} {
		rd := perf.Demands{
			CPUNs:    appCPUNs + verbNs,
			NICBytes: 64,
			Verbs:    1,
		}
		rres := perf.MVA(perf.PoolingStations(rd, r, cores, 1), cores*4)
		cd := perf.Demands{
			CPUNs:        appCPUNs + loadNs,
			CXLLinkBytes: 64,
		}
		cres := perf.MVA(perf.PoolingStations(cd, r, cores, 1), cores*4)
		t.AddRow(fmt.Sprintf("%d", cores),
			f2(rres.Throughput/1e6), rres.Bottleneck,
			f2(cres.Throughput/1e6), cres.Bottleneck)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("one 64 B verb costs %.0f ns (doorbell+latency); one uncached CXL load %.0f ns", verbNs, loadNs),
		"the RDMA column hits the per-NIC doorbell wall (~15 M verbs/s) around 32-64 cores, as prior work reports;",
		"CXL loads are plain memory instructions — no shared issue structure short of the 64 GB/s link")
	return []*Table{t}, nil
}
