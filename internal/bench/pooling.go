package bench

import (
	"fmt"
	"math/rand"

	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/perf"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simmem"
)

func init() {
	register(Experiment{ID: "table1", Title: "Access latency: DRAM vs CXL (±switch, ±NUMA)", Run: runTable1})
	register(Experiment{ID: "table2", Title: "Data transfer latency: RDMA vs CXL, 64B-16KB", Run: runTable2})
	register(Experiment{ID: "fig1", Title: "Impact of LBP size in RDMA-based systems", Run: runFig1})
	register(Experiment{ID: "fig3", Title: "DRAM-based vs CXL-based buffer pool", Run: runFig3})
	register(Experiment{ID: "fig7", Title: "Pooling: Sysbench point-select, RDMA vs PolarCXLMem", Run: runFig7})
	register(Experiment{ID: "fig8", Title: "Pooling: Sysbench range-select", Run: runFig8})
	register(Experiment{ID: "fig9", Title: "Pooling: Sysbench read-write", Run: runFig9})
}

// runTable1 measures a single cached load against each memory profile — the
// MLC-style latency check. The values echo the calibration (Table 1), which
// is the point: the substrate reproduces the paper's measured device
// behaviour before any system claims are evaluated on it.
func runTable1(cfg Config) ([]*Table, error) {
	t := &Table{ID: "table1", Title: "Access latency (ns), measured through the simulated devices",
		Headers: []string{"memory", "local", "remote-NUMA", "paper-local", "paper-remote"}}
	type row struct {
		name          string
		local, remote simmem.Profile
		pl, pr        int64
	}
	rows := []row{
		{"DRAM", cxl.DRAMProfile(), cxl.DRAMRemoteProfile(), 146, 231},
		{"CXL w/o switch", cxl.NoSwitchProfile(), cxl.NoSwitchRemoteProfile(), 265, 346},
		{"CXL w. switch", cxl.SwitchProfile(), cxl.SwitchRemoteProfile(), 549, 651},
	}
	measure := func(p simmem.Profile) (int64, error) {
		dev := simmem.NewDevice("probe", 4096, p, nil)
		clk := simclock.New()
		if _, err := dev.WholeRegion().Load64(clk, 0); err != nil {
			return 0, err
		}
		return clk.Now(), nil
	}
	for _, r := range rows {
		local, err := measure(r.local)
		if err != nil {
			return nil, fmt.Errorf("table1: probing %s local: %w", r.name, err)
		}
		remote, err := measure(r.remote)
		if err != nil {
			return nil, fmt.Errorf("table1: probing %s remote: %w", r.name, err)
		}
		t.AddRow(r.name,
			fmt.Sprintf("%d", local),
			fmt.Sprintf("%d", remote),
			fmt.Sprintf("%d", r.pl), fmt.Sprintf("%d", r.pr))
	}
	t.Notes = append(t.Notes, "calibration echo: these devices are the substrate every experiment runs on")
	return []*Table{t}, nil
}

// runTable2 measures actual one-shot transfers through the RDMA verbs and
// the CXL bulk-copy path.
func runTable2(cfg Config) ([]*Table, error) {
	t := &Table{ID: "table2", Title: "Data transfer latency (us): write = local->remote, read = remote->local",
		Headers: []string{"size", "RDMA write", "CXL write", "RDMA read", "CXL read"}}
	pool := rdma.NewPool("probe", 1<<20)
	host, err := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: 1 << 20}).AttachHost("probe", 0)
	if err != nil {
		return nil, err
	}
	sizes := []int64{64, 512, 1024, 4096, 16384}
	for _, sz := range sizes {
		buf := make([]byte, sz)
		nic := rdma.NewNIC("probe", 0, 0)
		wclk := simclock.New()
		if err := pool.Write(wclk, nic, 0, buf); err != nil {
			return nil, err
		}
		rclk := simclock.New()
		if err := pool.Read(rclk, nic, 0, buf); err != nil {
			return nil, err
		}
		cwclk := simclock.New()
		if err := host.TransferWrite(cwclk, sz); err != nil {
			return nil, err
		}
		crclk := simclock.New()
		if err := host.TransferRead(crclk, sz); err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%dB", sz),
			f2(float64(wclk.Now())/1e3), f2(float64(cwclk.Now())/1e3),
			f2(float64(rclk.Now())/1e3), f2(float64(crclk.Now())/1e3))
	}
	t.Notes = append(t.Notes, "paper Table 2: RDMA 64B w/r 4.48/4.55us, 16KB 6.12/7.13us; CXL 64B 0.78/0.75us, 16KB 1.68/2.46us")
	return []*Table{t}, nil
}

// mixes returns the workload closure for a rig by name.
func pointSelectMix(r *poolingRig, rng *rand.Rand) func() error {
	return func() error { return r.sb.PointSelect(r.clk, rng) }
}

// runFig1 sweeps the LBP size of the RDMA-based tiered pool and reports
// throughput and RDMA bandwidth for point-select and read-write on one
// 16-vCPU instance.
func runFig1(cfg Config) ([]*Table, error) {
	rows := int64(cfg.ops(2500, 20000))
	warm := cfg.ops(800, 6000)
	meas := cfg.ops(1200, 10000)
	fracs := []float64{0.10, 0.30, 0.50, 0.70, 1.00}

	var out []*Table
	for _, wl := range []struct {
		name    string
		threads int
		mix     func(r *poolingRig, rng *rand.Rand) func() error
		perTxn  int // queries per mix invocation (for op budgeting)
	}{
		{"point-select", threadsPointSelect, pointSelectMix, 1},
		{"read-write", threadsReadWrite, func(r *poolingRig, rng *rand.Rand) func() error {
			return func() error { return r.sb.ReadWriteTxn(r.clk, rng) }
		}, 18},
	} {
		t := &Table{ID: "fig1", Title: "LBP size sweep, Sysbench " + wl.name + " (1 instance, 16 vCPU)",
			Headers: []string{"LBP size", "throughput (K-QPS)", "RDMA bandwidth (GB/s)"}}
		for _, frac := range fracs {
			rig, err := newPoolingRig(PoolTiered, 1, rows, frac)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(11))
			d, err := rig.measure(wl.mix(rig, rng), warm/wl.perTxn+1, meas/wl.perTxn+1)
			if err != nil {
				return nil, err
			}
			res := perf.MVA(perf.PoolingStations(d, perf.DefaultRates(), 1, vCPUsPerInstance), wl.threads)
			t.AddRow(pct(frac), kqps(res.Throughput), gbps(res.Throughput*d.NICBytes))
		}
		t.Notes = append(t.Notes, "LBP-100% holds the whole dataset: remote traffic drops to cold misses only")
		out = append(out, t)
	}
	return out, nil
}

// scaleTable runs an instance sweep for a set of systems/demands and
// produces throughput/latency/bandwidth columns.
type sweepSystem struct {
	name string
	d    perf.Demands
	bw   func(x float64, d perf.Demands) float64 // reported interconnect bandwidth
}

func nicBW(x float64, d perf.Demands) float64 { return x * d.NICBytes }
func cxlBW(x float64, d perf.Demands) float64 { return x * (d.CXLLinkBytes + d.FabricBytes) / 2 }

func sweep(id, title string, systems []sweepSystem, instances []int, threads int) *Table {
	t := &Table{ID: id, Title: title,
		Headers: []string{"instances"}}
	for _, s := range systems {
		t.Headers = append(t.Headers,
			s.name+" K-QPS", s.name+" lat(us)", s.name+" GB/s")
	}
	for _, inst := range instances {
		row := []string{fmt.Sprintf("%d", inst)}
		for _, s := range systems {
			res := perf.MVA(perf.PoolingStations(s.d, perf.DefaultRates(), inst, vCPUsPerInstance), inst*threads)
			row = append(row, kqps(res.Throughput), us(res.Latency), gbps(s.bw(res.Throughput, s.d)))
		}
		t.AddRow(row...)
	}
	return t
}

// runFig3 compares DRAM-BP with CXL-BP across 1-12 instances on the three
// sysbench workloads.
func runFig3(cfg Config) ([]*Table, error) {
	rows := int64(cfg.ops(2500, 20000))
	warm := cfg.ops(600, 5000)
	meas := cfg.ops(1000, 8000)
	instances := []int{1, 2, 4, 6, 8, 10, 12}

	type wl struct {
		name    string
		threads int
		mix     func(r *poolingRig, rng *rand.Rand) func() error
		div     int
	}
	wls := []wl{
		{"point-select", threadsPointSelect, pointSelectMix, 1},
		{"range-select", threadsRangeSelect, func(r *poolingRig, rng *rand.Rand) func() error {
			return func() error { return r.sb.RangeSelect(r.clk, rng) }
		}, 1},
		{"read-write", threadsReadWrite, func(r *poolingRig, rng *rand.Rand) func() error {
			return func() error { return r.sb.ReadWriteTxn(r.clk, rng) }
		}, 18},
	}
	var out []*Table
	for _, w := range wls {
		var systems []sweepSystem
		for _, kind := range []PoolKind{PoolDRAM, PoolCXL} {
			rig, err := newPoolingRig(kind, 1, rows, 0)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(12))
			d, err := rig.measure(w.mix(rig, rng), warm/w.div+1, meas/w.div+1)
			if err != nil {
				return nil, err
			}
			systems = append(systems, sweepSystem{name: kind.String(), d: d, bw: cxlBW})
		}
		t := sweep("fig3", "DRAM-BP vs CXL-BP, Sysbench "+w.name, systems, instances, w.threads)
		// Also report the relative gap at max scale.
		last := len(t.Rows) - 1
		t.Notes = append(t.Notes, fmt.Sprintf("paper: CXL-BP within ~7%%/10%% of DRAM-BP; at 12 instances this run shows DRAM %s vs CXL %s K-QPS",
			t.Rows[last][1], t.Rows[last][4]))
		out = append(out, t)
	}
	return out, nil
}

// poolingCompare builds RDMA(30% LBP) vs PolarCXLMem demand pairs for a mix.
func poolingCompare(cfg Config, mix func(r *poolingRig, rng *rand.Rand) func() error, div int) ([]sweepSystem, error) {
	rows := int64(cfg.ops(2500, 20000))
	warm := cfg.ops(600, 5000)
	meas := cfg.ops(1000, 8000)
	var systems []sweepSystem
	for _, k := range []PoolKind{PoolTiered, PoolCXL} {
		rig, err := newPoolingRig(k, 1, rows, 0.30)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(13))
		d, err := rig.measure(mix(rig, rng), warm/div+1, meas/div+1)
		if err != nil {
			return nil, err
		}
		bw := nicBW
		if k == PoolCXL {
			bw = cxlBW
		}
		systems = append(systems, sweepSystem{name: k.String(), d: d, bw: bw})
	}
	return systems, nil
}

// runFig7 is the headline pooling experiment: point-select, 48 threads per
// instance, 1-12 instances sharing one host NIC.
func runFig7(cfg Config) ([]*Table, error) {
	systems, err := poolingCompare(cfg, pointSelectMix, 1)
	if err != nil {
		return nil, err
	}
	t := sweep("fig7", "Pooling: Sysbench point-select (48 thr/inst)", systems,
		[]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, threadsPointSelect)
	t.Notes = append(t.Notes,
		"paper: RDMA saturates its NIC (~11 GB/s) at 3 instances and ~1.1M QPS; PolarCXLMem scales to 12 instances (~3.6M QPS)")
	return []*Table{t}, nil
}

// runFig8 is the range-select variant (32 threads per instance).
func runFig8(cfg Config) ([]*Table, error) {
	systems, err := poolingCompare(cfg, func(r *poolingRig, rng *rand.Rand) func() error {
		return func() error { return r.sb.RangeSelect(r.clk, rng) }
	}, 1)
	if err != nil {
		return nil, err
	}
	t := sweep("fig8", "Pooling: Sysbench range-select (32 thr/inst)", systems,
		[]int{2, 4, 8, 12}, threadsRangeSelect)
	t.Notes = append(t.Notes, "paper: RDMA saturates at 4 instances (~11 GB/s); range queries amplify less but move more bytes")
	return []*Table{t}, nil
}

// runFig9 is the read-write variant (48 threads per instance).
func runFig9(cfg Config) ([]*Table, error) {
	systems, err := poolingCompare(cfg, func(r *poolingRig, rng *rand.Rand) func() error {
		return func() error { return r.sb.ReadWriteTxn(r.clk, rng) }
	}, 18)
	if err != nil {
		return nil, err
	}
	t := sweep("fig9", "Pooling: Sysbench read-write (48 thr/inst)", systems,
		[]int{2, 4, 8, 12}, threadsReadWrite)
	t.Notes = append(t.Notes, "paper: RDMA saturates at 8 instances; single-instance RDMA bandwidth ~40% above CXL (write amplification)")
	return []*Table{t}, nil
}
