package bench

import (
	"fmt"
	"math/rand"

	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/perf"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/sharing"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simcpu"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/workload"
)

func init() {
	register(Experiment{ID: "fig11", Title: "Sharing: Sysbench point-update vs shared-data %", Run: runFig11})
	register(Experiment{ID: "fig12", Title: "Sharing: Sysbench read-write, 8 & 12 nodes", Run: runFig12})
	register(Experiment{ID: "fig13", Title: "Sharing breakdown: RDMA LBP size sweep vs PolarCXLMem", Run: runFig13})
	register(Experiment{ID: "table3", Title: "TPC-C and TATP on a 15-node cluster", Run: runTable3})
}

const sharingThreadsPerNode = 32

// shRig is a multi-primary deployment: either CXL nodes over a fusion
// server, or RDMA-MP nodes with LBPs.
type shRig struct {
	isCXL  bool
	dep    *sharing.Deployment
	rfus   *sharing.Fusion
	cnodes []*sharing.Node
	rnodes []*sharing.RDMANode
	rnics  []*rdma.NIC
	store  *storage.Store
	clk    *simclock.Clock
}

// node returns node i as the workload-facing interface.
func (r *shRig) node(i int) workload.SharedNode {
	if r.isCXL {
		return r.cnodes[i]
	}
	return r.rnodes[i]
}

func (r *shRig) nodes() int {
	if r.isCXL {
		return len(r.cnodes)
	}
	return len(r.rnodes)
}

// newCXLSharingRig builds nnodes CXL nodes over one fusion server with a
// DBP of dbpPages. coherent puts every node cache in one simcpu.Domain —
// the CXL 3.0 projection, where the nodes run the hardware-coherent regime.
// reg (nil for none) instruments the fabric and the fusion server.
func newCXLSharingRig(reg *obs.Registry, store *storage.Store, clk *simclock.Clock, dbpPages, nnodes int, coherent bool) (*shRig, error) {
	r := &shRig{isCXL: true, store: store, clk: clk}
	topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: int64(dbpPages)*page.Size + int64(nnodes+1)*(1<<17)}, reg)
	dep, err := sharing.NewDeployment(clk, topo, "fusion", dbpPages, store)
	if err != nil {
		return nil, err
	}
	r.dep = dep
	var dom *simcpu.Domain
	name := "node-%d"
	if coherent {
		dom, name = simcpu.NewDomain(0), "hw-%d"
	}
	for i := 0; i < nnodes; i++ {
		p, err := dep.AttachPrimary(clk, fmt.Sprintf(name, i), 0, 1<<17, 2<<20)
		if err != nil {
			return nil, err
		}
		if dom != nil {
			dom.Attach(p.Cache)
		}
		r.cnodes = append(r.cnodes, sharing.NewNode(p.Name, dep.Fusion, p.Cache, p.Flags))
	}
	return r, nil
}

// newRDMASharingRig builds nnodes RDMA-MP nodes; lbpPages is each node's
// local buffer pool capacity.
func newRDMASharingRig(store *storage.Store, clk *simclock.Clock, dbpPages, nnodes, lbpPages int) (*shRig, error) {
	r := &shRig{store: store, clk: clk}
	r.rfus = sharing.NewRDMAFusion(dbpPages, store)
	for i := 0; i < nnodes; i++ {
		name := fmt.Sprintf("rnode-%d", i)
		nic := rdma.NewNIC(name, 0, 0)
		r.rnics = append(r.rnics, nic)
		r.rnodes = append(r.rnodes, sharing.NewRDMANode(name, r.rfus, nic, lbpPages))
	}
	return r, nil
}

// nicBytes sums all node NICs.
func (r *shRig) nicBytes() int64 {
	var n int64
	for _, nic := range r.rnics {
		n += nic.Bandwidth().Stats().Units
	}
	return n
}

func (r *shRig) verbs() int64 {
	var n int64
	for _, nic := range r.rnics {
		n += nic.Doorbell().Stats().Units
	}
	return n
}

func (r *shRig) fabricBytes() int64 {
	if r.dep == nil {
		return 0
	}
	return r.dep.Host.Leaf().Fabric().Stats().Units
}

// sharingWorkload abstracts which adapted-sysbench transaction runs.
type sharingWorkload struct {
	name          string
	run           func(w *workload.SharedSysbench, clk *simclock.Clock, node workload.SharedNode, idx int, rng *rand.Rand) error
	writesPerTxn  float64 // write-locked accesses per transaction
	queriesPerTxn float64
	readsLockWt   float64 // contribution of shared READ locks to the lock pool
}

var pointUpdateWL = sharingWorkload{
	name: "point-update",
	run: func(w *workload.SharedSysbench, clk *simclock.Clock, node workload.SharedNode, idx int, rng *rand.Rand) error {
		return w.PointUpdateTxn(clk, node, idx, rng)
	},
	writesPerTxn: 10, queriesPerTxn: 10, readsLockWt: 0,
}

var readWriteWL = sharingWorkload{
	name: "read-write",
	run: func(w *workload.SharedSysbench, clk *simclock.Clock, node workload.SharedNode, idx int, rng *rand.Rand) error {
		return w.ReadWriteTxn(clk, node, idx, rng)
	},
	writesPerTxn: 4, queriesPerTxn: 18, readsLockWt: 0.3,
}

// measureSharing runs the functional workload on the rig and produces
// demands for the MVA sharing model.
func measureSharing(cfg Config, r *shRig, layout *workload.Layout, wl sharingWorkload, sharedPct int) (perf.Demands, error) {
	w := &workload.SharedSysbench{Layout: layout, SharedPct: sharedPct}
	rng := rand.New(rand.NewSource(31))
	warm := cfg.ops(6, 30)
	meas := cfg.ops(20, 120)
	nodes := r.nodes()
	runRound := func(n int) error {
		for i := 0; i < n; i++ {
			for idx := 0; idx < nodes; idx++ {
				if err := wl.run(w, r.clk, r.node(idx), idx, rng); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := runRound(warm); err != nil {
		return perf.Demands{}, fmt.Errorf("sharing warmup: %w", err)
	}
	startClk := r.clk.Now()
	startQ := w.Queries
	startNIC := r.nicBytes()
	startVerbs := r.verbs()
	startFabric := r.fabricBytes()
	startStorage := r.store.Device().Stats().Units
	if err := runRound(meas); err != nil {
		return perf.Demands{}, fmt.Errorf("sharing measure: %w", err)
	}
	q := float64(w.Queries - startQ)
	if q == 0 {
		return perf.Demands{}, fmt.Errorf("sharing: no queries measured")
	}
	// Every record access pays a lock + unlock RPC round trip: that time is
	// a wait, not CPU.
	rpcWaitNs := 2 * float64(sharing.RPCNanos)
	clockPerOp := float64(r.clk.Now()-startClk) / q
	cpu := clockPerOp - rpcWaitNs
	if cpu < 1000 {
		cpu = 1000
	}
	d := perf.Demands{
		Ops:          int64(q),
		CPUNs:        cpu,
		NICBytes:     (float64(r.nicBytes() - startNIC)) / q,
		Verbs:        (float64(r.verbs() - startVerbs)) / q,
		FabricBytes:  (float64(r.fabricBytes() - startFabric)) / q,
		CXLLinkBytes: (float64(r.fabricBytes() - startFabric)) / q, // per-node link sees its own share
		StorageBytes: float64(r.store.Device().Stats().Units-startStorage) / q,
		DelayNs:      rpcWaitNs,
	}
	// Lock-pool parameters: probe the hold time of one shared write.
	d.HotPages = layout.PagesPerGroup
	writeFrac := wl.writesPerTxn / wl.queriesPerTxn
	readFrac := 1 - writeFrac
	d.LockProb = float64(sharedPct) / 100 * (writeFrac + wl.readsLockWt*readFrac)
	hold, err := probeHold(r, layout)
	if err != nil {
		return perf.Demands{}, fmt.Errorf("sharing hold probe: %w", err)
	}
	d.LockHoldNs = hold
	return d, nil
}

// probeHold measures the virtual time one shared-page write holds its page
// lock (lock + access + publish + unlock/invalidate).
func probeHold(r *shRig, layout *workload.Layout) (float64, error) {
	pid, off := layout.RowAddr(layout.Nodes, 1)
	const probes = 5
	start := r.clk.Now()
	for i := 0; i < probes; i++ {
		if err := r.node(0).ReadModifyWrite(r.clk, pid, off, make([]byte, 64), func(b []byte) { b[0]++ }); err != nil {
			return 0, err
		}
	}
	return float64(r.clk.Now()-start) / probes, nil
}

// solveSharing runs the contended MVA for the rig's node count.
func solveSharing(d perf.Demands, nodes int) perf.Result {
	build := func(extraHold float64) []perf.Station {
		dd := d
		if dd.LockProb > 0 {
			dd.LockHoldNs += extraHold
		}
		return perf.SharingStations(dd, perf.DefaultRates(), nodes, vCPUsPerInstance, 2)
	}
	return perf.SolveContended(build, nodes*sharingThreadsPerNode)
}

// sharingPoint measures and solves one (system, pct) combination; system is
// "rdma", "cxl" (software coherency) or "cxl3" (hardware coherency).
func sharingPoint(cfg Config, system string, nodes, pagesPerGroup, sharedPct int, wl sharingWorkload, lbpFrac float64) (perf.Result, perf.Demands, error) {
	clk := simclock.New()
	store := storage.New(storage.Config{})
	layout, err := workload.NewLayout(clk, store, nodes, pagesPerGroup)
	if err != nil {
		return perf.Result{}, perf.Demands{}, err
	}
	totalPages := (nodes + 1) * pagesPerGroup
	var rig *shRig
	if system != "rdma" {
		rig, err = newCXLSharingRig(cfg.Registry, store, clk, totalPages+8, nodes, system == "cxl3")
	} else {
		accessed := 2 * pagesPerGroup // private group + shared group
		lbp := int(float64(accessed) * lbpFrac)
		if lbp < 4 {
			lbp = 4
		}
		rig, err = newRDMASharingRig(store, clk, totalPages+8, nodes, lbp)
	}
	if err != nil {
		return perf.Result{}, perf.Demands{}, err
	}
	d, err := measureSharing(cfg, rig, layout, wl, sharedPct)
	if err != nil {
		return perf.Result{}, perf.Demands{}, err
	}
	return solveSharing(d, nodes), d, nil
}

// runFig11 sweeps shared-data percentage for point-update on 8 nodes.
func runFig11(cfg Config) ([]*Table, error) {
	nodes := 8
	pagesPerGroup := cfg.ops(8, 64)
	t := &Table{ID: "fig11", Title: "Sharing: point-update, 8 nodes (throughput, latency, improvement)",
		Headers: []string{"shared %", "RDMA K-QPS", "CXL K-QPS", "improvement", "RDMA lat(us)", "CXL lat(us)"}}
	for _, pctShared := range []int{0, 20, 40, 60, 80, 100} {
		rRes, _, err := sharingPoint(cfg, "rdma", nodes, pagesPerGroup, pctShared, pointUpdateWL, 0.30)
		if err != nil {
			return nil, err
		}
		cRes, _, err := sharingPoint(cfg, "cxl", nodes, pagesPerGroup, pctShared, pointUpdateWL, 0)
		if err != nil {
			return nil, err
		}
		imp := (cRes.Throughput/rRes.Throughput - 1) * 100
		t.AddRow(fmt.Sprintf("%d%%", pctShared),
			kqps(rRes.Throughput), kqps(cRes.Throughput),
			fmt.Sprintf("%.0f%%", imp),
			us(rRes.Latency), us(cRes.Latency))
	}
	t.Notes = append(t.Notes,
		"paper: improvement 33% at 0%, peaking 62% at 40%, compressing to 27% at 100% under lock contention")
	return []*Table{t}, nil
}

// runFig12 sweeps shared % for read-write on 8 and 12 nodes.
func runFig12(cfg Config) ([]*Table, error) {
	pagesPerGroup := cfg.ops(8, 64)
	var out []*Table
	for _, nodes := range []int{8, 12} {
		t := &Table{ID: "fig12", Title: fmt.Sprintf("Sharing: read-write, %d nodes", nodes),
			Headers: []string{"shared %", "RDMA K-QPS", "CXL K-QPS", "improvement"}}
		for _, pctShared := range []int{20, 40, 60, 80, 100} {
			rRes, _, err := sharingPoint(cfg, "rdma", nodes, pagesPerGroup, pctShared, readWriteWL, 0.30)
			if err != nil {
				return nil, err
			}
			cRes, _, err := sharingPoint(cfg, "cxl", nodes, pagesPerGroup, pctShared, readWriteWL, 0)
			if err != nil {
				return nil, err
			}
			imp := (cRes.Throughput/rRes.Throughput - 1) * 100
			t.AddRow(fmt.Sprintf("%d%%", pctShared),
				kqps(rRes.Throughput), kqps(cRes.Throughput), fmt.Sprintf("%.0f%%", imp))
		}
		t.Notes = append(t.Notes,
			"paper: peak improvement 68.2% (8 nodes) / 154.4% (12 nodes) at 60% shared; 34%/126% at 100%")
		out = append(out, t)
	}
	return out, nil
}

// runFig13 sweeps the RDMA LBP size against PolarCXLMem for point-update.
func runFig13(cfg Config) ([]*Table, error) {
	nodes := 8
	pagesPerGroup := cfg.ops(8, 64)
	fracs := []float64{0.10, 0.30, 0.50, 0.70, 1.00}
	t := &Table{ID: "fig13", Title: "Breakdown: RDMA LBP sweep vs PolarCXLMem, point-update, 8 nodes (K-QPS)",
		Headers: []string{"shared %", "LBP-10%", "LBP-30%", "LBP-50%", "LBP-70%", "LBP-100%", "PolarCXLMem"}}
	for _, pctShared := range []int{20, 40, 60, 80, 100} {
		row := []string{fmt.Sprintf("%d%%", pctShared)}
		for _, frac := range fracs {
			res, _, err := sharingPoint(cfg, "rdma", nodes, pagesPerGroup, pctShared, pointUpdateWL, frac)
			if err != nil {
				return nil, err
			}
			row = append(row, kqps(res.Throughput))
		}
		cRes, _, err := sharingPoint(cfg, "cxl", nodes, pagesPerGroup, pctShared, pointUpdateWL, 0)
		if err != nil {
			return nil, err
		}
		row = append(row, kqps(cRes.Throughput))
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: at 20% shared CXL is 2.14x LBP-10%; larger LBPs close the gap (94% of CXL at LBP-70%) at 2.24x the memory;",
		"at 100% shared all RDMA configurations converge and CXL keeps a 22-42% edge")
	return []*Table{t}, nil
}

// runTable3 runs TPC-C and TATP on a 15-node cluster.
func runTable3(cfg Config) ([]*Table, error) {
	nodes := cfg.ops(6, 15)
	t := &Table{ID: "table3", Title: fmt.Sprintf("TPC-C and TATP, %d nodes", nodes),
		Headers: []string{"workload", "metric", "RDMA 10% LBP", "RDMA 30% LBP", "PolarCXLMem"}}

	type sysResult struct {
		res     perf.Result
		dem     perf.Demands
		qPerTxn float64
		cpuPerQ float64 // measured engine CPU per query (virtual ns)
	}
	runSys := func(system string, lbpFrac float64, kind string) (sysResult, error) {
		clk := simclock.New()
		store := storage.New(storage.Config{})
		var rig *shRig
		var err error
		build := func(dbpPages, lbpPages int) error {
			if system == "cxl" {
				rig, err = newCXLSharingRig(cfg.Registry, store, clk, dbpPages, nodes, false)
			} else {
				rig, err = newRDMASharingRig(store, clk, dbpPages, nodes, lbpPages)
			}
			return err
		}
		warm := cfg.ops(4, 20)
		meas := cfg.ops(12, 80)
		rng := rand.New(rand.NewSource(33))
		var runTxn func(i int) error
		var queries *int64
		var cpuNs *int64
		var txns int64
		var holdProbe func() float64

		switch kind {
		case "tpcc":
			tcfg := workload.TPCCConfig{Warehouses: nodes, Districts: 10,
				Customers: cfg.ops(300, 1200), Stock: cfg.ops(1000, 4000),
				Items: cfg.ops(1000, 4000), OrderPages: cfg.ops(8, 24)}
			tp, terr := workload.NewTPCC(clk, store, tcfg)
			if terr != nil {
				return sysResult{}, terr
			}
			pagesTotal := int(store.NextID()) + 8
			perNodeAccessed := pagesTotal / nodes
			if err := build(pagesTotal, max(4, int(float64(perNodeAccessed)*lbpFrac))); err != nil {
				return sysResult{}, err
			}
			runTxn = func(i int) error { return tp.Txn(clk, rig.node(i%nodes), i%nodes, rng) }
			cpuNs = &tp.CPUNs
			holdProbe = func() float64 { return 40000 }
			// For TPC-C we count transactions; queries tracked via CPU charge count is
			// impractical, so use ~23 statements per weighted txn.
			var q int64
			queries = &q
			origRun := runTxn
			runTxn = func(i int) error {
				if err := origRun(i); err != nil {
					return err
				}
				txns++
				q += 23
				return nil
			}
		default: // tatp
			tcfg := workload.TATPConfig{Nodes: nodes, Subscribers: cfg.ops(500, 4000)}
			tp, terr := workload.NewTATP(clk, store, tcfg)
			if terr != nil {
				return sysResult{}, terr
			}
			pagesTotal := int(store.NextID()) + 8
			perNodeAccessed := pagesTotal / nodes
			if err := build(pagesTotal, max(4, int(float64(perNodeAccessed)*lbpFrac))); err != nil {
				return sysResult{}, err
			}
			runTxn = func(i int) error {
				if err := tp.Txn(clk, rig.node(i%nodes), i%nodes, rng); err != nil {
					return err
				}
				txns++
				return nil
			}
			queries = &tp.Queries
			cpuNs = &tp.CPUNs
			holdProbe = func() float64 { return 30000 }
		}
		total := (warm + meas) * nodes
		warmOps := warm * nodes
		startClk, startQ, startTxns := int64(0), int64(0), int64(0)
		startNIC, startFabric, startCPU := int64(0), int64(0), int64(0)
		for i := 0; i < total; i++ {
			if i == warmOps {
				startClk, startQ, startTxns = clk.Now(), *queries, txns
				startNIC, startFabric = rig.nicBytes(), rig.fabricBytes()
				startCPU = *cpuNs
			}
			if err := runTxn(i); err != nil {
				return sysResult{}, fmt.Errorf("table3 %s %s txn %d: %w", system, kind, i, err)
			}
		}
		q := float64(*queries - startQ)
		dTxns := float64(txns - startTxns)
		if q == 0 || dTxns == 0 {
			return sysResult{}, fmt.Errorf("table3: nothing measured")
		}
		rpcWait := 2 * float64(sharing.RPCNanos)
		cpu := float64(clk.Now()-startClk)/q - rpcWait
		if cpu < 1000 {
			cpu = 1000
		}
		d := perf.Demands{
			Ops:          int64(q),
			CPUNs:        cpu,
			NICBytes:     float64(rig.nicBytes()-startNIC) / q,
			FabricBytes:  float64(rig.fabricBytes()-startFabric) / q,
			CXLLinkBytes: float64(rig.fabricBytes()-startFabric) / q,
			DelayNs:      rpcWait,
			HotPages:     8,
			LockHoldNs:   holdProbe(),
		}
		if kind == "tpcc" {
			d.LockProb = 0.02 // ~10% of txns cross warehouses, ~4 locked stmts each over ~23
		} else {
			d.LockProb = 0 // TATP shares nothing
		}
		return sysResult{
			res:     solveSharing(d, nodes),
			dem:     d,
			qPerTxn: q / dTxns,
			cpuPerQ: float64(*cpuNs-startCPU) / q,
		}, nil
	}

	for _, kind := range []string{"tpcc", "tatp"} {
		var cols []sysResult
		for _, sys := range []struct {
			name string
			frac float64
		}{{"rdma", 0.10}, {"rdma", 0.30}, {"cxl", 0}} {
			r, err := runSys(sys.name, sys.frac, kind)
			if err != nil {
				return nil, err
			}
			cols = append(cols, r)
		}
		if kind == "tpcc" {
			row := []string{"TPC-C", "TpmC (M)"}
			for _, c := range cols {
				txnRate := c.res.Throughput / c.qPerTxn
				row = append(row, f2(txnRate*0.45*60/1e6))
			}
			t.AddRow(row...)
			row = []string{"TPC-C", "P95 latency (ms)"}
			for _, c := range cols {
				row = append(row, f2(c.res.Latency*2.5*1e3*c.qPerTxn))
			}
			t.AddRow(row...)
			t.AddRow("TPC-C", "memory overhead", "1.1x", "1.3x", "1x")
		} else {
			row := []string{"TATP", "QPS (M)"}
			for _, c := range cols {
				row = append(row, f2(c.res.Throughput/1e6))
			}
			t.AddRow(row...)
			row = []string{"TATP", "avg latency (ms)"}
			for _, c := range cols {
				row = append(row, f2(c.res.Latency*1e3*c.qPerTxn))
			}
			t.AddRow(row...)
			t.AddRow("TATP", "memory overhead", "1.1x", "1.3x", "1x")
		}
		label := "TPC-C"
		if kind != "tpcc" {
			label = "TATP"
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s measured engine CPU per query: %s / %s / %s us (RDMA-10%%, RDMA-30%%, PolarCXLMem)",
			label, f1(cols[0].cpuPerQ/1e3), f1(cols[1].cpuPerQ/1e3), f1(cols[2].cpuPerQ/1e3)))
	}
	t.Notes = append(t.Notes,
		"paper: TPC-C 1.11/1.65/1.92 M TpmC; TATP 2.35/2.77/3.61 M QPS; P95 via 2.5x mean-latency proxy",
		"memory overhead = 1 + LBP fraction, normalized to PolarCXLMem (no local buffer)")
	return []*Table{t}, nil
}
