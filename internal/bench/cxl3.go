package bench

import (
	"fmt"
	"math/rand"

	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/perf"
	"polarcxlmem/internal/sharing"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simcpu"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/workload"
)

func init() {
	register(Experiment{ID: "cxl3", Title: "Projection: CXL 3.0 hardware coherency vs the software protocol", Run: runCXL3})
}

// hwSharingRig builds a CXL 3.0 deployment whose node caches share a
// coherency domain.
type hwSharingRig struct {
	dep   *sharing.Deployment
	nodes []*sharing.HWNode
	store *storage.Store
	clk   *simclock.Clock
}

func newHWSharingRig(store *storage.Store, clk *simclock.Clock, dbpPages, nnodes int) (*hwSharingRig, error) {
	r := &hwSharingRig{store: store, clk: clk}
	topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: int64(dbpPages)*page.Size + int64(nnodes+1)*(1<<17)})
	dep, err := sharing.NewDeployment(clk, topo, "fusion", dbpPages, store)
	if err != nil {
		return nil, err
	}
	r.dep = dep
	topo.SetObserver(observer())
	dep.Fusion.SetObserver(observer())
	dom := simcpu.NewDomain(0)
	for i := 0; i < nnodes; i++ {
		p, err := dep.AttachPrimary(clk, fmt.Sprintf("hw-%d", i), 0, 1<<17, 2<<20)
		if err != nil {
			return nil, err
		}
		dom.Attach(p.Cache)
		r.nodes = append(r.nodes, sharing.NewHWNode(p.Name, dep.Fusion, p.Cache, p.Flags))
	}
	return r, nil
}

// measureHW mirrors measureSharing for the 3.0 rig.
func measureHW(cfg Config, r *hwSharingRig, layout *workload.Layout, wl sharingWorkload, sharedPct int) (perf.Demands, error) {
	w := &workload.SharedSysbench{Layout: layout, SharedPct: sharedPct}
	rng := rand.New(rand.NewSource(31))
	warm := cfg.ops(6, 30)
	meas := cfg.ops(20, 120)
	runRound := func(nr int) error {
		for i := 0; i < nr; i++ {
			for idx, node := range r.nodes {
				if err := wl.run(w, r.clk, node, idx, rng); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := runRound(warm); err != nil {
		return perf.Demands{}, err
	}
	startClk, startQ, startFabric := r.clk.Now(), w.Queries, r.dep.Host.Leaf().Fabric().Stats().Units
	if err := runRound(meas); err != nil {
		return perf.Demands{}, err
	}
	q := float64(w.Queries - startQ)
	rpcWaitNs := 2 * float64(sharing.RPCNanos)
	cpu := float64(r.clk.Now()-startClk)/q - rpcWaitNs
	if cpu < 1000 {
		cpu = 1000
	}
	fb := float64(r.dep.Host.Leaf().Fabric().Stats().Units-startFabric) / q
	d := perf.Demands{
		Ops:          int64(q),
		CPUNs:        cpu,
		FabricBytes:  fb,
		CXLLinkBytes: fb,
		DelayNs:      rpcWaitNs,
		HotPages:     layout.PagesPerGroup,
	}
	writeFrac := wl.writesPerTxn / wl.queriesPerTxn
	d.LockProb = float64(sharedPct) / 100 * (writeFrac + wl.readsLockWt*(1-writeFrac))
	// Probe the hardware-coherent hold time.
	pid, off := layout.RowAddr(layout.Nodes, 1)
	start := r.clk.Now()
	const probes = 5
	for i := 0; i < probes; i++ {
		if err := r.nodes[0].ReadModifyWrite(r.clk, pid, off, 64, func(b []byte) { b[0]++ }); err != nil {
			return perf.Demands{}, fmt.Errorf("hw hold probe: %w", err)
		}
	}
	d.LockHoldNs = float64(r.clk.Now()-start) / probes
	return d, nil
}

// runCXL3 sweeps the shared-data percentage for point-update on 8 nodes and
// compares three coherency regimes.
func runCXL3(cfg Config) ([]*Table, error) {
	nodes := 8
	pagesPerGroup := cfg.ops(8, 64)
	t := &Table{ID: "cxl3", Title: "Point-update, 8 nodes: RDMA-MP vs CXL 2.0 software coherency vs CXL 3.0 hardware",
		Headers: []string{"shared %", "RDMA K-QPS", "CXL2 sw K-QPS", "CXL3 hw K-QPS", "hw vs sw", "sw hold us", "hw hold us"}}
	for _, pct := range []int{0, 20, 40, 60, 80, 100} {
		rRes, _, err := sharingPoint(cfg, "rdma", nodes, pagesPerGroup, pct, pointUpdateWL, 0.30)
		if err != nil {
			return nil, err
		}
		cRes, cDem, err := sharingPoint(cfg, "cxl", nodes, pagesPerGroup, pct, pointUpdateWL, 0)
		if err != nil {
			return nil, err
		}
		// CXL 3.0.
		clk := simclock.New()
		store := storage.New(storage.Config{})
		layout, err := workload.NewLayout(clk, store, nodes, pagesPerGroup)
		if err != nil {
			return nil, err
		}
		hw, err := newHWSharingRig(store, clk, (nodes+1)*pagesPerGroup+8, nodes)
		if err != nil {
			return nil, err
		}
		hDem, err := measureHW(cfg, hw, layout, pointUpdateWL, pct)
		if err != nil {
			return nil, err
		}
		hRes := solveSharing(hDem, nodes)
		t.AddRow(fmt.Sprintf("%d%%", pct),
			kqps(rRes.Throughput), kqps(cRes.Throughput), kqps(hRes.Throughput),
			fmt.Sprintf("%+.0f%%", (hRes.Throughput/cRes.Throughput-1)*100),
			f1(cDem.LockHoldNs/1000), f1(hDem.LockHoldNs/1000))
	}
	t.Notes = append(t.Notes,
		"the paper's software protocol exists because CXL 2.0 switches lack coherency (§3.3);",
		"this projection removes the clflush-on-release and flag traffic that hardware coherency makes redundant.",
		"Frame recycling still uses removal flags — capacity management is not a coherency problem.")
	return []*Table{t}, nil
}
