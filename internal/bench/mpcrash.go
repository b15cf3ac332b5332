package bench

import (
	"fmt"

	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/sharing"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simnet"
	"polarcxlmem/internal/storage"
)

func init() {
	register(Experiment{ID: "mp-crash", Title: "Sharing: survivor throughput across a primary crash (crash / reclaim / rejoin)", Run: runMPCrash})
}

// runMPCrash records the fig-10-style availability timeline of the CXL
// multi-primary cluster: three nodes share a hot page set; node-2 dies
// holding a write lock; the survivors stall only until the dead node's lease
// lapses (the first conflicting waiter reclaims its locks via EvictNode),
// then keep serving; finally the node rejoins. Each row is one phase of the
// timeline with the cluster's record-update throughput in that phase.
func runMPCrash(cfg Config) ([]*Table, error) {
	clk := simclock.New()
	store := storage.New(storage.Config{})
	const nnodes = 3
	hotPages := cfg.ops(8, 32)
	perNodeOps := cfg.ops(60, 600)

	// Rig: fusion server with a CXL-durable lock table and an RPC retry
	// policy — the full robustness configuration.
	dbpPages := hotPages + 8
	topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: int64(dbpPages)*page.Size + int64(nnodes+1)*(1<<17) + int64(dbpPages)*8 + 4096}, cfg.Registry)
	dep, err := sharing.NewDeployment(clk, topo, "fusion", dbpPages, store)
	if err != nil {
		return nil, err
	}
	fusion := dep.Fusion
	lockTab, err := dep.Host.Allocate(clk, "lock-table", int64(dbpPages)*8)
	if err != nil {
		return nil, err
	}
	if err := fusion.AttachLockTable(lockTab); err != nil {
		return nil, err
	}
	fusion.SetRetryPolicy(&simnet.RetryPolicy{MaxAttempts: 3, BackoffNanos: 2_000, BackoffFactor: 2, JitterSeed: 7})

	nodes := make([]*sharing.Node, nnodes)
	hosts := make([]*cxl.HostPort, nnodes)
	for i := range nodes {
		p, err := dep.AttachPrimary(clk, fmt.Sprintf("node-%d", i), 0, 1<<17, 2<<20)
		if err != nil {
			return nil, err
		}
		hosts[i] = p.Host
		nodes[i] = sharing.NewNode(p.Name, fusion, p.Cache, p.Flags)
	}

	// Seed the shared hot set.
	pids := make([]uint64, hotPages)
	img := make([]byte, page.Size)
	for i := range pids {
		pids[i] = store.AllocPageID()
		if err := store.WritePage(clk, pids[i], img); err != nil {
			return nil, err
		}
	}

	t := &Table{ID: "mp-crash", Title: "Survivor throughput across a primary crash (3 nodes, shared hot set)",
		Headers: []string{"phase", "live nodes", "ops", "virtual ms", "K-QPS"}}
	var opSeq int
	runPhase := func(name string, active []int, opsPerNode int) error {
		start := clk.Now()
		ops := 0
		for k := 0; k < opsPerNode; k++ {
			for _, i := range active {
				pid := pids[opSeq%len(pids)]
				opSeq++
				if err := nodes[i].ReadModifyWrite(clk, pid, 512, make([]byte, 8), func(b []byte) { b[0]++ }); err != nil {
					return fmt.Errorf("mp-crash %s: node-%d: %w", name, i, err)
				}
				ops++
			}
		}
		elapsed := clk.Now() - start
		qps := 0.0
		if elapsed > 0 {
			qps = float64(ops) / (float64(elapsed) / 1e9)
		}
		t.AddRow(name, fmt.Sprintf("%d", len(active)), fmt.Sprintf("%d", ops),
			f2(float64(elapsed)/1e6), kqps(qps))
		return nil
	}

	if err := runPhase("healthy", []int{0, 1, 2}, perNodeOps); err != nil {
		return nil, err
	}

	// node-2 dies mid-write-lock on a hot page: take the lock as node-2,
	// never release it, then declare the node dead.
	victim := pids[0]
	if err := nodes[2].Read(clk, victim, 512, make([]byte, 8)); err != nil {
		return nil, err
	}
	if err := fusion.Lock(clk, "node-2", victim, true); err != nil {
		return nil, err
	}
	fusion.CrashNode("node-2")
	crashAt := clk.Now()

	// The first survivor access to the orphaned page stalls until the dead
	// node's lease lapses, then reclaims its locks (EvictNode inline).
	if err := nodes[0].ReadModifyWrite(clk, victim, 512, make([]byte, 8), func(b []byte) { b[0]++ }); err != nil {
		return nil, fmt.Errorf("mp-crash reclaim: %w", err)
	}
	reclaimNanos := clk.Now() - crashAt
	if err := runPhase("degraded", []int{0, 1}, perNodeOps); err != nil {
		return nil, err
	}
	if err := runPhase("recovered", []int{0, 1}, perNodeOps); err != nil {
		return nil, err
	}
	if rep := fusion.Fsck(); !rep.OK() {
		return nil, fmt.Errorf("mp-crash: fsck after eviction: %v", rep.Problems)
	}

	// The node rejoins as a fresh instance under its old name.
	if err := fusion.RejoinNode(clk, "node-2"); err != nil {
		return nil, err
	}
	fr, err := hosts[2].Allocate(clk, "node-2-flags-rejoin", 1<<17)
	if err != nil {
		return nil, err
	}
	nodes[2] = sharing.NewNode("node-2", fusion, hosts[2].NewCache("node-2-rejoin", 2<<20), fr)
	if err := runPhase("rejoined", []int{0, 1, 2}, perNodeOps); err != nil {
		return nil, err
	}
	if rep := fusion.Fsck(); !rep.OK() {
		return nil, fmt.Errorf("mp-crash: fsck after rejoin: %v", rep.Problems)
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("orphaned write lock reclaimed %.2f virtual ms after the crash (lease %.2f ms)",
			float64(reclaimNanos)/1e6, float64(sharing.DefaultLeaseNanos)/1e6),
		"degraded-phase throughput includes the lease wait; recovered == steady-state survivor throughput")
	return []*Table{t}, nil
}
