package bench

import (
	"fmt"
	"math/rand"

	"polarcxlmem/internal/btree"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/perf"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/sharing"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/wal"
	"polarcxlmem/internal/workload"
)

func init() {
	register(Experiment{ID: "mp-engine", Title: "Multi-primary through the FULL engine: CXL vs RDMA shared pools", Run: runMPEngine})
}

// mpEngineRig is a full multi-primary deployment at engine level: one
// private table per node plus one shared table, over either SharedPool
// (CXL) or RDMASharedPool.
type mpEngineRig struct {
	isCXL   bool
	dep     *sharing.Deployment
	rfusion *sharing.Fusion
	nics    []*rdma.NIC
	engines []*txn.Engine
	private []*btree.Tree // per node
	shared  []*btree.Tree // per node's handle to the shared table
	clk     *simclock.Clock
	store   *storage.Store
}

func newMPEngineRig(cfg Config, isCXL bool, nodes int, rowsPerTable int64) (*mpEngineRig, error) {
	clk := simclock.New()
	store := storage.New(storage.Config{})
	r := &mpEngineRig{isCXL: isCXL, clk: clk, store: store}
	log := wal.Attach(wal.NewStore(0, 0))
	dbpPages := int(rowsPerTable/40+64) * (nodes + 1)

	if isCXL {
		topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: int64(dbpPages)*page.Size + int64(nodes+1)*(1<<18)}, nil)
		dep, err := sharing.NewDeployment(clk, topo, "fusion", dbpPages, store)
		if err != nil {
			return nil, err
		}
		r.dep = dep
	} else {
		r.rfusion = sharing.NewRDMAFusion(dbpPages, store)
	}
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("mp-%d", i)
		var eng *txn.Engine
		var err error
		if isCXL {
			p, aerr := r.dep.AttachPrimary(clk, name, 0, 1<<18, 2<<20)
			if aerr != nil {
				return nil, aerr
			}
			pool := sharing.NewSharedPool(name, r.dep.Fusion, p.Cache, p.Flags)
			if i == 0 {
				eng, err = txn.Bootstrap(clk, pool, log, store)
			} else {
				eng, err = txn.Attach(clk, pool, log, store)
			}
		} else {
			nic := rdma.NewNIC(name, 0, 0)
			r.nics = append(r.nics, nic)
			lbp := int(rowsPerTable/40)*30/100 + 8 // LBP-30% of a table
			pool := sharing.NewRDMASharedPool(name, r.rfusion, nic, lbp, nil)
			if i == 0 {
				eng, err = txn.Bootstrap(clk, pool, log, store)
			} else {
				eng, err = txn.Attach(clk, pool, log, store)
			}
		}
		if err != nil {
			return nil, err
		}
		eng.IDs().Bump(uint64(i+1) << 40)
		r.engines = append(r.engines, eng)
	}
	// Node 0 creates and loads all tables; other nodes open them.
	loader := r.engines[0]
	load := func(name string) (*btree.Tree, error) {
		tr, err := loader.CreateTable(clk, name)
		if err != nil {
			return nil, err
		}
		tx := loader.Begin(clk)
		val := make([]byte, workload.RowSize)
		for k := int64(1); k <= rowsPerTable; k++ {
			if err := tx.Insert(tr, k, val); err != nil {
				return nil, err
			}
			if k%500 == 0 {
				if err := tx.Commit(); err != nil {
					return nil, err
				}
				tx = loader.Begin(clk)
			}
		}
		return tr, tx.Commit()
	}
	sharedTree, err := load("shared")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nodes; i++ {
		if _, err := load(fmt.Sprintf("private%d", i)); err != nil {
			return nil, err
		}
	}
	for i, eng := range r.engines {
		var sh, pr *btree.Tree
		if i == 0 {
			sh = sharedTree
		} else {
			if sh, err = eng.Table(clk, "shared"); err != nil {
				return nil, err
			}
		}
		if pr, err = eng.Table(clk, fmt.Sprintf("private%d", i)); err != nil {
			return nil, err
		}
		r.shared = append(r.shared, sh)
		r.private = append(r.private, pr)
	}
	return r, nil
}

func (r *mpEngineRig) nicBytes() int64 {
	var n int64
	for _, nic := range r.nics {
		n += nic.Bandwidth().Stats().Units
	}
	return n
}

func (r *mpEngineRig) fabricBytes() int64 {
	if r.dep == nil {
		return 0
	}
	return r.dep.Host.Leaf().Fabric().Stats().Units
}

// pointUpdateTxn runs one 10-update transaction on node idx, routing each
// update to the shared table with probability pct.
func (r *mpEngineRig) pointUpdateTxn(idx, pct int, rows int64, rng *rand.Rand) (queries int, err error) {
	eng := r.engines[idx]
	tx := eng.Begin(r.clk)
	val := make([]byte, workload.RowSize)
	for i := 0; i < 10; i++ {
		tree := r.private[idx]
		if rng.Intn(100) < pct {
			tree = r.shared[idx]
		}
		if err := tx.Update(tree, 1+rng.Int63n(rows), val); err != nil {
			return queries, err
		}
		queries++
	}
	return queries, tx.Commit()
}

// runMPEngine sweeps shared % through the full engine on both pool types.
func runMPEngine(cfg Config) ([]*Table, error) {
	nodes := cfg.ops(2, 4)
	rows := int64(cfg.ops(600, 2000))
	warm := cfg.ops(5, 20)
	meas := cfg.ops(15, 60)
	t := &Table{ID: "mp-engine", Title: fmt.Sprintf("Full-engine multi-primary point-update, %d nodes", nodes),
		Headers: []string{"shared %", "RDMA-MP K-QPS", "CXL K-QPS", "improvement", "RDMA B/stmt", "CXL fabric B/stmt"}}
	for _, pct := range []int{0, 25, 50, 75, 100} {
		var results [2]perf.Result
		var bytesPer [2]float64
		for s, isCXL := range []bool{false, true} {
			rig, err := newMPEngineRig(cfg, isCXL, nodes, rows)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(51))
			q := 0
			for i := 0; i < warm*nodes; i++ {
				n, err := rig.pointUpdateTxn(i%nodes, pct, rows, rng)
				if err != nil {
					return nil, fmt.Errorf("mp-engine warm: %w", err)
				}
				q += n
			}
			startClk, startQ := rig.clk.Now(), q
			startNIC, startFab := rig.nicBytes(), rig.fabricBytes()
			for i := 0; i < meas*nodes; i++ {
				n, err := rig.pointUpdateTxn(i%nodes, pct, rows, rng)
				if err != nil {
					return nil, fmt.Errorf("mp-engine measure: %w", err)
				}
				q += n
			}
			dq := float64(q - startQ)
			// Each engine statement does ~tree-height page locks; RPC waits
			// dominate the non-CPU time: lock+unlock per page touched (~3).
			rpcWait := 6 * float64(sharing.RPCNanos)
			cpu := float64(rig.clk.Now()-startClk)/dq - rpcWait
			if cpu < 1000 {
				cpu = 1000
			}
			d := perf.Demands{
				CPUNs:        cpu,
				NICBytes:     float64(rig.nicBytes()-startNIC) / dq,
				FabricBytes:  float64(rig.fabricBytes()-startFab) / dq,
				CXLLinkBytes: float64(rig.fabricBytes()-startFab) / dq,
				DelayNs:      rpcWait,
				HotPages:     int(rows/40) + 1,
				LockProb:     float64(pct) / 100,
			}
			// Hold probe: one shared-table update.
			h0 := rig.clk.Now()
			if _, err := rig.pointUpdateTxn(0, 100, rows, rng); err != nil {
				return nil, err
			}
			d.LockHoldNs = float64(rig.clk.Now()-h0) / 10
			results[s] = solveSharing(d, nodes)
			if isCXL {
				bytesPer[s] = d.FabricBytes
			} else {
				bytesPer[s] = d.NICBytes
			}
		}
		imp := (results[1].Throughput/results[0].Throughput - 1) * 100
		t.AddRow(fmt.Sprintf("%d%%", pct),
			kqps(results[0].Throughput), kqps(results[1].Throughput),
			fmt.Sprintf("%.0f%%", imp),
			fmt.Sprintf("%.0f", bytesPer[0]), fmt.Sprintf("%.0f", bytesPer[1]))
	}
	t.Notes = append(t.Notes,
		"same B+tree engine, same transactions — only the shared-pool transport differs;",
		"grounds fig. 11's record-level result in full engine traffic (SMOs, WAL, catalog included)")
	return []*Table{t}, nil
}
