package bench

import (
	"fmt"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/core"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/perf"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/wal"
	"polarcxlmem/internal/workload"
)

// PoolKind selects the buffer-pool design under test.
type PoolKind int

// Pool kinds.
const (
	PoolDRAM PoolKind = iota // conventional local buffer pool (DRAM-BP)
	PoolTiered
	PoolCXL // PolarCXLMem
)

func (k PoolKind) String() string {
	switch k {
	case PoolDRAM:
		return "DRAM-BP"
	case PoolTiered:
		return "RDMA-based"
	case PoolCXL:
		return "PolarCXLMem"
	}
	return "?"
}

// poolingRig is one single-node database over a chosen pool, loaded with
// sysbench tables.
type poolingRig struct {
	kind  PoolKind
	host  *cxl.HostPort
	store *storage.Store
	ws    *wal.Store
	nic   *rdma.NIC
	rem   *buffer.RemoteMemory
	pool  buffer.Pool
	cpool *core.CXLPool
	eng   *txn.Engine
	sb    *workload.Sysbench
	clk   *simclock.Clock

	datasetPages int
}

// datasetPages estimates the page count for the sysbench dataset. The
// loader inserts ascending keys, so splits leave leaves ~50% full.
func estimatePages(tables int, rows int64) int {
	rowBytes := int64(workload.RowSize + 12)
	leafCap := int64(page.Size-page.HeaderSize) / 2 / rowBytes
	leaves := (rows + leafCap - 1) / leafCap
	return int(leaves+leaves/40+6) * tables
}

// newPoolingRig builds the rig. lbpFrac applies to PoolTiered: the local
// buffer pool size as a fraction of the dataset (the paper's LBP-X%).
func newPoolingRig(kind PoolKind, tables int, rows int64, lbpFrac float64) (*poolingRig, error) {
	r := &poolingRig{kind: kind, clk: simclock.New()}
	r.store = storage.New(storage.Config{})
	r.ws = wal.NewStore(0, 0)
	r.datasetPages = estimatePages(tables, rows)
	capPages := r.datasetPages*2 + 64

	switch kind {
	case PoolDRAM:
		p := buffer.NewDRAMPool(r.store, capPages, cxl.BufferDRAMProfile())
		p.SetObserver(observer())
		r.pool = p
	case PoolTiered:
		r.nic = rdma.NewNIC("host0", 0, 0)
		r.rem = buffer.NewRemoteMemory("remote", capPages)
		lbp := int(float64(r.datasetPages) * lbpFrac)
		if lbp < 8 {
			lbp = 8
		}
		p := buffer.NewTieredPool(r.store, r.rem, r.nic, lbp, cxl.BufferDRAMProfile())
		p.SetObserver(observer())
		r.pool = p
	case PoolCXL:
		topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: core.RegionSizeFor(int64(capPages)) + 4096})
		topo.SetObserver(observer())
		host, err := topo.AttachHost("host0", 0)
		if err != nil {
			return nil, err
		}
		r.host = host
		region, err := r.host.Allocate(r.clk, "db0", core.RegionSizeFor(int64(capPages)))
		if err != nil {
			return nil, err
		}
		// The instance's LLC slice. Sized well below the dataset so hot
		// upper-level B+tree pages stay cached while random leaf lines miss
		// — the ratio the paper's testbed has (buffer pool >> LLC).
		cache := r.host.NewCache("db0", 2<<20)
		pool, err := core.Format(r.host, region, cache, r.store)
		if err != nil {
			return nil, err
		}
		pool.SetObserver(observer())
		r.cpool = pool
		r.pool = pool
	}
	eng, err := txn.Bootstrap(r.clk, r.pool, wal.Attach(r.ws), r.store)
	if err != nil {
		return nil, err
	}
	r.eng = eng
	sb, err := workload.NewSysbench(r.clk, eng, tables, rows, 1)
	if err != nil {
		return nil, err
	}
	r.sb = sb
	return r, nil
}

// snapshot captures the cumulative resource counters that demand
// measurement diffs.
type snapshot struct {
	clock    int64
	queries  int64
	nicB     int64
	verbs    int64
	linkB    int64
	fabricB  int64
	storageB int64
	logB     int64
	sReads   int64
	sWrites  int64
}

func (r *poolingRig) snap() snapshot {
	s := snapshot{clock: r.clk.Now(), queries: r.sb.Queries}
	if r.nic != nil {
		s.nicB = r.nic.Bandwidth().Stats().Units
		s.verbs = r.nic.Doorbell().Stats().Units
	}
	if r.host != nil {
		s.linkB = r.host.Link().Stats().Units
		s.fabricB = r.host.Leaf().Fabric().Stats().Units
	}
	s.storageB = r.store.Device().Stats().Units
	s.logB = r.ws.Device().Stats().Units
	ps := r.pool.Stats()
	s.sReads, s.sWrites = ps.StorageReads, ps.StorageWrites
	return s
}

// demandsBetween converts two snapshots into per-query demands. Storage
// latency is wait time, not CPU: a thread blocked on a page read yields its
// core, so those nanoseconds move from the CPU demand into the delay
// station.
func demandsBetween(before, after snapshot) (perf.Demands, error) {
	q := float64(after.queries - before.queries)
	if q == 0 {
		return perf.Demands{}, fmt.Errorf("bench: no queries between snapshots")
	}
	waitNs := float64(after.sReads-before.sReads)*storage.DefaultReadNanos +
		float64(after.sWrites-before.sWrites)*storage.DefaultWriteNanos
	cpu := float64(after.clock-before.clock) - waitNs
	if cpu < q*1000 {
		cpu = q * 1000 // floor: a query always costs some CPU
	}
	return perf.Demands{
		Ops:          int64(q),
		CPUNs:        cpu / q,
		NICBytes:     float64(after.nicB-before.nicB) / q,
		Verbs:        float64(after.verbs-before.verbs) / q,
		CXLLinkBytes: float64(after.linkB-before.linkB) / q,
		FabricBytes:  float64(after.fabricB-before.fabricB) / q,
		StorageBytes: float64(after.storageB-before.storageB) / q,
		LogBytes:     float64(after.logB-before.logB) / q,
		DelayNs:      waitNs / q,
	}, nil
}

// measure warms the rig with warm ops of the mix, then runs n ops and
// returns per-query demands. The worker's clock time per query becomes the
// CPU demand (memory stalls occupy the core; the single worker never
// queues), while byte counters parameterize the shared-capacity stations.
func (r *poolingRig) measure(mix func() error, warm, n int) (perf.Demands, error) {
	for i := 0; i < warm; i++ {
		if err := mix(); err != nil {
			return perf.Demands{}, fmt.Errorf("%s warmup op %d: %w", r.kind, i, err)
		}
	}
	before := r.snap()
	for i := 0; i < n; i++ {
		if err := mix(); err != nil {
			return perf.Demands{}, fmt.Errorf("%s measured op %d: %w", r.kind, i, err)
		}
	}
	after := r.snap()
	d, err := demandsBetween(before, after)
	if err != nil {
		return d, fmt.Errorf("%s: %w", r.kind, err)
	}
	return d, nil
}

// vCPUsPerInstance matches the paper's instance shape.
const vCPUsPerInstance = 16

// threads per instance per workload (§4.2).
const (
	threadsPointSelect = 48
	threadsRangeSelect = 32
	threadsReadWrite   = 48
)
