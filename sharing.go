package polarcxlmem

import (
	"fmt"

	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/sharing"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
)

// SharingConfig sizes a multi-primary deployment.
type SharingConfig struct {
	Nodes    int // database nodes
	DBPPages int // distributed-buffer-pool frames in CXL
	// MetaSlots bounds each node's page-metadata buffer (default 4096).
	MetaSlots int
	// Fabric, when non-nil, declares a leaf/spine topology (leaf count,
	// bandwidths, inter-switch latency). Nil = single switch. The fusion
	// host, the DBP, and every node's flag words live on leaf 0's memory
	// box; Fabric.PoolBytes defaults to the sized DBP+flags capacity.
	Fabric *cxl.TopologyConfig
	// NodeLeaves places node i's host on leaf NodeLeaves[i]. Nil or short
	// slices default remaining nodes to leaf 0. A node on another leaf pays
	// the trunk+spine route on every page fill, publication write-back, and
	// coherency-flag access — the cross-switch sharing cost.
	NodeLeaves []int
}

// SharingCluster is a multi-primary deployment (§3.3): N database nodes
// operate directly on a shared CXL distributed buffer pool managed by a
// buffer-fusion server, with cache coherency provided by the software
// invalid/removal-flag protocol.
type SharingCluster struct {
	topo   *cxl.Topology
	fusion *sharing.Fusion
	nodes  []*sharing.Node
	prims  []*sharing.Primary
	store  *storage.Store
	clk    *simclock.Clock
}

// NewSharingCluster builds the deployment. Options wire observability and
// fault injection through the switch, its memory device, and the fusion
// server, same as NewCluster.
func NewSharingCluster(cfg SharingConfig, opts ...Option) (*SharingCluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("polarcxlmem: sharing cluster needs nodes > 0")
	}
	if cfg.DBPPages <= 0 {
		cfg.DBPPages = 256
	}
	if cfg.MetaSlots <= 0 {
		cfg.MetaSlots = 4096
	}
	o := newOptions(opts)
	clk := simclock.New()
	flagBytes := int64(cfg.MetaSlots) * 16
	tc := cxl.TopologyConfig{}
	if cfg.Fabric != nil {
		tc = *cfg.Fabric
	}
	if tc.PoolBytes == 0 {
		tc.PoolBytes = int64(cfg.DBPPages)*page.Size + int64(cfg.Nodes+1)*flagBytes + 4096
	}
	topo := o.newTopology(tc)
	store := storage.New(storage.Config{})
	// The fusion server and all shared CXL state — the DBP and every node's
	// flag words — live on leaf 0's memory box; remote-leaf nodes reach them
	// over the trunk+spine route.
	dep, err := sharing.NewDeployment(clk, topo, "fusion-host", cfg.DBPPages, store)
	if err != nil {
		return nil, err
	}
	fusion := dep.Fusion
	fusion.SetInjector(o.inj)
	sc := &SharingCluster{topo: topo, fusion: fusion, store: store, clk: clk}
	for i := 0; i < cfg.Nodes; i++ {
		leaf := 0
		if i < len(cfg.NodeLeaves) {
			leaf = cfg.NodeLeaves[i]
		}
		p, err := dep.AttachPrimary(clk, fmt.Sprintf("node-%d", i), leaf, flagBytes, 8<<20)
		if err != nil {
			return nil, err
		}
		sc.nodes = append(sc.nodes, sc.newNode(p))
		sc.prims = append(sc.prims, p)
	}
	return sc, nil
}

// CrashPrimary kills node i: the fusion server marks it dead, so its lock
// leases stop renewing and its RPCs are rejected. Survivors keep serving;
// the dead node's locks are reclaimed by the first conflicting waiter after
// lease expiry, or immediately via Fusion().EvictNode.
func (s *SharingCluster) CrashPrimary(i int) error {
	if i < 0 || i >= len(s.nodes) {
		return fmt.Errorf("polarcxlmem: no node %d", i)
	}
	s.fusion.CrashNode(s.nodes[i].Name())
	return nil
}

// RejoinPrimary restarts crashed node i as a fresh node: the fusion server
// finishes evicting its old incarnation's state, then a new Node (empty
// cache, empty metadata buffer) takes its name.
func (s *SharingCluster) RejoinPrimary(i int) error {
	if i < 0 || i >= len(s.nodes) {
		return fmt.Errorf("polarcxlmem: no node %d", i)
	}
	name := s.nodes[i].Name()
	if err := s.fusion.RejoinNode(s.clk, name); err != nil {
		return err
	}
	p := s.prims[i]
	p.Cache = p.Host.NewCache(name, 8<<20) // fresh LLC slice; the dead one is freed
	s.nodes[i] = s.newNode(p)
	return nil
}

// newNode builds primary p's record-level node over the fusion server,
// charging its coherency-flag accesses to p's fabric route.
func (s *SharingCluster) newNode(p *sharing.Primary) *sharing.Node {
	node := sharing.NewNode(p.Name, s.fusion, p.Cache, p.Flags)
	node.SetInterconnect(p.Host.FabricPath())
	return node
}

// Clock exposes the cluster's virtual clock.
func (s *SharingCluster) Clock() *simclock.Clock { return s.clk }

// Topology exposes the deployment's CXL fabric (per-tier stats, trunks).
func (s *SharingCluster) Topology() *cxl.Topology { return s.topo }

// Storage exposes the backing page store (seed shared pages here).
func (s *SharingCluster) Storage() *storage.Store { return s.store }

// Fusion exposes the buffer-fusion server.
func (s *SharingCluster) Fusion() *sharing.Fusion { return s.fusion }

// Node returns node i's record-level sharing API.
func (s *SharingCluster) Node(i int) *sharing.Node { return s.nodes[i] }

// Nodes reports the node count.
func (s *SharingCluster) Nodes() int { return len(s.nodes) }

// SeedPage writes a durable zero page and returns its id — a convenience
// for building shared datasets.
func (s *SharingCluster) SeedPage() (uint64, error) {
	id := s.store.AllocPageID()
	img := make([]byte, page.Size)
	if err := s.store.WritePage(s.clk, id, img); err != nil {
		return 0, err
	}
	return id, nil
}
