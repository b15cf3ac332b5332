// Package polarcxlmem is the public facade of the PolarCXLMem
// reproduction: a CXL-switch-based disaggregated memory system for
// cloud-native databases, after "Unlocking the Potential of CXL for
// Disaggregated Memory in Cloud-Native Databases" (SIGMOD 2025).
//
// The package wires the internal substrates into three deployment shapes:
//
//   - Cluster: a CXL switch + memory box + shared storage + WAL — the
//     disaggregated substrate every instance plugs into.
//   - Instance: one database engine whose ENTIRE buffer pool (pages and
//     metadata) lives in CXL memory (§3.1). Crash it and recover instantly
//     with PolarRecv (§3.2).
//   - SharingCluster: a multi-primary deployment over a buffer-fusion
//     server with the software cache-coherency protocol (§3.3).
//
// Everything runs in virtual time: operations take simulated nanoseconds on
// calibrated device models, so behaviour — including crash recovery and
// cache-coherency races — is deterministic and testable. See DESIGN.md for
// the substitution argument and EXPERIMENTS.md for paper-vs-measured
// results.
//
// # Quick start
//
//	reg := obs.New(obs.Options{})
//	cluster, _ := polarcxlmem.NewCluster(
//		polarcxlmem.ClusterConfig{PoolPages: 1024},
//		polarcxlmem.WithObserver(reg))
//	inst, _ := cluster.Start(polarcxlmem.InstanceConfig{
//		Name:        "db0",
//		PoolPages:   512,
//		GroupCommit: &wal.GroupPolicy{}, // batch concurrent commits
//	})
//	tbl, _ := inst.CreateTable("accounts")
//	tx := inst.Begin()
//	tx.Insert(tbl, 1, []byte("alice: 100"))
//	tx.Commit()
//	inst.Crash()                       // host dies; CXL memory survives
//	inst2, rec, _ := cluster.Recover("db0")
//	fmt.Println(rec.PagesTrusted)      // buffer pool reused in place
//	fmt.Println(reg.Snapshot().Counters["frametab.cxl.hits"])
//
// Instance behaviour beyond the commit pipeline — hot/cold tiering into
// host DRAM, per-tenant QoS, elastic CXL quotas — is configured through the
// consolidated InstanceConfig.Policy surface and adjusted at runtime with
// Cluster.Resize and Cluster.SetQoS. See docs/tiering.md.
//
// Failures are reported through typed sentinels — ErrNoCapacity,
// ErrInstanceExists, ErrUnknownInstance, ErrCrashed, ErrNotCrashed — always
// wrapped, so callers branch with errors.Is. Capacity rejections carry a
// *CapacityError (which tier, how much was left) for errors.As. See
// docs/commit-pipeline.md for the group-commit and background-flush knobs.
package polarcxlmem

import (
	"errors"
	"fmt"

	"polarcxlmem/internal/btree"
	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/checkpoint"
	"polarcxlmem/internal/core"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/dataplane"
	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/flusher"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/recovery"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/tier"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/wal"
)

// Typed failure sentinels. Every facade error path wraps exactly one of
// these (with instance names and sizes in the wrapping message), so callers
// dispatch with errors.Is instead of matching strings.
var (
	// ErrNoCapacity: a tier has no room — no switch domain has enough
	// unallocated CXL memory for the requested buffer pool, a resize asked
	// for more than the instance's reservation, or a baseline's remote pool
	// overflowed. Re-exported from the buffer layer so every producer wraps
	// the same sentinel; rejections carry a *CapacityError with the numbers.
	ErrNoCapacity = buffer.ErrNoCapacity
	// ErrInstanceExists: the instance name is already taken on this cluster.
	ErrInstanceExists = errors.New("polarcxlmem: instance already exists")
	// ErrUnknownInstance: no instance with that name was ever started here.
	ErrUnknownInstance = errors.New("polarcxlmem: unknown instance")
	// ErrCrashed: the instance handle crashed; call Cluster.Recover to get a
	// fresh handle over the surviving CXL state.
	ErrCrashed = errors.New("polarcxlmem: instance has crashed")
	// ErrNotCrashed: Recover was called on a live instance.
	ErrNotCrashed = errors.New("polarcxlmem: instance has not crashed")
	// ErrBoxHealthy: Failover was called for an instance whose memory box is
	// still alive — the buffer pool image survived, so Recover (PolarRecv) is
	// the right restart path, not a cross-leaf rebuild.
	ErrBoxHealthy = errors.New("polarcxlmem: instance's memory box is healthy")
	// ErrPlacementPinned: Failover cannot relocate an instance whose
	// InstanceConfig.Placement pins the buffer pool to a specific leaf; the
	// operator asked for that leaf and nothing else.
	ErrPlacementPinned = errors.New("polarcxlmem: instance placement is pinned")
)

// ErrKeyNotFound is re-exported for callers.
var ErrKeyNotFound = btree.ErrKeyNotFound

// ErrFabricUnreachable is re-exported from the cxl fabric: any data-path
// operation that needs a failed trunk or leaf crossbar — or a powered-off
// memory box — wraps it. Branch with errors.Is.
var ErrFabricUnreachable = cxl.ErrFabricUnreachable

// Option configures cluster construction (NewCluster, NewSharingCluster).
type Option func(*clusterOptions)

type clusterOptions struct {
	reg *obs.Registry
	inj fault.Injector
}

// WithObserver threads an observability registry through every substrate
// the cluster builds: switch fabric and host links, the pooled memory
// device, buffer-pool frame tables, the group committer and background
// flusher of every instance started with those enabled, and the PolarRecv
// recovery pipeline. One registry sees the whole deployment.
func WithObserver(reg *obs.Registry) Option {
	return func(o *clusterOptions) { o.reg = reg }
}

// WithInjector installs a fault injector on every switch domain at
// construction — both the attach/detach RPC points and the pooled memory
// device itself — so deployment-level chaos and crash-point sweeps can be
// wired without reaching into internals. The injector sees setup traffic
// too; arm it (fault.Plan style) when the window of interest starts.
func WithInjector(inj fault.Injector) Option {
	return func(o *clusterOptions) { o.inj = inj }
}

// ClusterConfig sizes a CXL cluster. The fields group by the layer they
// drive: PoolPages/Pools/Fabric shape the CXL fabric (internal/cxl),
// Storage shapes the shared page store (internal/storage), and Dataplane
// fronts every instance with a request router (internal/dataplane).
// Per-instance behaviour — buffer pool, commit pipeline, checkpointing,
// tiering policy — lives on InstanceConfig instead.
type ClusterConfig struct {
	// --- Fabric (internal/cxl): switches, trunks, memory boxes ---

	// PoolPages is each CXL memory box's capacity in 16 KB page blocks. It
	// bounds the sum of the carves placed on one box (for elastic instances
	// the carve is Policy.Quota.MaxPages, not the initial allotment).
	PoolPages int64
	// Pools is the number of leaf switches — each a switch plus its memory
	// box — in the rack's fabric (the paper's Figure 5 deployment has two).
	// Default 1. With more than one, the leaves interconnect through a spine
	// crossbar over calibrated trunks, and instances are placed on the leaf
	// box with the most free capacity (see InstanceConfig.Placement to pin).
	Pools int
	// Fabric, when non-nil, declares the leaf/spine topology explicitly
	// (leaf count, per-tier bandwidths, inter-switch latency), overriding
	// Pools. A zero Fabric.PoolBytes is sized from PoolPages.
	Fabric *cxl.TopologyConfig

	// --- Shared storage (internal/storage) ---

	// Storage overrides the shared page-store device model every instance's
	// volume and redo log are provisioned from.
	Storage storage.Config

	// --- Front end (internal/dataplane) ---

	// Dataplane, when non-nil, puts a batched request router in front of
	// every instance the cluster starts: sessions submit through
	// Cluster.Router(name) instead of driving the engine directly, with
	// admission control and per-tenant rate limits per the config (zero
	// values mean dataplane defaults). Routers run in the concurrent drive
	// mode; an instance crash aborts its router (queued requests complete
	// with dataplane.ErrClosed) and Recover/Failover start a fresh one. The
	// config's Registry defaults to the cluster's observer. When an instance
	// has Policy.Tiering, its router also tags each request's tenant onto
	// the worker clock so page heat is attributed per tenant for QoS.
	Dataplane *dataplane.Config
}

// Placement pins an instance's components to fabric leaves. The zero value
// pins both to leaf 0; negative values mean "auto": PoolLeaf -1 places the
// buffer pool on the emptiest box, HostLeaf -1 co-locates the host with the
// pool (intra-switch, the default policy). A host on a different leaf than
// its pool pays the trunk+spine route on every page fill, write-back, and
// bulk transfer.
type Placement struct {
	// HostLeaf is the leaf switch the instance's host attaches to.
	HostLeaf int
	// PoolLeaf is the leaf whose memory box holds the buffer pool.
	PoolLeaf int
	// CheckpointLeaf is the leaf whose box holds the CXL-durable checkpoint
	// area (when InstanceConfig.Checkpoint is enabled). Negative = co-locate
	// with the buffer pool. Placing it on a DIFFERENT leaf keeps the
	// checkpoint record reachable when the pool's box dies, so Failover can
	// bound its redo scan instead of replaying from the truncation floor.
	CheckpointLeaf int
}

// InstanceConfig describes one database instance. Name and PoolPages are
// required; everything else defaults to the classic inline pipeline. The
// fields group by layer: sizing (core buffer pool + simcpu cache), the
// commit pipeline (wal/flusher/checkpoint daemons on the txn engine),
// placement (which fabric leaves hold what), and Policy (tiering, QoS, and
// elastic quotas — internal/tier plus the core fast tier).
type InstanceConfig struct {
	// --- Identity and sizing (core buffer pool, simcpu cache) ---

	// Name identifies the instance on its cluster (unique).
	Name string
	// PoolPages sizes the CXL buffer pool in 16 KB blocks. With
	// Policy.Quota set this is the INITIAL logical allotment (the physical
	// carve is Quota.MaxPages); adjust it live with Cluster.Resize.
	PoolPages int64
	// CacheBytes sizes the host-side CPU cache model (default 8 MiB).
	CacheBytes int64

	// --- Commit pipeline (internal/wal, flusher, checkpoint on txn) ---

	// GroupCommit, when non-nil, routes commit markers through a group
	// committer with this policy (zero value = defaults). Concurrent
	// committers share fsyncs; a lone committer behaves exactly like the
	// inline path.
	GroupCommit *wal.GroupPolicy
	// BackgroundFlush, when non-nil, enables the background dirty-page
	// flusher with this policy (zero value = defaults): eviction stops
	// paying inline write-back, at the cost of flusher ticks on the commit
	// path. Survives crash/recovery (re-applied by Cluster.Recover).
	BackgroundFlush *flusher.Policy
	// Checkpoint, when non-nil, enables continuous fuzzy checkpointing with
	// this policy (zero value = defaults): a 128-byte CXL-durable checkpoint
	// area is allocated next to the buffer pool, the checkpointer publishes
	// a checkpoint LSN each interval once the flusher has the dirty backlog
	// below the watermark, and the redo log is truncated behind the previous
	// checkpoint — bounding both recovery time and log size. Implies a
	// background flusher (a default one is enabled when BackgroundFlush is
	// nil). Survives crash/recovery: Cluster.Recover starts redo from the
	// checkpoint area and re-arms the checkpointer.
	Checkpoint *checkpoint.Policy

	// --- Placement (internal/cxl fabric leaves) ---

	// Placement, when non-nil, pins the instance's host and buffer pool to
	// fabric leaves instead of the default policy (pool on the emptiest box,
	// host co-located with it). Preserved across Recover.
	Placement *Placement

	// --- Policy (internal/tier + core fast tier + facade ledger) ---

	// Policy, when non-nil, attaches the consolidated tiering/QoS/quota
	// policy surface: hot pages mirrored into host DRAM, per-tenant
	// fast-tier budgets, and a runtime-elastic CXL allotment. See Policy's
	// field docs; preserved (with runtime Resize/SetQoS adjustments) across
	// Recover and Failover.
	Policy *Policy
}

// Cluster is a rack-scale CXL fabric — leaf switches, each fronting a
// memory box, joined by a spine when there is more than one — over shared
// storage and durable logs: the disaggregated substrate. It survives any
// Instance crash.
type Cluster struct {
	topo       *cxl.Topology
	storageCfg storage.Config
	stores     map[string]*storage.Store // one database volume per instance
	wals       map[string]*wal.Store

	instances  map[string]*Instance
	placement  map[string]int            // instance -> pool (box) leaf index
	hostLeaves map[string]int            // instance -> host attachment leaf
	ckptLeaves map[string]int            // instance -> checkpoint-area leaf
	configs    map[string]InstanceConfig // as started (PoolPages tracks Resize); re-applied on Recover
	qos        map[string]tier.QoS       // runtime SetQoS overrides; re-applied on Recover

	dpCfg   *dataplane.Config
	routers map[string]*dataplane.Router

	reg *obs.Registry
	inj fault.Injector
}

// NewCluster builds the substrate. Options wire cross-cutting concerns
// (observability, fault injection) through every switch domain.
func NewCluster(cfg ClusterConfig, opts ...Option) (*Cluster, error) {
	if cfg.PoolPages <= 0 {
		cfg.PoolPages = 1024
	}
	if cfg.Pools <= 0 {
		cfg.Pools = 1
	}
	var o clusterOptions
	for _, opt := range opts {
		opt(&o)
	}
	c := &Cluster{
		storageCfg: cfg.Storage,
		stores:     make(map[string]*storage.Store),
		wals:       make(map[string]*wal.Store),
		instances:  make(map[string]*Instance),
		placement:  make(map[string]int),
		hostLeaves: make(map[string]int),
		ckptLeaves: make(map[string]int),
		configs:    make(map[string]InstanceConfig),
		qos:        make(map[string]tier.QoS),
		dpCfg:      cfg.Dataplane,
		routers:    make(map[string]*dataplane.Router),
		reg:        o.reg,
		inj:        o.inj,
	}
	tc := cxl.TopologyConfig{Leaves: cfg.Pools}
	if cfg.Fabric != nil {
		tc = *cfg.Fabric
	}
	if tc.PoolBytes == 0 {
		tc.PoolBytes = core.RegionSizeFor(cfg.PoolPages) + 4096
	}
	c.topo = cxl.NewTopology(tc)
	if c.reg != nil {
		c.topo.SetObserver(c.reg)
	}
	if c.inj != nil {
		c.topo.SetInjector(c.inj)
		for i := 0; i < c.topo.Leaves(); i++ {
			c.topo.Leaf(i).Box().Device().SetInjector(c.inj)
		}
	}
	return c, nil
}

// place picks the leaf whose memory box has the most unallocated memory for
// a new allocation of size bytes, or a *CapacityError if nothing fits.
// Failed (powered-off) boxes are never candidates.
func (c *Cluster) place(size int64) (int, error) {
	best, bestFree, maxFree := -1, int64(-1), int64(0)
	for i := 0; i < c.topo.Leaves(); i++ {
		if c.topo.BoxFailed(i) {
			continue
		}
		box := c.topo.Leaf(i).Box()
		free := box.Device().Size() - box.Manager().Allocated()
		if free > maxFree {
			maxFree = free
		}
		if free >= size && free > bestFree {
			best, bestFree = i, free
		}
	}
	if best < 0 {
		return 0, &CapacityError{Tier: "cxl", Requested: size, Free: maxFree, Unit: "bytes"}
	}
	return best, nil
}

// Instance is one database instance running directly on CXL memory.
type Instance struct {
	name    string
	cluster *Cluster
	clk     *simclock.Clock
	pool    *core.CXLPool
	eng     *txn.Engine
	ckpt    *checkpoint.Area // nil unless InstanceConfig.Checkpoint set
	tierd   *tier.Daemon     // nil unless Policy.Tiering set
	crashed bool
}

// Start boots a fresh instance from cfg: its buffer pool is placed on the
// emptiest switch domain, its commit pipeline configured per cfg, and —
// when the cluster has an observer — every layer instrumented.
func (c *Cluster) Start(cfg InstanceConfig) (*Instance, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("polarcxlmem: InstanceConfig.Name is required")
	}
	if cfg.PoolPages <= 0 {
		return nil, fmt.Errorf("polarcxlmem: instance %q needs PoolPages > 0", cfg.Name)
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 8 << 20
	}
	if pol := cfg.Policy; pol != nil {
		if pol.Tiering != nil && pol.Tiering.FastPages <= 0 {
			return nil, fmt.Errorf("polarcxlmem: instance %q Policy.Tiering.FastPages must be > 0", cfg.Name)
		}
		if pol.Quota != nil {
			if err := pol.Quota.validate(cfg.Name, cfg.PoolPages); err != nil {
				return nil, err
			}
		}
	}
	// Elastic instances carve their CXL reservation at Quota.MaxPages up
	// front; PoolPages is just the initial logical allotment within it.
	carve := carvedPages(cfg)
	if _, ok := c.instances[cfg.Name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrInstanceExists, cfg.Name)
	}
	clk := simclock.New()
	poolLeaf, hostLeaf, ckptLeaf := -1, -1, -1
	if cfg.Placement != nil {
		poolLeaf, hostLeaf, ckptLeaf = cfg.Placement.PoolLeaf, cfg.Placement.HostLeaf, cfg.Placement.CheckpointLeaf
		if poolLeaf >= c.topo.Leaves() || hostLeaf >= c.topo.Leaves() || ckptLeaf >= c.topo.Leaves() {
			return nil, fmt.Errorf("polarcxlmem: instance %q placement (host %d, pool %d, ckpt %d) exceeds topology (%d leaves)",
				cfg.Name, hostLeaf, poolLeaf, ckptLeaf, c.topo.Leaves())
		}
	}
	if poolLeaf < 0 {
		var err error
		if poolLeaf, err = c.place(core.RegionSizeFor(carve)); err != nil {
			return nil, err
		}
	}
	if hostLeaf < 0 {
		hostLeaf = poolLeaf // default policy: intra-switch placement
	}
	host, err := c.topo.AttachHost(cfg.Name+"-host", hostLeaf)
	if err != nil {
		return nil, err
	}
	region, err := host.AllocateOn(clk, poolLeaf, cfg.Name, core.RegionSizeFor(carve))
	if err != nil {
		return nil, err
	}
	c.placement[cfg.Name] = poolLeaf
	c.hostLeaves[cfg.Name] = hostLeaf
	cache := host.NewCache(cfg.Name, cfg.CacheBytes)
	// Each instance is its own database: its own storage volume and log
	// stream on the shared storage service.
	store := storage.New(c.storageCfg)
	c.stores[cfg.Name] = store
	pool, err := core.Format(host, region, cache, store)
	if err != nil {
		return nil, err
	}
	ws := wal.NewStore(0, 0)
	c.wals[cfg.Name] = ws
	eng, err := txn.Bootstrap(clk, pool, wal.Attach(ws), store)
	if err != nil {
		return nil, err
	}
	inst := &Instance{name: cfg.Name, cluster: c, clk: clk, pool: pool, eng: eng}
	if cfg.Checkpoint != nil {
		// The checkpoint record lives in its own tiny CXL region — by default
		// on the same switch domain as the buffer pool, so it survives host
		// crashes with the pool and is reattachable by name on Recover.
		// Placement.CheckpointLeaf moves it to a different box, where it also
		// survives the POOL box's death and bounds Failover's redo scan.
		if ckptLeaf < 0 {
			ckptLeaf = poolLeaf
		}
		ckReg, err := host.AllocateAt(clk, ckptLeaf, cfg.Name+"-ckpt", checkpoint.AreaSize)
		if err != nil {
			return nil, err
		}
		inst.ckpt, err = checkpoint.NewArea(ckReg)
		if err != nil {
			return nil, err
		}
		c.ckptLeaves[cfg.Name] = ckptLeaf
	}
	if err := c.applyInstanceOptions(inst, cfg); err != nil {
		return nil, err
	}
	if err := c.applyPolicy(inst, cfg); err != nil {
		return nil, err
	}
	c.instances[cfg.Name] = inst
	c.configs[cfg.Name] = cfg
	c.startRouter(inst)
	return inst, nil
}

// applyInstanceOptions wires an engine's commit pipeline and observability
// per cfg — shared by Start and Recover so a recovered instance keeps the
// pipeline it was started with.
func (c *Cluster) applyInstanceOptions(inst *Instance, cfg InstanceConfig) error {
	if c.reg != nil {
		inst.pool.SetObserver(c.reg)
	}
	if cfg.GroupCommit != nil {
		gc := inst.eng.EnableGroupCommit(*cfg.GroupCommit)
		if c.reg != nil {
			gc.SetObserver(c.reg)
		}
	}
	flushPol := cfg.BackgroundFlush
	if flushPol == nil && cfg.Checkpoint != nil {
		// Fuzzy checkpoints need a flusher to drain the dirty backlog below
		// the watermark; default one in when the config omitted it.
		flushPol = &flusher.Policy{}
	}
	if flushPol != nil {
		fl, err := inst.eng.EnableBackgroundFlush(*flushPol)
		if err != nil {
			return err
		}
		if c.reg != nil {
			fl.SetObserver(c.reg)
		}
	}
	if cfg.Checkpoint != nil {
		if inst.ckpt == nil {
			return fmt.Errorf("polarcxlmem: instance %q has no checkpoint area", inst.name)
		}
		cp, err := inst.eng.EnableCheckpoints(inst.ckpt, *cfg.Checkpoint)
		if err != nil {
			return err
		}
		if c.reg != nil {
			cp.SetObserver(c.reg)
		}
	}
	return nil
}

// startRouter fronts an instance's engine with a running dataplane router
// when the cluster was configured with one. Any router left from a previous
// incarnation of the instance is aborted first.
func (c *Cluster) startRouter(inst *Instance) {
	if c.dpCfg == nil {
		return
	}
	if old := c.routers[inst.name]; old != nil {
		old.Abort()
	}
	cfg := *c.dpCfg
	if cfg.Registry == nil {
		cfg.Registry = c.reg
	}
	if cfg.Actor == "" {
		cfg.Actor = "dp-" + inst.name
	}
	if cfg.TenantTag == nil && inst.tierd != nil {
		// Tiering: bind each request's tenant to the worker clock so page
		// touches under it are heat-attributed to that tenant (QoS input).
		cfg.TenantTag = inst.tierd.Heat().Bind
	}
	r := dataplane.New(inst.eng, cfg)
	r.Run()
	c.routers[inst.name] = r
}

// Router returns an instance's front-end request router, or nil when the
// cluster was built without ClusterConfig.Dataplane (or the instance is
// unknown). The router of a crashed instance is aborted; Recover and
// Failover install a fresh one.
func (c *Cluster) Router(name string) *dataplane.Router { return c.routers[name] }

// Recover restarts a crashed instance with PolarRecv: the surviving CXL
// buffer pool is scanned, in-flight pages are rebuilt from redo, everything
// else is reused in place. The instance's original InstanceConfig — cache
// size, commit pipeline — is re-applied to the recovered engine. Returns
// the new instance and the recovery report.
func (c *Cluster) Recover(name string) (*Instance, *recovery.Result, error) {
	old, ok := c.instances[name]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownInstance, name)
	}
	if !old.crashed {
		return nil, nil, fmt.Errorf("%w: instance %q is live", ErrNotCrashed, name)
	}
	cfg := c.configs[name]
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 8 << 20
	}
	clk := simclock.NewAt(old.clk.Now())
	host, err := c.topo.AttachHost(name+"-host", c.hostLeaves[name])
	if err != nil {
		return nil, nil, err
	}
	region, err := host.ReattachOn(clk, c.placement[name], name)
	if err != nil {
		return nil, nil, err
	}
	cache := host.NewCache(name, cfg.CacheBytes)
	var area *checkpoint.Area
	if cfg.Checkpoint != nil {
		ckReg, err := host.ReattachAt(clk, c.ckptLeaves[name], name+"-ckpt")
		if err != nil {
			return nil, nil, err
		}
		if area, err = checkpoint.NewArea(ckReg); err != nil {
			return nil, nil, err
		}
	}
	pool, eng, res, err := recovery.PolarRecv(clk, host, region, cache, c.wals[name], c.stores[name], area)
	if err != nil {
		return nil, nil, err
	}
	res.Publish(c.reg)
	inst := &Instance{name: name, cluster: c, clk: clk, pool: pool, eng: eng, ckpt: area}
	if err := c.applyInstanceOptions(inst, cfg); err != nil {
		return nil, nil, err
	}
	if err := c.applyPolicy(inst, cfg); err != nil {
		return nil, nil, err
	}
	c.instances[name] = inst
	c.startRouter(inst)
	return inst, res, nil
}

// FailBox simulates whole-memory-box power loss on a leaf: the box's device
// refuses all access, its manager's lease table is gone, and its control
// endpoint deregisters. Every instance whose buffer pool lives on that box
// is crashed (the pool image is unreachable, which to the host is
// indistinguishable from losing it). Restart those instances with Failover
// — their pool image did NOT survive, so Recover's PolarRecv path does not
// apply.
func (c *Cluster) FailBox(leaf int) error {
	if leaf < 0 || leaf >= c.topo.Leaves() {
		return fmt.Errorf("polarcxlmem: no leaf %d (topology has %d)", leaf, c.topo.Leaves())
	}
	c.topo.FailBox(leaf)
	for name, inst := range c.instances {
		if c.placement[name] == leaf {
			inst.Crash()
		}
	}
	return nil
}

// RestoreBox powers leaf's memory box back on as replacement hardware:
// zeroed memory, empty lease table. Instances that failed over elsewhere
// keep running where they are; the leaf becomes a placement candidate
// again.
func (c *Cluster) RestoreBox(leaf int) error {
	if leaf < 0 || leaf >= c.topo.Leaves() {
		return fmt.Errorf("polarcxlmem: no leaf %d (topology has %d)", leaf, c.topo.Leaves())
	}
	c.topo.RestoreBox(leaf)
	return nil
}

// BoxFailed reports whether leaf's memory box is powered off.
func (c *Cluster) BoxFailed(leaf int) bool { return c.topo.BoxFailed(leaf) }

// Failover restarts an instance whose memory box died by rebuilding it on a
// surviving leaf: a fresh region is allocated on the emptiest healthy box,
// formatted, and reconstructed from shared storage plus the retained WAL
// (redo from the last reachable checkpoint, then undo). When the instance's
// checkpoint area lives on a box that survived — see
// Placement.CheckpointLeaf — the redo scan is bounded by its published
// checkpoint exactly as on an in-place Recover; when the area died with the
// pool, Failover falls back to the WAL truncation floor and re-arms the
// checkpointer over a fresh area next to the new pool.
//
// Failover refuses instances that are still live (ErrNotCrashed), whose box
// is healthy (ErrBoxHealthy — use Recover, the pool image survived), or
// whose Placement pins the pool to a leaf (ErrPlacementPinned).
func (c *Cluster) Failover(name string) (*Instance, *recovery.Result, error) {
	old, ok := c.instances[name]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownInstance, name)
	}
	if !old.crashed {
		return nil, nil, fmt.Errorf("%w: instance %q is live", ErrNotCrashed, name)
	}
	deadLeaf := c.placement[name]
	if !c.topo.BoxFailed(deadLeaf) {
		return nil, nil, fmt.Errorf("%w: instance %q's pool box on leaf %d is up; use Recover", ErrBoxHealthy, name, deadLeaf)
	}
	cfg := c.configs[name]
	if cfg.Placement != nil && cfg.Placement.PoolLeaf >= 0 {
		return nil, nil, fmt.Errorf("%w: instance %q pool is pinned to leaf %d", ErrPlacementPinned, name, cfg.Placement.PoolLeaf)
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 8 << 20
	}
	size := core.RegionSizeFor(carvedPages(cfg))
	newLeaf, err := c.place(size)
	if err != nil {
		return nil, nil, err
	}
	clk := simclock.NewAt(old.clk.Now())
	host, err := c.topo.AttachHost(name+"-host", c.hostLeaves[name])
	if err != nil {
		return nil, nil, err
	}
	region, err := host.AllocateOn(clk, newLeaf, name, size)
	if err != nil {
		return nil, nil, err
	}
	cache := host.NewCache(name, cfg.CacheBytes)
	// The checkpoint area either survived on another leaf (bounds redo) or
	// died with the pool box (fresh area, redo from the truncation floor).
	var survived, fresh *checkpoint.Area
	if cfg.Checkpoint != nil {
		areaLeaf := c.ckptLeaves[name]
		if !c.topo.BoxFailed(areaLeaf) {
			ckReg, err := host.ReattachAt(clk, areaLeaf, name+"-ckpt")
			if err != nil {
				return nil, nil, err
			}
			if survived, err = checkpoint.NewArea(ckReg); err != nil {
				return nil, nil, err
			}
		} else {
			ckReg, err := host.AllocateAt(clk, newLeaf, name+"-ckpt", checkpoint.AreaSize)
			if err != nil {
				return nil, nil, err
			}
			if fresh, err = checkpoint.NewArea(ckReg); err != nil {
				return nil, nil, err
			}
			c.ckptLeaves[name] = newLeaf
		}
	}
	pool, eng, res, err := recovery.Failover(clk, host, region, cache, c.wals[name], c.stores[name], survived)
	if err != nil {
		return nil, nil, err
	}
	res.Publish(c.reg)
	inst := &Instance{name: name, cluster: c, clk: clk, pool: pool, eng: eng, ckpt: survived}
	if inst.ckpt == nil {
		inst.ckpt = fresh
	}
	if err := c.applyInstanceOptions(inst, cfg); err != nil {
		return nil, nil, err
	}
	if err := c.applyPolicy(inst, cfg); err != nil {
		return nil, nil, err
	}
	c.placement[name] = newLeaf
	c.instances[name] = inst
	c.startRouter(inst)
	return inst, res, nil
}

// Topology exposes the cluster's leaf/spine CXL fabric (stats, advanced
// wiring, per-tier congestion metrics).
func (c *Cluster) Topology() *cxl.Topology { return c.topo }

// Observer returns the registry installed with WithObserver (nil if none).
func (c *Cluster) Observer() *obs.Registry { return c.reg }

// PlacementOf reports which switch domain hosts an instance's buffer pool.
func (c *Cluster) PlacementOf(name string) (int, bool) {
	i, ok := c.placement[name]
	return i, ok
}

// CheckpointLeafOf reports which leaf's box holds an instance's checkpoint
// area (ok=false when the instance has none). Operators planning box
// maintenance use it to know which instances lose their bounded-redo
// guarantee if a given box goes down.
func (c *Cluster) CheckpointLeafOf(name string) (int, bool) {
	i, ok := c.ckptLeaves[name]
	return i, ok
}

// Storage exposes an instance's page-store volume.
func (c *Cluster) Storage(instance string) *storage.Store { return c.stores[instance] }

// Name reports the instance name.
func (i *Instance) Name() string { return i.name }

// Clock exposes the instance's virtual clock.
func (i *Instance) Clock() *simclock.Clock { return i.clk }

// Engine exposes the transaction engine for advanced use (e.g. concurrent
// committers, each with its own clock, via Engine().Begin).
func (i *Instance) Engine() *txn.Engine { return i.eng }

// Pool exposes the CXL buffer pool (stats, diagnostics).
func (i *Instance) Pool() *core.CXLPool { return i.pool }

// CheckpointArea exposes the CXL-durable checkpoint record, or nil when the
// instance was started without InstanceConfig.Checkpoint.
func (i *Instance) CheckpointArea() *checkpoint.Area { return i.ckpt }

// Tiering exposes the instance's placement daemon (heat map, stats, QoS),
// or nil when it was started without Policy.Tiering.
func (i *Instance) Tiering() *tier.Daemon { return i.tierd }

func (i *Instance) alive() error {
	if i.crashed {
		return fmt.Errorf("%w: %q; call Cluster.Recover", ErrCrashed, i.name)
	}
	return nil
}

// CreateTable creates a named B+tree table.
func (i *Instance) CreateTable(name string) (*Table, error) {
	if err := i.alive(); err != nil {
		return nil, err
	}
	tr, err := i.eng.CreateTable(i.clk, name)
	if err != nil {
		return nil, err
	}
	return &Table{tree: tr, inst: i}, nil
}

// OpenTable opens an existing table from the durable catalog.
func (i *Instance) OpenTable(name string) (*Table, error) {
	if err := i.alive(); err != nil {
		return nil, err
	}
	tr, err := i.eng.Table(i.clk, name)
	if err != nil {
		return nil, err
	}
	return &Table{tree: tr, inst: i}, nil
}

// Begin starts a transaction.
func (i *Instance) Begin() *Txn {
	return &Txn{tx: i.eng.Begin(i.clk), inst: i}
}

// Checkpoint forces the log and flushes dirty pages to storage.
func (i *Instance) Checkpoint() error {
	if err := i.alive(); err != nil {
		return err
	}
	return i.eng.Checkpoint(i.clk)
}

// Crash simulates a host failure: local DRAM state and the CPU cache are
// lost; the CXL buffer pool, the durable log, and storage survive. The
// instance's dataplane router (if any) is aborted: queued requests complete
// with dataplane.ErrClosed, exactly what in-flight clients of a dead front
// end observe.
func (i *Instance) Crash() {
	if i.crashed {
		return
	}
	i.crashed = true
	if r := i.cluster.routers[i.name]; r != nil {
		r.Abort()
	}
	i.pool.Crash()
}

// Table is a handle to a B+tree table.
type Table struct {
	tree *btree.Tree
	inst *Instance
}

// Tree exposes the underlying B+tree.
func (t *Table) Tree() *btree.Tree { return t.tree }

// Txn is a transaction on an instance.
type Txn struct {
	tx   *txn.Txn
	inst *Instance
}

// Insert adds (key, value) to table.
func (t *Txn) Insert(table *Table, key int64, value []byte) error {
	return t.tx.Insert(table.tree, key, value)
}

// Update replaces key's value.
func (t *Txn) Update(table *Table, key int64, value []byte) error {
	return t.tx.Update(table.tree, key, value)
}

// Delete removes key.
func (t *Txn) Delete(table *Table, key int64) error {
	return t.tx.Delete(table.tree, key)
}

// Get reads key's value.
func (t *Txn) Get(table *Table, key int64) ([]byte, error) {
	return t.tx.Get(table.tree, key)
}

// Scan reads up to limit records with key >= from.
func (t *Txn) Scan(table *Table, from int64, limit int) ([]btree.KV, error) {
	return t.tx.Scan(table.tree, from, limit)
}

// Commit makes the transaction durable (group commit).
func (t *Txn) Commit() error { return t.tx.Commit() }

// Rollback undoes the transaction.
func (t *Txn) Rollback() error { return t.tx.Rollback() }
