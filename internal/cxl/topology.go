package cxl

import (
	"fmt"
	"sync"
	"sync/atomic"

	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simmem"
	"polarcxlmem/internal/simnet"
)

// TopologyConfig declares a leaf/spine CXL fabric. The zero value (or
// Leaves <= 1) is a single-switch deployment: one leaf, one memory box, no
// spine, no inter-switch links.
type TopologyConfig struct {
	// Leaves is the number of leaf switches, each with its own memory box.
	// 0 or 1 = single switch (no spine tier is built).
	Leaves int
	// HostsPerLeaf caps host attachments per leaf switch (port count).
	// 0 = unbounded.
	HostsPerLeaf int
	// PoolBytes is each leaf's memory-box capacity; 0 = DefaultPoolBytes.
	PoolBytes int64
	// LeafBW is each leaf switch's crossbar capacity in bytes/s;
	// 0 = FabricBandwidth (the XConn XC50256 rate).
	LeafBW float64
	// SpineBW is the spine crossbar capacity; 0 = SpineBandwidth.
	SpineBW float64
	// InterSwitchBW is each leaf<->spine trunk's bandwidth; 0 =
	// InterSwitchBandwidth.
	InterSwitchBW float64
	// InterSwitchNanos is the extra propagation+forwarding latency per
	// additional switch traversal; 0 = the calibrated InterSwitchNanos.
	InterSwitchNanos int64
	// HostLinkBW is each host's x16 link bandwidth; 0 = HostLinkBandwidth.
	HostLinkBW float64
	// RPCNanos is the manager control-plane RPC round trip; 0 =
	// ManagerRPCNanos.
	RPCNanos int64
	// RPCRetry is the seeded-backoff retry policy installed on every memory
	// box's manager RPC fabric, so transient control-plane faults are
	// absorbed and persistent ones surface as deadline errors within a
	// bounded virtual time. nil = DefaultRPCRetry().
	RPCRetry *simnet.RetryPolicy
	// Health parameterizes the per-trunk/leaf fault state machine (flap
	// repair time, probation window, degraded-bandwidth factor). Zero
	// fields take calibrated defaults.
	Health HealthPolicy
	// Profile is the memory-box device timing; zero Name = SwitchProfile.
	Profile simmem.Profile
}

func (c TopologyConfig) withDefaults() TopologyConfig {
	if c.Leaves <= 0 {
		c.Leaves = 1
	}
	if c.PoolBytes == 0 {
		c.PoolBytes = DefaultPoolBytes
	}
	if c.LeafBW == 0 {
		c.LeafBW = FabricBandwidth
	}
	if c.SpineBW == 0 {
		c.SpineBW = SpineBandwidth
	}
	if c.InterSwitchBW == 0 {
		c.InterSwitchBW = InterSwitchBandwidth
	}
	if c.InterSwitchNanos == 0 {
		c.InterSwitchNanos = InterSwitchNanos
	}
	if c.HostLinkBW == 0 {
		c.HostLinkBW = HostLinkBandwidth
	}
	if c.RPCNanos == 0 {
		c.RPCNanos = ManagerRPCNanos
	}
	if c.RPCRetry == nil {
		c.RPCRetry = DefaultRPCRetry()
	}
	c.Health = c.Health.withDefaults()
	if c.Profile.Name == "" {
		c.Profile = SwitchProfile()
	}
	return c
}

// MemoryBox is one pooled memory unit behind a leaf switch: the device, its
// allocation manager, and the manager's control-plane RPC fabric. Boxes are
// powered independently of any host, so their contents and lease state
// survive host crashes (§3.2).
type MemoryBox struct {
	dev    *simmem.Device
	mgr    *Manager
	rpc    *simnet.Fabric
	failed atomic.Bool // power lost: contents, leases, and endpoint gone
}

// Device exposes the box's pooled memory device.
func (b *MemoryBox) Device() *simmem.Device { return b.dev }

// Manager exposes the box's memory manager (direct, non-RPC access).
func (b *MemoryBox) Manager() *Manager { return b.mgr }

// Failed reports whether the box has lost power (Topology.FailBox).
func (b *MemoryBox) Failed() bool { return b.failed.Load() }

// InterSwitchLink is one leaf<->spine trunk: a bandwidth resource plus the
// fixed per-traversal switch-forwarding latency, carrying its own health
// state machine.
type InterSwitchLink struct {
	topo   *Topology
	res    *simclock.Resource
	lat    int64
	health *health
}

// Resource exposes the trunk's queueing resource (stats, wait observers).
func (l *InterSwitchLink) Resource() *simclock.Resource { return l.res }

// Use charges one traversal of the trunk: the fixed forwarding latency plus
// n bytes of trunk bandwidth (queueing behind concurrent traversals). A
// Degraded trunk additionally occupies the link for (DegradeFactor-1) times
// the service time — the stream really does take DegradeFactor times as
// long — and counts the traversal on cxl.fabric.degraded.trunk.
func (l *InterSwitchLink) Use(clk *simclock.Clock, n int64) {
	clk.Advance(l.lat)
	l.res.Use(clk, n)
	if l.topo.chaosArmed() && l.health.observe(clk.Now()) == Degraded {
		l.res.Occupy(clk, l.res.ServiceTime(n)*(l.health.pol.DegradeFactor-1))
		l.topo.degTrunk.Inc()
	}
}

// Leaf is one leaf switch: its crossbar fabric, its memory box, and (in a
// multi-leaf topology) its uplink to the spine.
type Leaf struct {
	topo   *Topology
	idx    int
	fabric *simclock.Resource
	box    *MemoryBox
	uplink *InterSwitchLink // nil in a single-leaf topology
	health *health          // crossbar health
}

// useFabric charges the crossbar like fabric.Use, plus the degraded-state
// occupancy and counter when the crossbar is Degraded.
func (l *Leaf) useFabric(clk *simclock.Clock, n int64) {
	l.fabric.Use(clk, n)
	if l.topo.chaosArmed() && l.health.observe(clk.Now()) == Degraded {
		l.fabric.Occupy(clk, l.fabric.ServiceTime(n)*(l.health.pol.DegradeFactor-1))
		l.topo.degLeaf.Inc()
	}
}

// Index reports the leaf's position in the topology.
func (l *Leaf) Index() int { return l.idx }

// Box exposes the leaf's memory box.
func (l *Leaf) Box() *MemoryBox { return l.box }

// Fabric exposes the leaf's crossbar resource.
func (l *Leaf) Fabric() *simclock.Resource { return l.fabric }

// Uplink exposes the leaf's trunk to the spine (nil when single-leaf).
func (l *Leaf) Uplink() *InterSwitchLink { return l.uplink }

// Topology is a composable leaf/spine CXL fabric: hosts attach to leaf
// switches over x16 links, each leaf fronts a memory box, and leaves connect
// through a spine crossbar over inter-switch trunks. A transfer charges
// every component on its route — host link, attachment-leaf crossbar,
// both trunks and the spine when the target box is on another leaf, and the
// box leaf's crossbar — so congestion appears wherever the route saturates.
type Topology struct {
	cfg    TopologyConfig
	leaves []*Leaf
	spine  *simclock.Resource // nil for single-leaf topologies

	// chaos arms the fault path: until an injector is installed or a chaos
	// API fires, data routes skip health/injection checks entirely, so
	// fault-free deployments keep the exact pre-fault cost model and replay
	// sequences.
	chaos atomic.Bool

	// reg is the registry every component reports into, fixed at
	// construction (nil for none); the handles below come from it.
	reg               *obs.Registry
	degLeaf, degTrunk *obs.Counter // cxl.fabric.degraded.{leaf,trunk}
	linkWait          func(int64)  // cxl.link.host.wait_ns; nil without reg

	mu    sync.Mutex
	hosts map[string]*HostPort
	inj   fault.Injector // optional fault injector; may be nil
}

// chaosArmed reports whether any fault machinery is live.
func (t *Topology) chaosArmed() bool { return t.chaos.Load() }

// armChaos turns the fault path on (never off: conservative, and cheap —
// the armed checks are mutex peeks against healthy states).
func (t *Topology) armChaos() { t.chaos.Store(true) }

// NewTopology builds the fabric declared by cfg (zero fields get calibrated
// defaults). Single-leaf topologies keep the legacy resource names
// ("cxl-pool", "cxl-fabric") so existing metrics and replay sequences are
// unchanged; multi-leaf topologies suffix per-leaf components with /leaf<i>.
//
// reg (nil for none) is threaded through every component as it is built:
// each memory box's device (mem.cxl-pool*.* counters) and manager RPC
// fabric (simnet.*), the degraded-traversal counters, and the queueing-wait
// histograms split by tier — cxl.fabric.leaf.wait_ns (leaf crossbars),
// cxl.fabric.spine.wait_ns, cxl.link.interswitch.wait_ns (trunks), and
// cxl.link.host.wait_ns for every host link AttachHost creates — so
// congestion is attributable to the component that queued. Pools and
// servers built on a HostPort read it back with HostPort.Observer.
func NewTopology(cfg TopologyConfig, reg *obs.Registry) *Topology {
	cfg = cfg.withDefaults()
	t := &Topology{
		cfg:      cfg,
		hosts:    make(map[string]*HostPort),
		reg:      reg,
		degLeaf:  reg.Counter("cxl.fabric.degraded.leaf"),
		degTrunk: reg.Counter("cxl.fabric.degraded.trunk"),
		linkWait: waitObserver(reg, "cxl.link.host.wait_ns"),
	}
	if cfg.Leaves > 1 {
		t.spine = simclock.NewResource("cxl-fabric/spine", cfg.SpineBW)
		t.spine.SetWaitObserver(waitObserver(reg, "cxl.fabric.spine.wait_ns"))
	}
	leafWait := waitObserver(reg, "cxl.fabric.leaf.wait_ns")
	for i := 0; i < cfg.Leaves; i++ {
		suffix := ""
		if cfg.Leaves > 1 {
			suffix = fmt.Sprintf("/leaf%d", i)
		}
		fabric := simclock.NewResource("cxl-fabric"+suffix, cfg.LeafBW)
		fabric.SetWaitObserver(leafWait)
		dev := simmem.NewDevice("cxl-pool"+suffix, cfg.PoolBytes, cfg.Profile, fabric, reg)
		box := &MemoryBox{dev: dev, rpc: simnet.New(cfg.RPCNanos, nil, reg)}
		box.mgr = newManager(dev)
		box.mgr.register(box.rpc)
		rp := *cfg.RPCRetry // each fabric gets its own copy
		box.rpc.SetRetryPolicy(&rp)
		leaf := &Leaf{topo: t, idx: i, fabric: fabric, box: box,
			health: newHealth(fabric.Name(), cfg.Health)}
		if cfg.Leaves > 1 {
			name := fmt.Sprintf("cxl-uplink/leaf%d", i)
			leaf.uplink = &InterSwitchLink{
				topo:   t,
				res:    simclock.NewResource(name, cfg.InterSwitchBW),
				lat:    cfg.InterSwitchNanos,
				health: newHealth(name, cfg.Health),
			}
			leaf.uplink.res.SetWaitObserver(waitObserver(reg, "cxl.link.interswitch.wait_ns"))
		}
		t.leaves = append(t.leaves, leaf)
	}
	return t
}

// waitObserver returns reg's histogram name as a resource wait observer, or
// nil without a registry, so an unobserved resource makes no call.
func waitObserver(reg *obs.Registry, name string) func(int64) {
	if reg == nil {
		return nil
	}
	return reg.Histogram(name).Observe
}

// Leaves reports the number of leaf switches.
func (t *Topology) Leaves() int { return len(t.leaves) }

// Leaf returns leaf i.
func (t *Topology) Leaf(i int) *Leaf { return t.leaves[i] }

// Spine exposes the spine crossbar resource (nil for single-leaf).
func (t *Topology) Spine() *simclock.Resource { return t.spine }

// AttachHost connects a host to leaf switch leaf, creating its x16 link.
// Attaching an already-attached name returns the existing port regardless of
// leaf (reconnect after crash). It fails when leaf is out of range or the
// leaf's port count (HostsPerLeaf) is exhausted.
func (t *Topology) AttachHost(name string, leaf int) (*HostPort, error) {
	if leaf < 0 || leaf >= len(t.leaves) {
		return nil, fmt.Errorf("cxl: attach %q: no leaf %d (topology has %d)", name, leaf, len(t.leaves))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.hosts[name]; ok {
		return h, nil
	}
	if t.cfg.HostsPerLeaf > 0 {
		used := 0
		for _, h := range t.hosts {
			if h.leaf.idx == leaf {
				used++
			}
		}
		if used >= t.cfg.HostsPerLeaf {
			return nil, fmt.Errorf("cxl: attach %q: leaf %d ports exhausted (%d)", name, leaf, t.cfg.HostsPerLeaf)
		}
	}
	l := t.leaves[leaf]
	h := &HostPort{
		name: name,
		leaf: l,
		link: simclock.NewResource("cxl-link/"+name, t.cfg.HostLinkBW),
	}
	h.setHome(l)
	h.link.SetWaitObserver(t.linkWait)
	t.hosts[name] = h
	return h, nil
}

// SetInjector installs (or, with nil, removes) the fault injector consulted
// at every host attach/detach point (HostPort Allocate, Reattach, Release),
// at every data-route resolution (the fabric ops OpLeafXbar, OpTrunkXfer,
// OpBoxAccess, fired in route order), and on every memory box's manager RPC
// fabric (OpNetSend/OpNetRecv, where the retry policy absorbs transients).
// Injection on the pooled memory devices is installed separately via each
// box's Device().SetInjector, so recovery code can keep regions healthy
// while region-mapping RPCs fail, or vice versa.
func (t *Topology) SetInjector(inj fault.Injector) {
	t.mu.Lock()
	t.inj = inj
	t.mu.Unlock()
	for _, l := range t.leaves {
		l.box.rpc.SetInjector(inj)
	}
	if inj != nil {
		t.armChaos()
	}
}

func (t *Topology) injector() fault.Injector {
	t.mu.Lock()
	inj := t.inj
	t.mu.Unlock()
	return inj
}

func (t *Topology) portPoint(op fault.Op) error {
	if inj := t.injector(); inj != nil {
		return inj.Point(op, 0)
	}
	return nil
}

// Chaos APIs: explicit fault-domain control for tests and harnesses. All
// transitions are virtual-time, so callers pass the observing clock's now.
// Trunk APIs require a multi-leaf topology (single-leaf fabrics have no
// trunks) and panic on a missing uplink — that is a harness bug, not a
// runtime condition.

func (t *Topology) trunk(leaf int) *InterSwitchLink {
	l := t.leaves[leaf] // panics on out-of-range: harness bug
	if l.uplink == nil {
		panic(fmt.Sprintf("cxl: leaf %d has no trunk (single-leaf topology)", leaf))
	}
	return l.uplink
}

// FailTrunk downs leaf's spine trunk persistently (until RestoreTrunk):
// cross-leaf routes over it become unreachable.
func (t *Topology) FailTrunk(now int64, leaf int) {
	t.armChaos()
	t.trunk(leaf).health.fail(now, true)
}

// FlapTrunk downs leaf's spine trunk transiently: it self-repairs into
// probation RepairNanos later.
func (t *Topology) FlapTrunk(now int64, leaf int) {
	t.armChaos()
	t.trunk(leaf).health.fail(now, false)
}

// DegradeTrunk reduces leaf's trunk to 1/DegradeFactor of its bandwidth
// until RestoreTrunk.
func (t *Topology) DegradeTrunk(now int64, leaf int) {
	t.armChaos()
	t.trunk(leaf).health.degrade(now)
}

// RestoreTrunk repairs leaf's trunk into probation.
func (t *Topology) RestoreTrunk(now int64, leaf int) {
	t.armChaos()
	t.trunk(leaf).health.restore(now)
}

// TrunkState reports leaf's trunk health at now.
func (t *Topology) TrunkState(now int64, leaf int) HealthState {
	return t.trunk(leaf).health.observe(now)
}

// FailBox power-fails leaf's memory box: device contents become unreachable
// (and are lost — PowerOn is replacement hardware), the manager's leases
// are wiped, and its RPC endpoint deregisters, so control-plane calls fail
// fast with ErrNoEndpoint instead of retrying into a dead controller. Data
// routes ending at the box return ErrFabricUnreachable.
func (t *Topology) FailBox(leaf int) {
	t.armChaos()
	b := t.leaves[leaf].box
	b.failed.Store(true)
	b.dev.PowerOff()
	b.mgr.wipeLeases()
	b.rpc.Deregister(mgrEndpoint)
}

// RestoreBox brings leaf's box back as REPLACEMENT hardware: an empty
// zeroed device with no leases and a fresh manager endpoint. Anything that
// lived there must be re-allocated and rebuilt from durable state elsewhere
// (WAL, checkpoint areas, surviving replicas).
func (t *Topology) RestoreBox(leaf int) {
	b := t.leaves[leaf].box
	b.dev.PowerOn()
	b.mgr.wipeLeases()
	b.mgr.register(b.rpc)
	b.failed.Store(false)
}

// BoxFailed reports whether leaf's box is powered off.
func (t *Topology) BoxFailed(leaf int) bool { return t.leaves[leaf].box.Failed() }

// ResetStats clears accounting on every component — leaf crossbars, spine,
// trunks, host links, and each box's manager RPC fabric — between experiment
// phases. Allocation lease state and device contents are untouched.
func (t *Topology) ResetStats() {
	for _, l := range t.leaves {
		l.fabric.Reset()
		if l.uplink != nil {
			l.uplink.res.Reset()
		}
		l.box.rpc.ResetStats()
	}
	if t.spine != nil {
		t.spine.Reset()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, h := range t.hosts {
		h.link.Reset()
	}
}
