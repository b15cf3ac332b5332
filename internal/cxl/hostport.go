package cxl

import (
	"errors"
	"fmt"
	"sync"

	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simcpu"
	"polarcxlmem/internal/simmem"
)

// HostPort is one host's attachment to a leaf switch. Its allocations live
// on a home memory box — its own leaf's box by default, or another leaf's
// when placed with AllocateOn — and every data transfer charges the full
// route between the host and that box.
type HostPort struct {
	name string
	leaf *Leaf // attachment point
	link *simclock.Resource

	mu   sync.Mutex
	home *Leaf // the box this host's allocations target
}

// Name reports the host name.
func (h *HostPort) Name() string { return h.name }

// Link exposes the host's CXL link resource (for cache wiring and stats).
func (h *HostPort) Link() *simclock.Resource { return h.link }

// Leaf reports the leaf switch the host is attached to.
func (h *HostPort) Leaf() *Leaf { return h.leaf }

// HomeLeaf reports the leaf whose memory box holds the host's allocations.
func (h *HostPort) HomeLeaf() *Leaf {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.home
}

func (h *HostPort) setHome(l *Leaf) {
	h.mu.Lock()
	h.home = l
	h.mu.Unlock()
}

// crossHops charges the extra switch-side hops a cross-leaf access pays
// beyond the single-switch route: the attachment leaf's crossbar, the uplink
// to the spine, the spine crossbar, and the downlink into the home leaf —
// each trunk traversal adding the calibrated per-switch latency. Intra-leaf
// accesses charge nothing here, preserving the single-switch cost model
// exactly.
func (h *HostPort) crossHops(clk *simclock.Clock, home *Leaf, n int64) {
	if home == h.leaf {
		return
	}
	h.leaf.useFabric(clk, n)
	h.leaf.uplink.Use(clk, n)
	h.leaf.topo.spine.Use(clk, n)
	home.uplink.Use(clk, n)
}

// resolveRoute consults the injector and health state for every component
// on the data route between the host and home's box, in route order:
// the attachment leaf's crossbar (OpLeafXbar), then on cross-leaf routes
// both trunks (OpTrunkXfer, attachment side first) and the home crossbar
// (OpLeafXbar), and finally the home box itself (OpBoxAccess). Injected
// health sentinels transition the component's state machine (ErrDegrade ->
// Degraded, ErrLinkFlap -> transient Failed, ErrLinkDown -> persistent
// Failed, ErrBoxPower -> box power loss); the post-transition state then
// decides the outcome.
//
// In error mode (wait=false — the Transfer bulk paths), a Failed component
// or dead box returns *UnreachableError and non-sentinel injected errors
// propagate. In wait mode (wait=true — the void Interconnect paths used by
// CPU-cache fills and flag words), a transiently Failed component stalls
// the stream until the component self-repairs, a persistently Failed one
// panics (harness bug: void paths cannot report unreachability — route
// bulk transfers there instead), non-sentinel injected errors are ignored
// (the device access surfaces them), and a dead box proceeds so that the
// device itself returns its typed power-loss error.
//
// Until chaos is armed (no injector, no chaos API fired) this is a single
// atomic load, preserving the exact fault-free cost model and replay
// sequences.
func (h *HostPort) resolveRoute(clk *simclock.Clock, home *Leaf, n int64, wait bool) error {
	t := h.leaf.topo
	if !t.chaosArmed() {
		return nil
	}
	inj := t.injector()
	if err := routeComponent(clk, inj, fault.OpLeafXbar, h.leaf.health, n, wait); err != nil {
		return err
	}
	if home != h.leaf {
		if err := routeComponent(clk, inj, fault.OpTrunkXfer, h.leaf.uplink.health, n, wait); err != nil {
			return err
		}
		if err := routeComponent(clk, inj, fault.OpTrunkXfer, home.uplink.health, n, wait); err != nil {
			return err
		}
		if err := routeComponent(clk, inj, fault.OpLeafXbar, home.health, n, wait); err != nil {
			return err
		}
	}
	if inj != nil {
		if err := inj.Point(fault.OpBoxAccess, n); err != nil {
			switch {
			case errors.Is(err, fault.ErrBoxPower):
				t.FailBox(home.idx)
			case !wait:
				return err
			}
		}
	}
	if home.box.Failed() && !wait {
		return &UnreachableError{Component: home.box.dev.Name(), State: Failed}
	}
	return nil
}

// routeComponent fires one route-resolution injection point against a
// component's health machine and enforces the resulting state; see
// resolveRoute for the mode semantics.
func routeComponent(clk *simclock.Clock, inj fault.Injector, op fault.Op, hp *health, n int64, wait bool) error {
	if inj != nil {
		if err := inj.Point(op, n); err != nil {
			switch {
			case errors.Is(err, fault.ErrDegrade):
				hp.degrade(clk.Now())
			case errors.Is(err, fault.ErrLinkFlap):
				hp.fail(clk.Now(), false)
			case errors.Is(err, fault.ErrLinkDown):
				hp.fail(clk.Now(), true)
			case !wait:
				return err
			}
		}
	}
	if hp.observe(clk.Now()) != Failed {
		return nil
	}
	if !wait {
		return &UnreachableError{Component: hp.name, State: Failed}
	}
	until, sticky := hp.repair()
	if sticky {
		panic(fmt.Sprintf("cxl: %s is persistently failed on a void data path; restore it or use the error-returning Transfer paths", hp.name))
	}
	// Transient outage on a void path: the stream stalls until the
	// component self-repairs into probation.
	clk.AdvanceTo(until)
	hp.observe(clk.Now())
	return nil
}

// hostDataPath charges the host-side data route at Use time: the host's x16
// link always, plus the cross-leaf hops when the host's home box is on
// another leaf. The home-box crossbar itself is charged by the device access
// (the device's bandwidth resource), so the two compose into the full route.
type hostDataPath struct{ h *HostPort }

func (p hostDataPath) Use(clk *simclock.Clock, n int64) {
	home := p.h.HomeLeaf()
	p.h.resolveRoute(clk, home, n, true) // wait mode: nil or stalls
	p.h.link.Use(clk, n)
	p.h.crossHops(clk, home, n)
}

// hostFabricPath charges only the switch-side cross-leaf hops — no host
// link. Direct flag-word loads/stores already pay the device profile (which
// models the local path); a node on another leaf additionally pays the
// trunk/spine route through this path. Intra-leaf it charges nothing.
type hostFabricPath struct{ h *HostPort }

func (p hostFabricPath) Use(clk *simclock.Clock, n int64) {
	home := p.h.HomeLeaf()
	p.h.resolveRoute(clk, home, n, true) // wait mode: nil or stalls
	p.h.crossHops(clk, home, n)
}

// Interconnect is a charged transport (cxl.Path-style): both path flavours
// and *simclock.Resource satisfy it.
type Interconnect interface {
	Use(clk *simclock.Clock, units int64)
}

// DataPath returns the host's CPU<->home-box data interconnect (link plus
// any cross-leaf hops), resolved against the home leaf at each Use.
func (h *HostPort) DataPath() Interconnect { return hostDataPath{h} }

// FabricPath returns the switch-side-only interconnect for direct CXL
// word accesses (coherency flags): free intra-leaf, trunk+spine cost when
// the host's home box is on another leaf.
func (h *HostPort) FabricPath() Interconnect { return hostFabricPath{h} }

// NewCache builds a CPU cache for a database node on this host, wired to
// charge the host's data route on fills and write-backs.
func (h *HostPort) NewCache(node string, capacityBytes int64) *simcpu.Cache {
	c := simcpu.New(node, capacityBytes, 5)
	c.SetInterconnect(hostDataPath{h})
	return c
}

// rpcCall issues a manager control-plane RPC against leaf's box. Control
// traffic rides Ethernet to the box controller (§3.1), not the CXL fabric,
// so no fabric-path cost applies regardless of placement.
func (h *HostPort) rpcCall(clk *simclock.Clock, leaf *Leaf, method string, req any) (any, error) {
	return leaf.box.rpc.Call(clk, mgrEndpoint, method, 64, req)
}

// Allocate requests size bytes of pooled CXL memory for client from the
// host's home box via the manager RPC and returns a bounds-checked region.
// One RPC at startup, as in the paper.
func (h *HostPort) Allocate(clk *simclock.Clock, client string, size int64) (*simmem.Region, error) {
	return h.AllocateOn(clk, h.HomeLeaf().idx, client, size)
}

// AllocateOn places client's allocation on leaf's memory box and makes that
// box the host's home: subsequent allocations, transfers, and cache traffic
// route there (paying trunk+spine cost when it is not the attachment leaf).
func (h *HostPort) AllocateOn(clk *simclock.Clock, leaf int, client string, size int64) (*simmem.Region, error) {
	r, err := h.AllocateAt(clk, leaf, client, size)
	if err != nil {
		return nil, err
	}
	h.setHome(h.leaf.topo.leaves[leaf])
	return r, nil
}

// AllocateAt places client's allocation on leaf's memory box WITHOUT making
// that box the host's home: data routes keep targeting the current home.
// Auxiliary durable areas (checkpoint records) use this so their placement
// — possibly a different failure domain than the buffer pool — never
// redirects the instance's data traffic.
func (h *HostPort) AllocateAt(clk *simclock.Clock, leaf int, client string, size int64) (*simmem.Region, error) {
	t := h.leaf.topo
	if leaf < 0 || leaf >= len(t.leaves) {
		return nil, fmt.Errorf("cxl: allocate %q: no leaf %d (topology has %d)", client, leaf, len(t.leaves))
	}
	if err := t.portPoint(fault.OpHostAttach); err != nil {
		return nil, err
	}
	target := t.leaves[leaf]
	if target.box.Failed() {
		return nil, &UnreachableError{Component: target.box.dev.Name(), State: Failed}
	}
	resp, err := h.rpcCall(clk, target, "alloc", allocReq{Client: client, Size: size})
	if err != nil {
		return nil, err
	}
	off := resp.(int64)
	return target.box.dev.Region(off, size)
}

// Reattach recovers the region previously allocated to client from the
// host's home box — the restart path after a host crash: the manager's
// lease state survived on the box controller, so the new process maps the
// same offset and finds its buffer pool intact.
func (h *HostPort) Reattach(clk *simclock.Clock, client string) (*simmem.Region, error) {
	return h.ReattachOn(clk, h.HomeLeaf().idx, client)
}

// ReattachOn recovers client's region from leaf's memory box and makes that
// box the host's home (the cross-leaf restart path).
func (h *HostPort) ReattachOn(clk *simclock.Clock, leaf int, client string) (*simmem.Region, error) {
	r, err := h.ReattachAt(clk, leaf, client)
	if err != nil {
		return nil, err
	}
	h.setHome(h.leaf.topo.leaves[leaf])
	return r, nil
}

// ReattachAt recovers client's region from leaf's memory box WITHOUT
// rehoming the host (the auxiliary-area counterpart of ReattachOn).
func (h *HostPort) ReattachAt(clk *simclock.Clock, leaf int, client string) (*simmem.Region, error) {
	t := h.leaf.topo
	if leaf < 0 || leaf >= len(t.leaves) {
		return nil, fmt.Errorf("cxl: reattach %q: no leaf %d (topology has %d)", client, leaf, len(t.leaves))
	}
	if err := t.portPoint(fault.OpHostAttach); err != nil {
		return nil, err
	}
	target := t.leaves[leaf]
	if target.box.Failed() {
		return nil, &UnreachableError{Component: target.box.dev.Name(), State: Failed}
	}
	resp, err := h.rpcCall(clk, target, "reattach", client)
	if err != nil {
		return nil, err
	}
	l := resp.(lease)
	return target.box.dev.Region(l.off, l.size)
}

// Release frees client's allocation on the host's home box.
func (h *HostPort) Release(clk *simclock.Clock, client string) error {
	if err := h.leaf.topo.portPoint(fault.OpHostDetach); err != nil {
		return err
	}
	home := h.HomeLeaf()
	if home.box.Failed() {
		return &UnreachableError{Component: home.box.dev.Name(), State: Failed}
	}
	_, err := h.rpcCall(clk, home, "free", client)
	return err
}

// transfer charges a calibrated bulk copy between host DRAM and the home
// box: the table value already includes transfer time, so the link/fabric
// service portions are subtracted from the fixed latency — an uncontended
// intra-leaf copy costs exactly the Table 2 value, while concurrent copies
// queue on the shared links. A cross-leaf copy additionally pays the
// attachment crossbar, both trunks (with per-switch latency), and the spine.
// The route is resolved first: a Failed component or dead box returns
// *UnreachableError (wrapping ErrFabricUnreachable) and nothing is charged.
func (h *HostPort) transfer(clk *simclock.Clock, tab *simmem.LatencyTable, n int64) error {
	home := h.HomeLeaf()
	if err := h.resolveRoute(clk, home, n, false); err != nil {
		return err
	}
	fixed := tab.Cost(n) - h.link.ServiceTime(n) - home.fabric.ServiceTime(n)
	if fixed > 0 {
		clk.Advance(fixed)
	}
	// The home crossbar is charged before the trunk hops: resources queue in
	// call order, so charging it after a deeply queued trunk would stamp the
	// crossbar's next-free time with the trunk's backlog and drag unrelated
	// intra-leaf traffic behind it. Charging bandwidth at the issue-side time
	// keeps crossbar arrivals causal; the stream itself still pays every hop.
	h.link.Use(clk, n)
	home.useFabric(clk, n)
	h.crossHops(clk, home, n)
	return nil
}

// TransferRead charges the calibrated bulk CXL->DRAM copy cost (Table 2)
// for n bytes, including link and fabric bandwidth. It fails with
// ErrFabricUnreachable (wrapped) when the route to the home box is down.
func (h *HostPort) TransferRead(clk *simclock.Clock, n int64) error {
	return h.transfer(clk, ReadTransfer, n)
}

// TransferWrite charges the calibrated bulk DRAM->CXL copy cost for n
// bytes; same failure contract as TransferRead.
func (h *HostPort) TransferWrite(clk *simclock.Clock, n int64) error {
	return h.transfer(clk, WriteTransfer, n)
}

// String implements fmt.Stringer for diagnostics.
func (h *HostPort) String() string { return fmt.Sprintf("cxl-host(%s)", h.name) }
