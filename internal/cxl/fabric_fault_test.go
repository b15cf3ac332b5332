package cxl

// Fabric fault tolerance: the health state machine, route-resolution fault
// injection, degraded-bandwidth charging, unreachable-route errors, box
// power loss, and control-plane retry absorption.

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simcpu"
	"polarcxlmem/internal/simmem"
	"polarcxlmem/internal/simnet"
)

// threeLeaf builds a 3-leaf fabric with a host on leaf 0 homed on home.
func threeLeaf(t *testing.T, home int) (*Topology, *HostPort, *simclock.Clock) {
	t.Helper()
	return threeLeafObserved(t, home, nil)
}

// threeLeafObserved is threeLeaf with every component reporting into reg.
func threeLeafObserved(t *testing.T, home int, reg *obs.Registry) (*Topology, *HostPort, *simclock.Clock) {
	t.Helper()
	topo := NewTopology(TopologyConfig{Leaves: 3, PoolBytes: 1 << 20}, reg)
	clk := simclock.New()
	h, err := topo.AttachHost("h", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AllocateOn(clk, home, "db", 4096); err != nil {
		t.Fatal(err)
	}
	return topo, h, clk
}

func TestHealthStateMachine(t *testing.T) {
	pol := HealthPolicy{RepairNanos: 1000, ProbationNanos: 500, DegradeFactor: 4}
	h := newHealth("x", pol)
	if s := h.observe(0); s != Healthy {
		t.Fatalf("initial state %v", s)
	}
	h.degrade(10)
	if s := h.observe(20); s != Degraded {
		t.Fatalf("after degrade: %v", s)
	}
	// A flap fails the component transiently; it self-repairs into
	// probation RepairNanos later, then becomes healthy ProbationNanos
	// after the repair instant (not after the next observation).
	h.fail(100, false)
	if s := h.observe(1099); s != Failed {
		t.Fatalf("1 ns before repair: %v", s)
	}
	if s := h.observe(1100); s != Probation {
		t.Fatalf("at repair instant: %v", s)
	}
	if s := h.observe(1599); s != Probation {
		t.Fatalf("inside probation: %v", s)
	}
	if s := h.observe(1600); s != Healthy {
		t.Fatalf("after probation: %v", s)
	}
	// A late first observation walks Failed -> Healthy in one step.
	h.fail(2000, false)
	if s := h.observe(10_000); s != Healthy {
		t.Fatalf("late observation: %v", s)
	}
	// Sticky failure never self-repairs; restore exits into probation.
	h.fail(20_000, true)
	if s := h.observe(1 << 40); s != Failed {
		t.Fatalf("sticky failure self-repaired: %v", s)
	}
	h.restore(30_000)
	if s := h.observe(30_000); s != Probation {
		t.Fatalf("after restore: %v", s)
	}
	if s := h.observe(30_500); s != Healthy {
		t.Fatalf("after restore probation: %v", s)
	}
	// Degrading a failed component is meaningless and keeps it failed.
	h.fail(40_000, true)
	h.degrade(40_001)
	if s := h.observe(40_002); s != Failed {
		t.Fatalf("degrade of failed component changed state: %v", s)
	}
}

// recordingInjector logs every point it sees, in order.
type recordingInjector struct {
	mu     sync.Mutex
	points []fault.Op
}

func (r *recordingInjector) Point(op fault.Op, bytes int64) error {
	r.mu.Lock()
	r.points = append(r.points, op)
	r.mu.Unlock()
	return nil
}
func (r *recordingInjector) ReverseFlush() bool { return false }

func (r *recordingInjector) take() []fault.Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.points
	r.points = nil
	return out
}

// TestRouteStageMapping is the fault-op/route-stage table: every fabric
// fault op fires at exactly the documented stage of route resolution and
// nowhere else — OpLeafXbar for the attachment crossbar always, then on
// cross-leaf routes OpTrunkXfer twice (attachment trunk, home trunk) and
// OpLeafXbar for the home crossbar, and OpBoxAccess for the home box last.
// Control-plane calls fire OpHostAttach/OpHostDetach plus the box RPC's
// OpNetSend/OpNetRecv, and never the data-route ops.
func TestRouteStageMapping(t *testing.T) {
	cases := []struct {
		name string
		home int
		op   func(h *HostPort, clk *simclock.Clock) error
		want []fault.Op
	}{
		{"intra-leaf transfer", 0,
			func(h *HostPort, clk *simclock.Clock) error { return h.TransferWrite(clk, 4096) },
			[]fault.Op{fault.OpLeafXbar, fault.OpBoxAccess}},
		{"cross-leaf transfer", 2,
			func(h *HostPort, clk *simclock.Clock) error { return h.TransferRead(clk, 4096) },
			[]fault.Op{fault.OpLeafXbar, fault.OpTrunkXfer, fault.OpTrunkXfer, fault.OpLeafXbar, fault.OpBoxAccess}},
		{"intra-leaf data path", 0,
			func(h *HostPort, clk *simclock.Clock) error { h.DataPath().Use(clk, 64); return nil },
			[]fault.Op{fault.OpLeafXbar, fault.OpBoxAccess}},
		{"cross-leaf fabric path", 2,
			func(h *HostPort, clk *simclock.Clock) error { h.FabricPath().Use(clk, 64); return nil },
			[]fault.Op{fault.OpLeafXbar, fault.OpTrunkXfer, fault.OpTrunkXfer, fault.OpLeafXbar, fault.OpBoxAccess}},
		{"release (control plane)", 0,
			func(h *HostPort, clk *simclock.Clock) error { return h.Release(clk, "db") },
			[]fault.Op{fault.OpHostDetach, fault.OpNetSend, fault.OpNetRecv}},
		{"allocate (control plane)", 2,
			func(h *HostPort, clk *simclock.Clock) error {
				_, err := h.AllocateAt(clk, 1, "aux", 256)
				return err
			},
			[]fault.Op{fault.OpHostAttach, fault.OpNetSend, fault.OpNetRecv}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo, h, clk := threeLeaf(t, tc.home)
			rec := &recordingInjector{}
			topo.SetInjector(rec)
			rec.take() // drop anything from setup (nothing expected)
			if err := tc.op(h, clk); err != nil {
				t.Fatal(err)
			}
			got := rec.take()
			if len(got) != len(tc.want) {
				t.Fatalf("ops %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("op %d = %s, want %s (full: %v)", i, got[i], tc.want[i], tc.want)
				}
			}
		})
	}
}

// TestInjectorPropagation is the satellite audit: one SetInjector call must
// reach the attach/detach port points AND every leaf's box-manager RPC
// fabric — no silently un-instrumented component.
func TestInjectorPropagation(t *testing.T) {
	topo := NewTopology(TopologyConfig{Leaves: 3, PoolBytes: 1 << 20}, nil)
	rec := &recordingInjector{}
	topo.SetInjector(rec)
	clk := simclock.New()
	for i := 0; i < 3; i++ {
		h, err := topo.AttachHost("h"+string(rune('0'+i)), i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.AllocateOn(clk, i, "db"+string(rune('0'+i)), 4096); err != nil {
			t.Fatal(err)
		}
		pts := rec.take()
		var attach, send, recv int
		for _, op := range pts {
			switch op {
			case fault.OpHostAttach:
				attach++
			case fault.OpNetSend:
				send++
			case fault.OpNetRecv:
				recv++
			}
		}
		if attach != 1 || send != 1 || recv != 1 {
			t.Fatalf("leaf %d allocate saw attach=%d send=%d recv=%d (want 1/1/1): %v",
				i, attach, send, recv, pts)
		}
	}
	// Removing the injector detaches every component.
	topo.SetInjector(nil)
	h, _ := topo.AttachHost("h0", 0)
	if err := h.Release(clk, "db0"); err != nil {
		t.Fatal(err)
	}
	if pts := rec.take(); len(pts) != 0 {
		t.Fatalf("points after SetInjector(nil): %v", pts)
	}
}

// TestObserverPropagation: the registry NewTopology takes instruments every
// leaf's device and RPC fabric plus the per-tier histograms and degraded
// counters.
func TestObserverPropagation(t *testing.T) {
	reg := obs.New(obs.Options{})
	topo, h, clk := threeLeafObserved(t, 1, reg)
	topo.DegradeTrunk(clk.Now(), 0)
	if err := h.TransferWrite(clk, 16384); err != nil {
		t.Fatal(err)
	}
	// Touch every leaf's device and manager RPC.
	for i := 0; i < 3; i++ {
		aux, err := h.AllocateAt(clk, i, "aux"+string(rune('0'+i)), 256)
		if err != nil {
			t.Fatal(err)
		}
		if err := aux.WriteAt(clk, 0, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"mem.cxl-pool/leaf0.writes", "mem.cxl-pool/leaf1.writes", "mem.cxl-pool/leaf2.writes",
		"simnet.calls", "cxl.fabric.degraded.trunk",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s is zero after traffic (snapshot: %v)", name, snap.Counters)
		}
	}
}

func TestDegradedTrunkChargesReducedBandwidth(t *testing.T) {
	const n = int64(1 << 20)
	_, h1, c1 := threeLeaf(t, 2)
	healthyStart := c1.Now()
	if err := h1.TransferWrite(c1, n); err != nil {
		t.Fatal(err)
	}
	base := c1.Now() - healthyStart

	topo, h2, c2 := threeLeaf(t, 2)
	topo.DegradeTrunk(c2.Now(), 0) // attachment-side trunk
	degStart := c2.Now()
	if err := h2.TransferWrite(c2, n); err != nil {
		t.Fatal(err)
	}
	degraded := c2.Now() - degStart
	if degraded <= base {
		t.Fatalf("degraded transfer (%d ns) not slower than healthy (%d ns)", degraded, base)
	}
	// The extra occupancy is (DegradeFactor-1) service times of the trunk on
	// top of the healthy route; a second stream behind it queues for longer.
	extra := degraded - base
	svc := topo.Leaf(0).Uplink().Resource().ServiceTime(n)
	want := svc * (DefaultDegradeFactor - 1)
	if extra != want {
		t.Fatalf("degraded extra = %d ns, want %d (=%d service times)", extra, want, DefaultDegradeFactor-1)
	}
	// Restoring the trunk returns routes to full speed (probation charges
	// nothing extra).
	topo.RestoreTrunk(c2.Now(), 0)
	before := c2.Now()
	if err := h2.TransferWrite(c2, n); err != nil {
		t.Fatal(err)
	}
	if got := c2.Now() - before; got != base {
		t.Fatalf("post-restore transfer = %d ns, want healthy %d", got, base)
	}
}

func TestFailedTrunkUnreachable(t *testing.T) {
	topo, h, clk := threeLeaf(t, 2)
	topo.FailTrunk(clk.Now(), 0)
	err := h.TransferWrite(clk, 4096)
	if !errors.Is(err, ErrFabricUnreachable) {
		t.Fatalf("transfer over failed trunk: %v", err)
	}
	var ue *UnreachableError
	if !errors.As(err, &ue) || !strings.Contains(ue.Component, "uplink/leaf0") {
		t.Fatalf("unreachable error should name the trunk: %v", err)
	}
	// Intra-leaf routes bypass the trunk and still work: re-home the host's
	// traffic by allocating on its own leaf.
	if _, err := h.AllocateOn(clk, 0, "local", 4096); err != nil {
		t.Fatal(err)
	}
	if err := h.TransferWrite(clk, 4096); err != nil {
		t.Fatalf("intra-leaf transfer with failed trunk: %v", err)
	}
	topo.RestoreTrunk(clk.Now(), 0)
	if _, err := h.AllocateOn(clk, 2, "db2", 4096); err != nil {
		t.Fatal(err)
	}
	if err := h.TransferWrite(clk, 4096); err != nil {
		t.Fatalf("transfer after restore: %v", err)
	}
}

func TestFlappedTrunkSelfRepairs(t *testing.T) {
	topo, h, clk := threeLeaf(t, 2)
	topo.FlapTrunk(clk.Now(), 0)
	if err := h.TransferWrite(clk, 4096); !errors.Is(err, ErrFabricUnreachable) {
		t.Fatalf("transfer during flap: %v", err)
	}
	if st := topo.TrunkState(clk.Now(), 0); st != Failed {
		t.Fatalf("trunk state during outage: %v", st)
	}
	clk.Advance(DefaultRepairNanos)
	if st := topo.TrunkState(clk.Now(), 0); st != Probation {
		t.Fatalf("trunk state at repair: %v", st)
	}
	if err := h.TransferWrite(clk, 4096); err != nil {
		t.Fatalf("transfer during probation: %v", err)
	}
	clk.Advance(DefaultProbationNanos)
	if st := topo.TrunkState(clk.Now(), 0); st != Healthy {
		t.Fatalf("trunk state after probation: %v", st)
	}
}

func TestVoidPathStallsThroughFlap(t *testing.T) {
	topo, h, clk := threeLeaf(t, 2)
	topo.FlapTrunk(clk.Now(), 0)
	start := clk.Now()
	h.DataPath().Use(clk, 64) // void path: stalls, cannot error
	if got := clk.Now() - start; got < DefaultRepairNanos {
		t.Fatalf("void path through flapped trunk advanced only %d ns, want >= %d (the outage)", got, DefaultRepairNanos)
	}
	if st := topo.TrunkState(clk.Now(), 0); st == Failed {
		t.Fatalf("trunk still failed after stall")
	}
}

func TestInjectedRouteFaults(t *testing.T) {
	// The injected sentinels drive the same machine as the chaos APIs:
	// DegradeAt on the trunk-xfer op degrades the attachment trunk (route
	// order: attachment trunk is trunk point #1).
	topo, h, clk := threeLeaf(t, 2)
	plan := fault.NewPlan(42)
	plan.DegradeAt(fault.OpTrunkXfer, 1)
	topo.SetInjector(plan)
	if err := h.TransferWrite(clk, 4096); err != nil {
		t.Fatalf("degrade-injected transfer should still complete: %v", err)
	}
	if st := topo.TrunkState(clk.Now(), 0); st != Degraded {
		t.Fatalf("attachment trunk after ErrDegrade: %v", st)
	}
	if st := topo.TrunkState(clk.Now(), 2); st != Healthy {
		t.Fatalf("home trunk should be untouched: %v", st)
	}

	// ErrLinkFlap on the home trunk (trunk point #2 of the next transfer,
	// i.e. global index 4 after the first transfer consumed 1-2).
	plan2 := fault.NewPlan(43)
	plan2.FlapAt(fault.OpTrunkXfer, 2)
	topo.SetInjector(plan2)
	err := h.TransferWrite(clk, 4096)
	if !errors.Is(err, ErrFabricUnreachable) {
		t.Fatalf("flap-injected transfer: %v", err)
	}
	if st := topo.TrunkState(clk.Now(), 2); st != Failed {
		t.Fatalf("home trunk after ErrLinkFlap: %v", st)
	}
	clk.Advance(DefaultRepairNanos + DefaultProbationNanos)
	if err := h.TransferWrite(clk, 4096); err != nil {
		t.Fatalf("transfer after flap repair: %v", err)
	}

	// ErrBoxPower at the box-access point kills the whole home box.
	plan3 := fault.NewPlan(44)
	plan3.FailAt(fault.OpBoxAccess, 1, fault.ErrBoxPower)
	topo.SetInjector(plan3)
	err = h.TransferWrite(clk, 4096)
	if !errors.Is(err, ErrFabricUnreachable) {
		t.Fatalf("box-power transfer: %v", err)
	}
	if !topo.BoxFailed(2) {
		t.Fatalf("home box should be failed after ErrBoxPower")
	}
}

// TestLeafXbarFaults drives a leaf crossbar's health machine through the
// leaf-xbar fault op (the only way to fault a crossbar): ErrDegrade slows an
// intra-leaf transfer by exactly (DegradeFactor-1) crossbar service times,
// ErrLinkFlap makes the route unreachable until the crossbar self-repairs,
// and ErrLinkDown keeps it unreachable for good.
func TestLeafXbarFaults(t *testing.T) {
	const n = int64(1 << 20)
	_, h0, c0 := threeLeaf(t, 0)
	start := c0.Now()
	if err := h0.TransferWrite(c0, n); err != nil {
		t.Fatal(err)
	}
	base := c0.Now() - start

	topo, h, clk := threeLeaf(t, 0)
	topo.SetInjector(fault.NewPlan(50).DegradeAt(fault.OpLeafXbar, 1))
	start = clk.Now()
	if err := h.TransferWrite(clk, n); err != nil {
		t.Fatalf("degrade-injected transfer should still complete: %v", err)
	}
	want := topo.Leaf(0).Fabric().ServiceTime(n) * (DefaultDegradeFactor - 1)
	if extra := clk.Now() - start - base; extra != want {
		t.Fatalf("degraded crossbar extra = %d ns, want %d", extra, want)
	}
	if st := topo.Leaf(0).health.observe(clk.Now()); st != Degraded {
		t.Fatalf("crossbar after ErrDegrade: %v", st)
	}

	topo, h, clk = threeLeaf(t, 0)
	topo.SetInjector(fault.NewPlan(51).FlapAt(fault.OpLeafXbar, 1))
	err := h.TransferWrite(clk, 4096)
	var ue *UnreachableError
	if !errors.As(err, &ue) || ue.Component != "cxl-fabric/leaf0" {
		t.Fatalf("transfer through flapped crossbar: %v", err)
	}
	clk.Advance(DefaultRepairNanos)
	if err := h.TransferWrite(clk, 4096); err != nil {
		t.Fatalf("transfer after crossbar repair: %v", err)
	}

	topo, h, clk = threeLeaf(t, 0)
	topo.SetInjector(fault.NewPlan(52).FailAt(fault.OpLeafXbar, 1, fault.ErrLinkDown))
	if err := h.TransferWrite(clk, 4096); !errors.Is(err, ErrFabricUnreachable) {
		t.Fatalf("transfer through downed crossbar: %v", err)
	}
	clk.Advance(100 * (DefaultRepairNanos + DefaultProbationNanos))
	if err := h.TransferWrite(clk, 4096); !errors.Is(err, ErrFabricUnreachable) {
		t.Fatalf("persistently downed crossbar self-repaired: %v", err)
	}
}

func TestBoxPowerLoss(t *testing.T) {
	topo, h, clk := threeLeaf(t, 1)
	dev := topo.Leaf(1).Box().Device()
	reg, err := topo.Leaf(1).Box().Manager().Region("db")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteRaw(0, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	topo.FailBox(1)

	// Data routes to the box are unreachable; the device itself is dead.
	if err := h.TransferWrite(clk, 4096); !errors.Is(err, ErrFabricUnreachable) {
		t.Fatalf("transfer to failed box: %v", err)
	}
	if err := reg.ReadRaw(0, make([]byte, 8)); !errors.Is(err, simmem.ErrPoweredOff) {
		t.Fatalf("read from failed box: %v", err)
	}
	// Control plane fails fast: the manager endpoint is gone, and dead
	// processes are not retried.
	if _, err := h.ReattachAt(clk, 1, "db"); !errors.Is(err, ErrFabricUnreachable) {
		t.Fatalf("reattach to failed box: %v", err)
	}
	// Other leaves are untouched.
	if _, err := h.AllocateOn(clk, 0, "db0", 4096); err != nil {
		t.Fatal(err)
	}
	if err := h.TransferWrite(clk, 4096); err != nil {
		t.Fatalf("transfer to surviving leaf: %v", err)
	}

	// Restore brings replacement hardware: empty device, no leases.
	topo.RestoreBox(1)
	if topo.BoxFailed(1) {
		t.Fatal("box still failed after restore")
	}
	if _, err := topo.Leaf(1).Box().Manager().Lease("db"); err == nil {
		t.Fatal("lease survived the power loss")
	}
	if _, err := h.AllocateAt(clk, 1, "fresh", 4096); err != nil {
		t.Fatalf("allocate on restored box: %v", err)
	}
	buf := make([]byte, 8)
	if err := dev.WholeRegion().ReadRaw(0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) == "precious" {
		t.Fatal("box contents survived power loss — replacement hardware must be zeroed")
	}
}

// TestRouteBoxPowerLossMidRun reads a page through a CPU cache on a host
// whose route injector powers its home box off at the fifth line's
// booking, with no injector on the device. The line after it must fail
// with the box's power loss, as when each line is read by itself (the
// device given an injector that fires nothing), and both runs must leave
// the same clock, cache and link stats, read counts and bytes.
func TestRouteBoxPowerLossMidRun(t *testing.T) {
	type result struct {
		err         error
		now         int64
		cache       simcpu.Stats
		link        simclock.ResourceStats
		reads       int64
		buf         []byte
		boxPowerOff bool
	}
	read := func(lineByLine bool) result {
		reg := obs.New(obs.Options{})
		topo, h, clk := threeLeafObserved(t, 0, reg)
		region, err := topo.Leaf(0).Box().Manager().Region("db")
		if err != nil {
			t.Fatal(err)
		}
		page := make([]byte, region.Size())
		for i := range page {
			page[i] = byte(i*13 + 1)
		}
		if err := region.WriteRaw(0, page); err != nil {
			t.Fatal(err)
		}
		if lineByLine {
			topo.Leaf(0).Box().Device().SetInjector(fault.NewPlan(1))
		}
		topo.SetInjector(fault.NewPlan(2).FailAt(fault.OpBoxAccess, 5, fault.ErrBoxPower))
		cache := h.NewCache("db", 1<<16)
		res := result{buf: make([]byte, len(page))}
		cache.Hold()
		res.err = cache.ReadHeld(clk, region, 0, res.buf)
		cache.Unhold()
		res.now, res.cache, res.link = clk.Now(), cache.Stats(), h.Link().Stats()
		res.reads, res.boxPowerOff = reg.Counter("mem."+region.Device().Name()+".reads").Value(), topo.BoxFailed(0)
		return res
	}
	run, lines := read(false), read(true)
	if !errors.Is(run.err, simmem.ErrPoweredOff) || !errors.Is(lines.err, simmem.ErrPoweredOff) {
		t.Fatalf("reads across the box's power loss returned %v and, line by line, %v; want %v", run.err, lines.err, simmem.ErrPoweredOff)
	}
	if !run.boxPowerOff || run.cache.Misses != 5 {
		t.Fatalf("box failed %v after %d fills, want true after 5", run.boxPowerOff, run.cache.Misses)
	}
	if run.now != lines.now || run.cache != lines.cache || run.link != lines.link || run.reads != lines.reads || !bytes.Equal(run.buf, lines.buf) {
		t.Fatalf("run fill left clock %d, cache %+v, link %+v, %d reads; line by line %d, %+v, %+v, %d",
			run.now, run.cache, run.link, run.reads, lines.now, lines.cache, lines.link, lines.reads)
	}
}

func TestRPCRetryAbsorbsTransientFault(t *testing.T) {
	topo, h, clk := threeLeaf(t, 0)
	plan := fault.NewPlan(7)
	plan.FailAt(fault.OpNetSend, 1, fault.ErrInjected) // first send attempt lost
	topo.SetInjector(plan)
	if _, err := h.AllocateAt(clk, 1, "aux", 256); err != nil {
		t.Fatalf("transient RPC fault not absorbed by retry: %v", err)
	}
	if len(plan.Firings()) != 1 {
		t.Fatalf("fault never fired: %v", plan.Firings())
	}
}

func TestRPCPersistentFaultBoundedDeadline(t *testing.T) {
	topo, h, clk := threeLeaf(t, 0)
	plan := fault.NewPlan(8)
	plan.FailAfterBytes(fault.OpNetSend, 1, fault.ErrInjected) // every send fails
	topo.SetInjector(plan)
	start := clk.Now()
	_, err := h.AllocateAt(clk, 1, "aux", 256)
	var de *simnet.DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("persistent RPC fault: got %v, want DeadlineError", err)
	}
	elapsed := clk.Now() - start
	// Bounded: attempts + backoffs stay within the policy deadline plus one
	// final backoff window.
	limit := DefaultRPCRetry().DeadlineNanos * 2
	if elapsed > limit {
		t.Fatalf("persistent failure took %d ns, want <= %d", elapsed, limit)
	}
}
