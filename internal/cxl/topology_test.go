package cxl

import (
	"strings"
	"testing"

	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
)

// TestTopologyPathCharging is the route-accounting property: for every
// (attachment leaf, home leaf) pair in a 3-leaf fabric, one 16 KB transfer
// charges exactly 16384 bytes on every component of its route — host link,
// home crossbar, and (cross-leaf only) the attachment crossbar, both trunks,
// and the spine — and zero bytes on every component off the route.
func TestTopologyPathCharging(t *testing.T) {
	const n = int64(16384)
	const leaves = 3
	for attach := 0; attach < leaves; attach++ {
		for home := 0; home < leaves; home++ {
			topo := NewTopology(TopologyConfig{Leaves: leaves, PoolBytes: 1 << 20}, nil)
			clk := simclock.New()
			h, err := topo.AttachHost("h", attach)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.AllocateOn(clk, home, "db", 4096); err != nil {
				t.Fatal(err)
			}
			topo.ResetStats() // drop any accounting from setup
			h.TransferWrite(clk, n)

			cross := attach != home
			if got := h.Link().Stats().Units; got != n {
				t.Errorf("attach=%d home=%d: host link saw %d bytes, want %d", attach, home, got, n)
			}
			for i := 0; i < leaves; i++ {
				var wantFabric, wantUplink int64
				if i == home {
					wantFabric += n
					if cross {
						wantUplink = n
					}
				}
				if cross && i == attach {
					wantFabric += n
					wantUplink = n
				}
				if got := topo.Leaf(i).Fabric().Stats().Units; got != wantFabric {
					t.Errorf("attach=%d home=%d: leaf %d crossbar saw %d bytes, want %d", attach, home, i, got, wantFabric)
				}
				if got := topo.Leaf(i).Uplink().Resource().Stats().Units; got != wantUplink {
					t.Errorf("attach=%d home=%d: leaf %d trunk saw %d bytes, want %d", attach, home, i, got, wantUplink)
				}
			}
			var wantSpine int64
			if cross {
				wantSpine = n
			}
			if got := topo.Spine().Stats().Units; got != wantSpine {
				t.Errorf("attach=%d home=%d: spine saw %d bytes, want %d", attach, home, got, wantSpine)
			}
		}
	}
}

// TestSingleLeafMatchesSwitch pins the compatibility contract: a one-leaf
// topology is the pre-topology switch — no spine tier, no trunks, legacy
// resource names, and uncontended transfers costing exactly the Table 2
// calibration values.
func TestSingleLeafMatchesSwitch(t *testing.T) {
	topo := NewTopology(TopologyConfig{PoolBytes: 1 << 20}, nil)
	if topo.Leaves() != 1 {
		t.Fatalf("zero config built %d leaves", topo.Leaves())
	}
	if topo.Spine() != nil {
		t.Fatal("single-leaf topology built a spine")
	}
	if topo.Leaf(0).Uplink() != nil {
		t.Fatal("single-leaf topology built a trunk")
	}
	if name := topo.Leaf(0).Fabric().Name(); name != "cxl-fabric" {
		t.Fatalf("single-leaf crossbar named %q, want legacy cxl-fabric", name)
	}
	h, err := topo.AttachHost("h", 0)
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	if _, err := h.Allocate(clk, "db", 4096); err != nil {
		t.Fatal(err)
	}
	start := clk.Now()
	h.TransferRead(clk, 16384)
	if got := clk.Now() - start; got != ReadTransfer.Cost(16384) {
		t.Fatalf("uncontended 16K read cost %d ns, want %d", got, ReadTransfer.Cost(16384))
	}
	start = clk.Now()
	h.TransferWrite(clk, 16384)
	if got := clk.Now() - start; got != WriteTransfer.Cost(16384) {
		t.Fatalf("uncontended 16K write cost %d ns, want %d", got, WriteTransfer.Cost(16384))
	}
}

// TestMultiLeafNames pins the multi-leaf naming scheme so metrics stay
// attributable per component.
func TestMultiLeafNames(t *testing.T) {
	topo := NewTopology(TopologyConfig{Leaves: 2, PoolBytes: 1 << 20}, nil)
	if name := topo.Leaf(1).Fabric().Name(); name != "cxl-fabric/leaf1" {
		t.Fatalf("leaf crossbar named %q", name)
	}
	if name := topo.Leaf(1).Uplink().Resource().Name(); name != "cxl-uplink/leaf1" {
		t.Fatalf("trunk named %q", name)
	}
	if name := topo.Spine().Name(); name != "cxl-fabric/spine" {
		t.Fatalf("spine named %q", name)
	}
	if name := topo.Leaf(0).Box().Device().Name(); !strings.HasPrefix(name, "cxl-pool") {
		t.Fatalf("device named %q", name)
	}
}

// TestCrossLeafTransferSlower pins the exact cross-switch premium: an
// uncontended cross-leaf transfer costs the single-switch value plus two
// trunk traversals (latency + service), the attachment crossbar, and the
// spine.
func TestCrossLeafTransferSlower(t *testing.T) {
	const n = int64(16384)
	topo := NewTopology(TopologyConfig{Leaves: 2, PoolBytes: 1 << 20}, nil)
	clk := simclock.New()
	h, err := topo.AttachHost("h", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AllocateOn(clk, 1, "db", 4096); err != nil {
		t.Fatal(err)
	}
	start := clk.Now()
	h.TransferRead(clk, n)
	got := clk.Now() - start

	l0, l1 := topo.Leaf(0), topo.Leaf(1)
	extra := l0.Fabric().ServiceTime(n) + // attachment crossbar
		2*InterSwitchNanos + // per-switch forwarding latency, both trunks
		l0.Uplink().Resource().ServiceTime(n) +
		l1.Uplink().Resource().ServiceTime(n) +
		topo.Spine().ServiceTime(n)
	want := ReadTransfer.Cost(n) + extra
	if got != want {
		t.Fatalf("cross-leaf 16K read cost %d ns, want %d (single-switch %d + %d route premium)",
			got, want, ReadTransfer.Cost(n), extra)
	}
	if got <= ReadTransfer.Cost(n) {
		t.Fatal("cross-leaf transfer not slower than intra-leaf")
	}
}

// TestResetStatsClearsManagerRPC covers the accounting leak ResetStats used
// to have: fabric counters were cleared but the manager RPC fabrics kept
// their call counts across experiment phases.
func TestResetStatsClearsManagerRPC(t *testing.T) {
	topo := NewTopology(TopologyConfig{Leaves: 2, PoolBytes: 1 << 20}, nil)
	clk := simclock.New()
	h, err := topo.AttachHost("h", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AllocateOn(clk, 1, "db", 4096); err != nil {
		t.Fatal(err)
	}
	if topo.Leaf(1).box.rpc.Calls() == 0 {
		t.Fatal("allocation RPC not accounted on the home box fabric")
	}
	topo.ResetStats()
	for i := 0; i < topo.Leaves(); i++ {
		if got := topo.Leaf(i).box.rpc.Calls(); got != 0 {
			t.Fatalf("leaf %d manager RPC calls = %d after ResetStats", i, got)
		}
	}
	// The lease itself must survive a stats reset.
	if _, err := h.Reattach(clk, "db"); err != nil {
		t.Fatalf("lease lost across ResetStats: %v", err)
	}
}

// TestAttachHostBounds covers leaf range checks and the per-leaf port cap.
func TestAttachHostBounds(t *testing.T) {
	topo := NewTopology(TopologyConfig{Leaves: 2, HostsPerLeaf: 2, PoolBytes: 1 << 20}, nil)
	if _, err := topo.AttachHost("h", 2); err == nil {
		t.Fatal("attach to missing leaf accepted")
	}
	if _, err := topo.AttachHost("h", -1); err == nil {
		t.Fatal("attach to negative leaf accepted")
	}
	for _, name := range []string{"a", "b"} {
		if _, err := topo.AttachHost(name, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := topo.AttachHost("c", 0); err == nil {
		t.Fatal("port cap not enforced")
	}
	// Reattaching an existing name succeeds even on a full leaf (crash
	// restart), and returns the same port regardless of the requested leaf.
	a, err := topo.AttachHost("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := topo.AttachHost("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != a2 {
		t.Fatal("re-attach created a new port")
	}
	// The other leaf still has free ports.
	if _, err := topo.AttachHost("c", 1); err != nil {
		t.Fatal(err)
	}
	// AllocateOn to a missing leaf fails cleanly.
	clk := simclock.New()
	if _, err := a.AllocateOn(clk, 5, "db", 64); err == nil {
		t.Fatal("AllocateOn to missing leaf accepted")
	}
	if _, err := a.ReattachOn(clk, 5, "db"); err == nil {
		t.Fatal("ReattachOn to missing leaf accepted")
	}
}

// TestObserverTierHistograms checks that queueing waits land in the per-tier
// histograms: host links, leaf crossbars, trunks, and the spine each record
// into their own metric, so congestion is attributable.
func TestObserverTierHistograms(t *testing.T) {
	reg := obs.New(obs.Options{})
	topo := NewTopology(TopologyConfig{Leaves: 2, PoolBytes: 1 << 20}, reg)
	clk := simclock.New()
	h, err := topo.AttachHost("h", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AllocateOn(clk, 1, "db", 4096); err != nil {
		t.Fatal(err)
	}
	h.TransferWrite(clk, 16384)
	for _, m := range []string{
		"cxl.link.host.wait_ns",
		"cxl.fabric.leaf.wait_ns",
		"cxl.fabric.spine.wait_ns",
		"cxl.link.interswitch.wait_ns",
	} {
		if reg.Histogram(m).Count() == 0 {
			t.Errorf("%s recorded no samples after a cross-leaf transfer", m)
		}
	}
}

// TestHomeLeafFollowsAllocation pins the home-box model: AllocateOn moves the
// host's home, Allocate targets the current home, and cache traffic routes to
// it.
func TestHomeLeafFollowsAllocation(t *testing.T) {
	topo := NewTopology(TopologyConfig{Leaves: 2, PoolBytes: 1 << 20}, nil)
	clk := simclock.New()
	h, err := topo.AttachHost("h", 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.HomeLeaf().Index() != 0 {
		t.Fatalf("fresh host homed on leaf %d", h.HomeLeaf().Index())
	}
	if _, err := h.AllocateOn(clk, 1, "db", 4096); err != nil {
		t.Fatal(err)
	}
	if h.HomeLeaf().Index() != 1 {
		t.Fatalf("after AllocateOn(1) home is leaf %d", h.HomeLeaf().Index())
	}
	// A plain Allocate for a second client lands on the current home box.
	r, err := h.Allocate(clk, "db2", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Leaf(1).Box().Manager().Lease("db2"); err != nil {
		t.Fatalf("follow-up allocation not on home box: %v", err)
	}
	_ = r
	// Cache fills pay the cross route: trunk bytes appear.
	cache := h.NewCache("db", 1<<16)
	reg, err := h.Reattach(clk, "db")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	cache.Hold()
	err = cache.ReadHeld(clk, reg, 0, buf)
	cache.Unhold()
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.Leaf(0).Uplink().Resource().Stats().Units; got == 0 {
		t.Fatal("cross-leaf cache fill moved no bytes over the trunk")
	}
}
