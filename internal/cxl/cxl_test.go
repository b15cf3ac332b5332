package cxl

import (
	"testing"
	"testing/quick"

	"polarcxlmem/internal/simclock"
)

func TestCalibrationTable1(t *testing.T) {
	// Profiles must echo Table 1's latency points.
	cases := []struct {
		name string
		got  int64
		want int64
	}{
		{"dram-local", DRAMProfile().ReadLatency, 146},
		{"dram-remote", DRAMRemoteProfile().ReadLatency, 231},
		{"cxl-direct", NoSwitchProfile().ReadLatency, 265},
		{"cxl-direct-remote", NoSwitchRemoteProfile().ReadLatency, 346},
		{"cxl-switch", SwitchProfile().ReadLatency, 549},
		{"cxl-switch-remote", SwitchRemoteProfile().ReadLatency, 651},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s latency = %d, want %d", c.name, c.got, c.want)
		}
	}
}

func TestCalibrationTable2Echo(t *testing.T) {
	// The transfer tables must reproduce Table 2's CXL columns exactly at the
	// calibration points.
	reads := map[int64]int64{64: 750, 512: 850, 1024: 1070, 4096: 1860, 16384: 2460}
	for sz, want := range reads {
		if got := ReadTransfer.Cost(sz); got != want {
			t.Errorf("ReadTransfer(%d) = %d, want %d", sz, got, want)
		}
	}
	writes := map[int64]int64{64: 780, 512: 840, 1024: 880, 4096: 1020, 16384: 1680}
	for sz, want := range writes {
		if got := WriteTransfer.Cost(sz); got != want {
			t.Errorf("WriteTransfer(%d) = %d, want %d", sz, got, want)
		}
	}
	// Interpolation must be monotonic between points.
	prev := int64(0)
	for sz := int64(64); sz <= 32768; sz += 64 {
		c := ReadTransfer.Cost(sz)
		if c < prev {
			t.Fatalf("ReadTransfer not monotonic at %d: %d < %d", sz, c, prev)
		}
		prev = c
	}
}

// attach connects name to leaf 0 of topo, failing the test on error.
func attach(t *testing.T, topo *Topology, name string) *HostPort {
	t.Helper()
	h, err := topo.AttachHost(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestAllocateIsolatesClients(t *testing.T) {
	topo := NewTopology(TopologyConfig{PoolBytes: 1 << 20})
	h := attach(t, topo, "host0")
	clk := simclock.New()
	a, err := h.Allocate(clk, "node-a", 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Allocate(clk, "node-b", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Base() == b.Base() {
		t.Fatal("two clients share a base offset")
	}
	lo, hi := a, b
	if lo.Base() > hi.Base() {
		lo, hi = hi, lo
	}
	if lo.Base()+lo.Size() > hi.Base() {
		t.Fatalf("allocations overlap: [%d,%d) and [%d,%d)", lo.Base(), lo.Base()+lo.Size(), hi.Base(), hi.Base()+hi.Size())
	}
	if clk.Now() < 2*ManagerRPCNanos {
		t.Fatalf("allocation RPCs charged only %d ns", clk.Now())
	}
}

func TestAllocationNonOverlapProperty(t *testing.T) {
	// Property: any sequence of alloc/free keeps all live leases disjoint.
	f := func(sizes []uint16, frees []uint8) bool {
		topo := NewTopology(TopologyConfig{PoolBytes: 1 << 22})
		m := topo.Leaf(0).Box().Manager()
		names := []string{}
		for i, sz := range sizes {
			n := len(names)
			if len(frees) > 0 && int(frees[i%len(frees)])%3 == 0 && n > 0 {
				m.Release(names[n-1])
				names = names[:n-1]
				continue
			}
			client := string(rune('a'+i%26)) + string(rune('0'+i/26))
			if _, err := m.Allocate(client, int64(sz)+1); err == nil {
				names = append(names, client)
			}
		}
		// Verify disjointness.
		type iv struct{ off, end int64 }
		var ivs []iv
		for _, c := range m.Clients() {
			l, err := m.Lease(c)
			if err != nil {
				return false
			}
			ivs = append(ivs, iv{l.off, l.off + l.size})
		}
		for i := range ivs {
			for j := i + 1; j < len(ivs); j++ {
				a, b := ivs[i], ivs[j]
				if a.off < b.end && b.off < a.end {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReattachAfterCrash(t *testing.T) {
	topo := NewTopology(TopologyConfig{PoolBytes: 1 << 20})
	clk := simclock.New()
	h := attach(t, topo, "host0")
	r, err := h.Allocate(clk, "db1", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteRaw(0, []byte("survives")); err != nil {
		t.Fatal(err)
	}
	// Crash: the host object and region view are dropped; the process
	// restarts, reattaches the same host port and lease.
	h2 := attach(t, topo, "host0")
	r2, err := h2.Reattach(clk, "db1")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Base() != r.Base() || r2.Size() != r.Size() {
		t.Fatalf("reattach returned [%d,%d), want [%d,%d)", r2.Base(), r2.Size(), r.Base(), r.Size())
	}
	buf := make([]byte, 8)
	if err := r2.ReadRaw(0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "survives" {
		t.Fatalf("post-crash contents %q", buf)
	}
}

func TestAllocateErrors(t *testing.T) {
	topo := NewTopology(TopologyConfig{PoolBytes: 4096})
	m := topo.Leaf(0).Box().Manager()
	if _, err := m.Allocate("x", 0); err == nil {
		t.Fatal("zero-size allocation accepted")
	}
	if _, err := m.Allocate("x", 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate("x", 10); err == nil {
		t.Fatal("double allocation for one client accepted")
	}
	if _, err := m.Allocate("y", 10); err == nil {
		t.Fatal("over-capacity allocation accepted")
	}
	if err := m.Release("nobody"); err == nil {
		t.Fatal("release of unknown client accepted")
	}
	if _, err := m.Lease("nobody"); err == nil {
		t.Fatal("lease of unknown client returned")
	}
}

func TestFirstFitReusesFreedGap(t *testing.T) {
	topo := NewTopology(TopologyConfig{PoolBytes: 3000})
	m := topo.Leaf(0).Box().Manager()
	if _, err := m.Allocate("a", 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate("b", 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate("c", 1000); err != nil {
		t.Fatal(err)
	}
	if err := m.Release("b"); err != nil {
		t.Fatal(err)
	}
	off, err := m.Allocate("d", 800)
	if err != nil {
		t.Fatal(err)
	}
	if off != 1000 {
		t.Fatalf("first-fit placed d at %d, want the freed gap at 1000", off)
	}
	if m.Allocated() != 2800 {
		t.Fatalf("allocated = %d", m.Allocated())
	}
}

func TestTransferChargesLinkAndFabric(t *testing.T) {
	topo := NewTopology(TopologyConfig{PoolBytes: 1 << 20})
	h := attach(t, topo, "h")
	clk := simclock.New()
	h.TransferRead(clk, 16384)
	if clk.Now() < ReadTransfer.Cost(16384) {
		t.Fatalf("bulk read charged %d ns", clk.Now())
	}
	if h.Link().Stats().Units != 16384 {
		t.Fatalf("link saw %d bytes", h.Link().Stats().Units)
	}
	if topo.Leaf(0).Fabric().Stats().Units != 16384 {
		t.Fatalf("fabric saw %d bytes", topo.Leaf(0).Fabric().Stats().Units)
	}
	topo.ResetStats()
	if topo.Leaf(0).Fabric().Stats().Units != 0 || h.Link().Stats().Units != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestAttachHostIdempotent(t *testing.T) {
	topo := NewTopology(TopologyConfig{PoolBytes: 1 << 16})
	a := attach(t, topo, "h1")
	b := attach(t, topo, "h1")
	if a != b {
		t.Fatal("re-attach created a new port")
	}
	if a.Name() != "h1" || a.String() == "" {
		t.Fatal("accessors broken")
	}
}

func TestHostCacheWiredToLink(t *testing.T) {
	topo := NewTopology(TopologyConfig{PoolBytes: 1 << 20})
	h := attach(t, topo, "h")
	clk := simclock.New()
	reg, err := h.Allocate(clk, "db", 4096)
	if err != nil {
		t.Fatal(err)
	}
	cache := h.NewCache("db", 1<<16)
	buf := make([]byte, 64)
	if err := cache.Read(clk, reg, 0, buf); err != nil {
		t.Fatal(err)
	}
	if h.Link().Stats().Units != 64 {
		t.Fatalf("cache fill moved %d bytes over the link, want 64", h.Link().Stats().Units)
	}
}
