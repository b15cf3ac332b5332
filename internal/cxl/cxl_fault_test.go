package cxl

import (
	"testing"

	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/simclock"
)

func TestHostAttachInjection(t *testing.T) {
	topo := NewTopology(TopologyConfig{PoolBytes: 1 << 20}, nil)
	host := attach(t, topo, "h0")
	clk := simclock.New()

	plan := fault.NewPlan(5).CrashAt(fault.OpHostAttach, 2)
	topo.SetInjector(plan)
	region, err := host.Allocate(clk, "db0", 4096) // attach #1
	if err != nil {
		t.Fatalf("allocate under unfired plan: %v", err)
	}
	if region.Size() != 4096 {
		t.Fatalf("region size %d", region.Size())
	}
	if _, err := host.Reattach(clk, "db0"); !fault.IsCrash(err) { // attach #2
		t.Fatalf("reattach at crash point: want crash, got %v", err)
	}
	// The crash latches: the dead port fails everything, including detach.
	if err := host.Release(clk, "db0"); !fault.IsCrash(err) {
		t.Fatalf("release on crashed port: want crash, got %v", err)
	}
	// The lease itself survived on the switch controller — clearing the
	// injector models the replacement host coming up, and recovery works.
	topo.SetInjector(nil)
	r2, err := host.Reattach(clk, "db0")
	if err != nil {
		t.Fatalf("reattach after recovery: %v", err)
	}
	if r2.Base() != region.Base() || r2.Size() != region.Size() {
		t.Fatalf("reattached region moved: [%d,+%d) vs [%d,+%d)",
			r2.Base(), r2.Size(), region.Base(), region.Size())
	}
}

func TestHostDetachInjection(t *testing.T) {
	topo := NewTopology(TopologyConfig{PoolBytes: 1 << 20}, nil)
	host := attach(t, topo, "h0")
	clk := simclock.New()
	if _, err := host.Allocate(clk, "db0", 4096); err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(6).CrashAt(fault.OpHostDetach, 1)
	topo.SetInjector(plan)
	if err := host.Release(clk, "db0"); !fault.IsCrash(err) {
		t.Fatalf("release at crash point: want crash, got %v", err)
	}
	topo.SetInjector(nil)
	// The failed detach must not have freed the lease: it is still
	// reattachable, and a clean release then succeeds.
	if _, err := host.Reattach(clk, "db0"); err != nil {
		t.Fatalf("lease lost by failed detach: %v", err)
	}
	if err := host.Release(clk, "db0"); err != nil {
		t.Fatalf("release after injector removed: %v", err)
	}
	if _, err := host.Reattach(clk, "db0"); err == nil {
		t.Fatal("reattach after clean release must fail")
	}
}
