package polarcxlmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"polarcxlmem/internal/cxl"
)

// runSmallWorkload drives a fixed insert/commit/read workload and returns
// the instance's final virtual time.
func runSmallWorkload(t *testing.T, inst *Instance) int64 {
	t.Helper()
	tbl, err := inst.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := inst.Begin()
	for k := int64(0); k < 200; k++ {
		if err := tx.Insert(tbl, k, []byte(fmt.Sprintf("v%04d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := inst.Begin()
	for k := int64(0); k < 200; k++ {
		if _, err := tx2.Get(tbl, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	return inst.Clock().Now()
}

// TestPlacementEmptiestFirst pins the auto-placement policy: with no
// Placement, the pool lands on the leaf box with the most free capacity, and
// a full fabric reports ErrNoCapacity.
func TestPlacementEmptiestFirst(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{PoolPages: 64, Pools: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Fill leaf 0 most, leaf 1 a little; leaf 2 stays empty.
	if _, err := cluster.Start(InstanceConfig{Name: "big", PoolPages: 40,
		Placement: &Placement{PoolLeaf: 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Start(InstanceConfig{Name: "mid", PoolPages: 16,
		Placement: &Placement{PoolLeaf: 1, HostLeaf: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Start(InstanceConfig{Name: "auto", PoolPages: 8}); err != nil {
		t.Fatal(err)
	}
	if p, _ := cluster.PlacementOf("auto"); p != 2 {
		t.Fatalf("auto placement landed on leaf %d, want the empty leaf 2", p)
	}
	// Nothing can hold another 60-page pool.
	if _, err := cluster.Start(InstanceConfig{Name: "toobig", PoolPages: 60}); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("over-capacity Start err = %v, want ErrNoCapacity", err)
	}
	// Placement beyond the fabric is rejected up front.
	if _, err := cluster.Start(InstanceConfig{Name: "off", PoolPages: 8,
		Placement: &Placement{PoolLeaf: 7}}); err == nil {
		t.Fatal("placement beyond the topology accepted")
	}
}

// TestCrossSwitchInstance runs one instance with its host and pool on
// different leaves: the workload must succeed, run measurably slower than an
// intra-switch twin, put bytes on the trunks, and keep its placement across
// crash/recovery.
func TestCrossSwitchInstance(t *testing.T) {
	intra, err := NewCluster(ClusterConfig{PoolPages: 128, Pools: 2})
	if err != nil {
		t.Fatal(err)
	}
	instIntra, err := intra.Start(InstanceConfig{Name: "db", PoolPages: 64,
		Placement: &Placement{HostLeaf: 0, PoolLeaf: 0}})
	if err != nil {
		t.Fatal(err)
	}
	intraNanos := runSmallWorkload(t, instIntra)

	cross, err := NewCluster(ClusterConfig{PoolPages: 128, Pools: 2})
	if err != nil {
		t.Fatal(err)
	}
	instCross, err := cross.Start(InstanceConfig{Name: "db", PoolPages: 64,
		Placement: &Placement{HostLeaf: 0, PoolLeaf: 1}})
	if err != nil {
		t.Fatal(err)
	}
	crossNanos := runSmallWorkload(t, instCross)

	if crossNanos <= intraNanos {
		t.Fatalf("cross-switch workload took %d ns, intra-switch %d ns; cross must be slower", crossNanos, intraNanos)
	}
	up := cross.Topology().Leaf(0).Uplink().Resource().Stats().Units
	if up == 0 {
		t.Fatal("cross-switch instance moved no bytes over the trunk")
	}
	if got := intra.Topology().Leaf(0).Uplink().Resource().Stats().Units; got != 0 {
		t.Fatalf("intra-switch instance leaked %d bytes onto the trunk", got)
	}

	// Crash and recover: placement (host leaf and pool leaf) is preserved,
	// the data is intact, and recovery itself rides the trunk.
	instCross.Crash()
	inst2, rec, err := cross.Recover("db")
	if err != nil {
		t.Fatal(err)
	}
	if rec.PagesTrusted == 0 {
		t.Fatalf("recovery report: %+v", rec)
	}
	if p, _ := cross.PlacementOf("db"); p != 1 {
		t.Fatalf("recovery moved the pool to leaf %d", p)
	}
	tbl, err := inst2.OpenTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := inst2.Begin()
	v, err := tx.Get(tbl, 7)
	if err != nil || string(v) != "v0007" {
		t.Fatalf("post-recovery read: %q, %v", v, err)
	}
	tx.Commit()
	if got := cross.Topology().Leaf(0).Uplink().Resource().Stats().Units; got <= up {
		t.Fatalf("recovery put no further bytes on the trunk (%d -> %d)", up, got)
	}
}

// TestClusterFabricConfig covers the explicit Fabric override: bandwidths and
// leaf count come from the TopologyConfig, PoolBytes is sized from PoolPages
// when zero.
func TestClusterFabricConfig(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{PoolPages: 64,
		Fabric: &cxl.TopologyConfig{Leaves: 3, HostsPerLeaf: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if cluster.Topology().Leaves() != 3 {
		t.Fatalf("fabric built %d leaves", cluster.Topology().Leaves())
	}
	if _, err := cluster.Start(InstanceConfig{Name: "db", PoolPages: 32}); err != nil {
		t.Fatal(err)
	}
}

// TestSharingClusterAcrossLeaves places primaries on two leaves: the
// coherency protocol must stay correct, crash/rejoin must work, and the
// invalidation/page traffic of the remote-leaf nodes must be visible on the
// trunks.
func TestSharingClusterAcrossLeaves(t *testing.T) {
	sc, err := NewSharingCluster(SharingConfig{
		Nodes:      3,
		DBPPages:   16,
		Fabric:     &cxl.TopologyConfig{Leaves: 2},
		NodeLeaves: []int{0, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	pid, err := sc.SeedPage()
	if err != nil {
		t.Fatal(err)
	}
	clk := sc.Clock()
	bump := func(i int) {
		t.Helper()
		err := sc.Node(i).ReadModifyWrite(clk, pid, 64, make([]byte, 8), func(b []byte) {
			binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+1)
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	const rounds = 10
	for r := 0; r < rounds; r++ {
		for i := 0; i < 3; i++ {
			bump(i)
		}
	}
	buf := make([]byte, 8)
	if err := sc.Node(0).Read(clk, pid, 64, buf); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(buf); got != rounds*3 {
		t.Fatalf("counter = %d, want %d", got, rounds*3)
	}
	// Remote-leaf nodes (1, 2) home their traffic on leaf 0's box, so their
	// fills, publication write-backs, and flag accesses ride leaf 1's trunk.
	trunk := sc.Topology().Leaf(1).Uplink().Resource().Stats()
	if trunk.Units == 0 {
		t.Fatal("cross-leaf sharing moved no bytes over the trunk")
	}

	// Crash a remote-leaf primary while it holds the page's write lock; the
	// survivors' first conflicting access reclaims it.
	if err := sc.Fusion().FlushDirty(clk, nil); err != nil {
		t.Fatal(err)
	}
	if err := sc.Fusion().Lock(clk, sc.Node(2).Name(), pid, true); err != nil {
		t.Fatal(err)
	}
	if err := sc.CrashPrimary(2); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		bump(0)
		bump(1)
	}
	if rep := sc.Fusion().Fsck(); !rep.OK() {
		t.Fatalf("fsck after crash: %v", rep.Problems)
	}
	if err := sc.RejoinPrimary(2); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < 3; i++ {
			bump(i)
		}
	}
	if err := sc.Node(0).Read(clk, pid, 64, buf); err != nil {
		t.Fatal(err)
	}
	want := uint64(rounds * 8)
	if got := binary.LittleEndian.Uint64(buf); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	if rep := sc.Fusion().Fsck(); !rep.OK() {
		t.Fatalf("fsck after rejoin: %v", rep.Problems)
	}
	// Node-leaf placement beyond the fabric is rejected.
	if _, err := NewSharingCluster(SharingConfig{Nodes: 1, DBPPages: 8,
		NodeLeaves: []int{3}}); err == nil {
		t.Fatal("node leaf beyond the topology accepted")
	}
}
