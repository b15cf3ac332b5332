package polarcxlmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"polarcxlmem/internal/sharing"
)

func TestFacadeLifecycle(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cluster.Start(InstanceConfig{Name: "db0", PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Name() != "db0" {
		t.Fatal("name")
	}
	tbl, err := inst.CreateTable("accounts")
	if err != nil {
		t.Fatal(err)
	}
	tx := inst.Begin()
	for k := int64(1); k <= 50; k++ {
		if err := tx.Insert(tbl, k, []byte(fmt.Sprintf("acct-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := inst.Begin()
	v, err := tx2.Get(tbl, 7)
	if err != nil || string(v) != "acct-7" {
		t.Fatalf("get = %q, %v", v, err)
	}
	kvs, err := tx2.Scan(tbl, 10, 5)
	if err != nil || len(kvs) != 5 || kvs[0].Key != 10 {
		t.Fatalf("scan = %v, %v", kvs, err)
	}
	if err := tx2.Update(tbl, 7, []byte("updated")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Delete(tbl, 8); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	tx3 := inst.Begin()
	v, _ = tx3.Get(tbl, 7)
	if string(v) != "acct-7" {
		t.Fatalf("rollback lost: %q", v)
	}
	if _, err := tx3.Get(tbl, 8); err != nil {
		t.Fatal("rolled-back delete missing")
	}
	tx3.Commit()
	if err := inst.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCrashRecover(t *testing.T) {
	cluster, _ := NewCluster(ClusterConfig{PoolPages: 128})
	inst, _ := cluster.Start(InstanceConfig{Name: "db0", PoolPages: 64})
	tbl, _ := inst.CreateTable("t")
	tx := inst.Begin()
	for k := int64(0); k < 100; k++ {
		tx.Insert(tbl, k, []byte(fmt.Sprintf("v%03d", k)))
	}
	tx.Commit()
	inst.Checkpoint()

	// Uncommitted tail, then crash.
	tx2 := inst.Begin()
	tx2.Update(tbl, 5, []byte("BOOM"))
	inst.Crash()

	// The crashed handle refuses work.
	if _, err := inst.CreateTable("x"); err == nil {
		t.Fatal("crashed instance accepted work")
	}
	if _, _, err := cluster.Recover("nope"); err == nil {
		t.Fatal("recovered unknown instance")
	}
	inst2, rec, err := cluster.Recover("db0")
	if err != nil {
		t.Fatal(err)
	}
	if rec.PagesTrusted == 0 {
		t.Fatalf("recovery report: %+v", rec)
	}
	tbl2, err := inst2.OpenTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx3 := inst2.Begin()
	v, err := tx3.Get(tbl2, 5)
	if err != nil || !bytes.Equal(v, []byte("v005")) {
		t.Fatalf("after recovery Get(5) = %q, %v (uncommitted update must be gone)", v, err)
	}
	if _, err := tx3.Get(tbl2, 12345); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("missing key err = %v", err)
	}
	tx3.Commit()
	// Double recover requires another crash.
	if _, _, err := cluster.Recover("db0"); err == nil {
		t.Fatal("recovered a live instance")
	}
}

func TestFacadeDuplicateInstance(t *testing.T) {
	cluster, _ := NewCluster(ClusterConfig{PoolPages: 128})
	if _, err := cluster.Start(InstanceConfig{Name: "a", PoolPages: 32}); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Start(InstanceConfig{Name: "a", PoolPages: 32}); err == nil {
		t.Fatal("duplicate instance accepted")
	}
}

// TestFacadeTypedErrors pins the error contract of the redesigned API:
// every facade failure path wraps one of the exported sentinels, so callers
// dispatch with errors.Is rather than string matching.
func TestFacadeTypedErrors(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}

	// ErrNoCapacity: an instance bigger than the whole pool.
	if _, err := cluster.Start(InstanceConfig{Name: "huge", PoolPages: 1 << 20}); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("oversized Start err = %v, want ErrNoCapacity", err)
	}

	inst, err := cluster.Start(InstanceConfig{Name: "db0", PoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}

	// ErrInstanceExists: same name twice (via both constructors).
	if _, err := cluster.Start(InstanceConfig{Name: "db0", PoolPages: 8}); !errors.Is(err, ErrInstanceExists) {
		t.Fatalf("duplicate Start err = %v, want ErrInstanceExists", err)
	}
	if _, err := cluster.Start(InstanceConfig{Name: "db0", PoolPages: 8}); !errors.Is(err, ErrInstanceExists) {
		t.Fatalf("duplicate Start err = %v, want ErrInstanceExists", err)
	}

	// ErrUnknownInstance: recovering a name never started.
	if _, _, err := cluster.Recover("nope"); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("Recover(unknown) err = %v, want ErrUnknownInstance", err)
	}

	// ErrNotCrashed: recovering a live instance.
	if _, _, err := cluster.Recover("db0"); !errors.Is(err, ErrNotCrashed) {
		t.Fatalf("Recover(live) err = %v, want ErrNotCrashed", err)
	}

	// ErrCrashed: every entry point on a dead handle.
	inst.Crash()
	if _, err := inst.CreateTable("t"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("CreateTable on crashed err = %v, want ErrCrashed", err)
	}
	if _, err := inst.OpenTable("t"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("OpenTable on crashed err = %v, want ErrCrashed", err)
	}
	if err := inst.Checkpoint(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Checkpoint on crashed err = %v, want ErrCrashed", err)
	}

	// Recovery clears the condition.
	if _, _, err := cluster.Recover("db0"); err != nil {
		t.Fatal(err)
	}
}

func TestSharingClusterCoherency(t *testing.T) {
	sc, err := NewSharingCluster(SharingConfig{Nodes: 3, DBPPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	pid, err := sc.SeedPage()
	if err != nil {
		t.Fatal(err)
	}
	clk := sc.Clock()
	// Round-robin counter increments across all nodes.
	const rounds = 20
	for r := 0; r < rounds; r++ {
		for i := 0; i < sc.Nodes(); i++ {
			err := sc.Node(i).ReadModifyWrite(clk, pid, 64, 8, func(b []byte) {
				binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+1)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	buf := make([]byte, 8)
	if err := sc.Node(0).Read(clk, pid, 64, buf); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(buf); got != rounds*3 {
		t.Fatalf("counter = %d, want %d", got, rounds*3)
	}
	if sc.Fusion().ResidentPages() != 1 {
		t.Fatal("fusion bookkeeping")
	}
}

func TestSharingClusterValidation(t *testing.T) {
	if _, err := NewSharingCluster(SharingConfig{Nodes: 0}); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestMultiPoolPlacement(t *testing.T) {
	// A two-domain rack (the paper's Figure 5 deployment): instances spread
	// across pools by free capacity, and each recovers on its own domain.
	cluster, err := NewCluster(ClusterConfig{PoolPages: 64, Pools: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cluster.Topology().Leaves() != 2 {
		t.Fatal("rack has wrong domain count")
	}
	// Each instance needs ~48 blocks; one pool holds one such instance.
	a, err := cluster.Start(InstanceConfig{Name: "a", PoolPages: 48})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cluster.Start(InstanceConfig{Name: "b", PoolPages: 48})
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := cluster.PlacementOf("a")
	pb, _ := cluster.PlacementOf("b")
	if pa == pb {
		t.Fatalf("both instances placed on domain %d", pa)
	}
	// A third instance of the same size cannot fit anywhere.
	if _, err := cluster.Start(InstanceConfig{Name: "c", PoolPages: 48}); err == nil {
		t.Fatal("over-capacity placement accepted")
	}
	// But a small one can.
	if _, err := cluster.Start(InstanceConfig{Name: "small", PoolPages: 8}); err != nil {
		t.Fatal(err)
	}
	// Crash/recover an instance: it must come back on its original domain
	// with its data.
	tbl, err := a.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := a.Begin()
	tx.Insert(tbl, 1, []byte("pool-local"))
	tx.Commit()
	a.Crash()
	a2, _, err := cluster.Recover("a")
	if err != nil {
		t.Fatal(err)
	}
	pa2, _ := cluster.PlacementOf("a")
	if pa2 != pa {
		t.Fatal("recovery moved the instance to another domain")
	}
	tbl2, _ := a2.OpenTable("t")
	tx2 := a2.Begin()
	v, err := tx2.Get(tbl2, 1)
	if err != nil || string(v) != "pool-local" {
		t.Fatalf("post-recovery read: %q, %v", v, err)
	}
	_ = b
}

func TestSharingClusterCrashRejoin(t *testing.T) {
	sc, err := NewSharingCluster(SharingConfig{Nodes: 3, DBPPages: 16})
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
		err := sc.Node(i).ReadModifyWrite(clk, pid, 64, 8, func(b []byte) {
			binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+1)
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	const rounds = 5
	for r := 0; r < rounds; r++ {
		for i := 0; i < 3; i++ {
			bump(i)
		}
	}
	// Checkpoint the DBP: with no WAL attached, eviction rebuilds a
	// write-held frame from the last durable storage image (anything newer is
	// indistinguishable from the dead writer's torn bytes), so the cluster
	// must flush to bound its loss window.
	if err := sc.Fusion().FlushDirty(clk, nil); err != nil {
		t.Fatal(err)
	}
	// Node 2 dies holding the page's write lock.
	if err := sc.Fusion().Lock(clk, sc.Node(2).Name(), pid, true); err != nil {
		t.Fatal(err)
	}
	if err := sc.CrashPrimary(2); err != nil {
		t.Fatal(err)
	}
	// The dead node is fenced; survivors reclaim the lock and keep counting.
	if err := sc.Node(2).Read(clk, pid, 64, make([]byte, 8)); !errors.Is(err, sharing.ErrNodeEvicted) {
		t.Fatalf("crashed node should be fenced, got %v", err)
	}
	for r := 0; r < rounds; r++ {
		bump(0)
		bump(1)
	}
	if rep := sc.Fusion().Fsck(); !rep.OK() {
		t.Fatalf("fsck after crash: %v", rep.Problems)
	}
	// Rejoin and keep counting from all three nodes.
	if err := sc.RejoinPrimary(2); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < 3; i++ {
			bump(i)
		}
	}
	buf := make([]byte, 8)
	if err := sc.Node(0).Read(clk, pid, 64, buf); err != nil {
		t.Fatal(err)
	}
	want := uint64(rounds * 8) // 3 nodes + 2 survivors + 3 nodes, x rounds
	if got := binary.LittleEndian.Uint64(buf); got != want {
		t.Fatalf("counter = %d, want %d (no committed increment may be lost)", got, want)
	}
	if rep := sc.Fusion().Fsck(); !rep.OK() {
		t.Fatalf("fsck after rejoin: %v", rep.Problems)
	}
}
