package polarcxlmem

import (
	"errors"
	"fmt"
	"testing"

	"polarcxlmem/internal/checkpoint"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
)

// TestFailoverMovesInstanceToSurvivingLeaf is the tentpole end-to-end: the
// memory box under an instance's pool dies, the facade re-places the pool on
// a surviving leaf and rebuilds it from storage + retained WAL, committed
// data survives, uncommitted data does not, and the instance keeps serving.
func TestFailoverMovesInstanceToSurvivingLeaf(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{PoolPages: 256, Pools: 3})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cluster.Start(InstanceConfig{Name: "db0", PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	deadLeaf, _ := cluster.PlacementOf("db0")
	tbl, err := inst.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := inst.Begin()
	for k := int64(0); k < 200; k++ {
		if err := tx.Insert(tbl, k, []byte(fmt.Sprintf("v-%06d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// A durable-but-uncommitted update that failover must undo.
	doomed := inst.Begin()
	if err := doomed.Update(tbl, 3, []byte("DOOMED")); err != nil {
		t.Fatal(err)
	}
	flusher := inst.Begin()
	flusher.Update(tbl, 1, []byte("v-000001"))
	if err := flusher.Commit(); err != nil { // group commit flushes the doomed record
		t.Fatal(err)
	}

	if err := cluster.FailBox(deadLeaf); err != nil {
		t.Fatal(err)
	}
	if !cluster.BoxFailed(deadLeaf) {
		t.Fatal("box not failed after FailBox")
	}
	// The instance was crashed by the box failure: its API says so.
	if _, err := inst.CreateTable("t2"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("op on box-failed instance: %v, want ErrCrashed", err)
	}

	inst2, res, err := cluster.Failover("db0")
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	if res.Scheme != "failover" {
		t.Fatalf("scheme = %q", res.Scheme)
	}
	newLeaf, _ := cluster.PlacementOf("db0")
	if newLeaf == deadLeaf {
		t.Fatalf("failover re-placed the pool on the dead leaf %d", deadLeaf)
	}
	if rep := inst2.Pool().Fsck(); !rep.OK() {
		t.Fatalf("post-failover Fsck: %v", rep.Problems)
	}
	tbl2, err := inst2.OpenTable("t")
	if err != nil {
		t.Fatal(err)
	}
	rtx := inst2.Begin()
	for k := int64(0); k < 200; k++ {
		v, err := rtx.Get(tbl2, k)
		if err != nil || string(v) != fmt.Sprintf("v-%06d", k) {
			t.Fatalf("Get(%d) after failover = %q, %v", k, v, err)
		}
	}
	rtx.Commit()
	// The instance keeps serving writes on the new leaf.
	wtx := inst2.Begin()
	if err := wtx.Insert(tbl2, 9999, []byte("post-failover")); err != nil {
		t.Fatal(err)
	}
	if err := wtx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverTypedErrors pins every refusal path to its sentinel, through
// errors.Is (satellite: typed-error coverage for the new API).
func TestFailoverTypedErrors(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{PoolPages: 256, Pools: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cluster.Failover("nope"); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("Failover(unknown) = %v, want ErrUnknownInstance", err)
	}
	inst, err := cluster.Start(InstanceConfig{Name: "db0", PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cluster.Failover("db0"); !errors.Is(err, ErrNotCrashed) {
		t.Fatalf("Failover(live) = %v, want ErrNotCrashed", err)
	}
	// Host crash with the box still up: the pool image survived in CXL, so
	// the right restart is Recover, and Failover says so.
	inst.Crash()
	if _, _, err := cluster.Failover("db0"); !errors.Is(err, ErrBoxHealthy) {
		t.Fatalf("Failover(healthy box) = %v, want ErrBoxHealthy", err)
	}
	if _, _, err := cluster.Recover("db0"); err != nil {
		t.Fatalf("Recover after refused failover: %v", err)
	}

	// A pinned instance refuses relocation even when its box is dead.
	pinned, err := cluster.Start(InstanceConfig{Name: "pinned", PoolPages: 64,
		Placement: &Placement{HostLeaf: 1, PoolLeaf: 1, CheckpointLeaf: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.FailBox(1); err != nil {
		t.Fatal(err)
	}
	if _, err := pinned.OpenTable("t"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("pinned instance not crashed by FailBox: %v", err)
	}
	if _, _, err := cluster.Failover("pinned"); !errors.Is(err, ErrPlacementPinned) {
		t.Fatalf("Failover(pinned) = %v, want ErrPlacementPinned", err)
	}

	if err := cluster.FailBox(7); err == nil {
		t.Fatal("FailBox(7) on a 2-leaf fabric succeeded")
	}
	if err := cluster.RestoreBox(-1); err == nil {
		t.Fatal("RestoreBox(-1) succeeded")
	}
}

// TestFailoverNoCapacityWhenAllOthersDead: with every surviving box too
// small (or dead), Failover surfaces ErrNoCapacity rather than placing on
// the failed box.
func TestFailoverNoCapacityWhenAllOthersDead(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{PoolPages: 256, Pools: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Start(InstanceConfig{Name: "db0", PoolPages: 128}); err != nil {
		t.Fatal(err)
	}
	leaf, _ := cluster.PlacementOf("db0")
	other := 1 - leaf
	if err := cluster.FailBox(leaf); err != nil {
		t.Fatal(err)
	}
	if err := cluster.FailBox(other); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cluster.Failover("db0"); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("Failover with no surviving box = %v, want ErrNoCapacity", err)
	}
	// Restore the other box: failover now lands there.
	if err := cluster.RestoreBox(other); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cluster.Failover("db0"); err != nil {
		t.Fatalf("Failover after restore: %v", err)
	}
	if p, _ := cluster.PlacementOf("db0"); p != other {
		t.Fatalf("failover placed on leaf %d, want %d", p, other)
	}
}

// TestFailoverCheckpointAreaOnSurvivingLeaf is the tentpole's checkpoint
// claim at facade level: Placement.CheckpointLeaf puts the checkpoint
// record on a different box than the pool; when the pool box dies, the
// record is reachable from the replacement leaf and bounds the redo scan.
func TestFailoverCheckpointAreaOnSurvivingLeaf(t *testing.T) {
	reg := obs.New(obs.Options{})
	cluster, err := NewCluster(ClusterConfig{PoolPages: 256, Pools: 3}, WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cluster.Start(InstanceConfig{
		Name:      "db0",
		PoolPages: 128,
		Placement: &Placement{HostLeaf: -1, PoolLeaf: -1, CheckpointLeaf: 2},
		Checkpoint: &checkpoint.Policy{
			IntervalNanos: 50 * simclock.Microsecond, DirtyWatermark: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	poolLeaf, _ := cluster.PlacementOf("db0")
	if poolLeaf == 2 {
		t.Fatalf("auto pool placement landed on the checkpoint leaf; rework test")
	}
	tbl, err := inst.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 200; r++ {
		tx := inst.Begin()
		k := int64(r % 32)
		v := []byte(fmt.Sprintf("round-%05d", r))
		var err error
		if r < 32 {
			err = tx.Insert(tbl, k, v)
		} else {
			err = tx.Update(tbl, k, v)
		}
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit round %d: %v", r, err)
		}
	}
	published := inst.CheckpointArea().LSN()
	if published == 0 {
		t.Fatal("no checkpoint published; test underpowered")
	}
	ws := inst.Engine().Log().Store()
	if ws.TruncatedBefore() <= 1 {
		t.Fatal("WAL never truncated; test underpowered")
	}

	if err := cluster.FailBox(poolLeaf); err != nil {
		t.Fatal(err)
	}
	inst2, res, err := cluster.Failover("db0")
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	// Redo started from the area's checkpoint — the record survived on leaf
	// 2 and was read from there, not rebuilt.
	if res.CheckpointLSN < published {
		t.Fatalf("failover checkpoint LSN %d below the published %d", res.CheckpointLSN, published)
	}
	tbl2, err := inst2.OpenTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := inst2.Begin()
	for k := int64(0); k < 32; k++ {
		v, err := tx.Get(tbl2, k)
		if err != nil {
			t.Fatalf("Get(%d) after failover: %v", k, err)
		}
		if len(v) == 0 {
			t.Fatalf("Get(%d) after failover: empty", k)
		}
	}
	tx.Commit()
	if rep := inst2.Pool().Fsck(); !rep.OK() {
		t.Fatalf("post-failover Fsck: %v", rep.Problems)
	}
	// The re-armed checkpointer keeps publishing past the old record.
	for r := 200; r < 400; r++ {
		tx := inst2.Begin()
		if err := tx.Update(tbl2, int64(r%32), []byte(fmt.Sprintf("round-%05d", r))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if inst2.CheckpointArea().LSN() <= published {
		t.Fatalf("checkpointer never published again after failover (LSN stuck at %d)", inst2.CheckpointArea().LSN())
	}
}

// TestFailoverCheckpointAreaDiedWithBox: pool and checkpoint area co-located
// (the default); when their shared box dies the area is gone, failover
// rebuilds from the WAL truncation floor and re-arms the checkpointer over
// a fresh area on the new leaf.
func TestFailoverCheckpointAreaDiedWithBox(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{PoolPages: 256, Pools: 2})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cluster.Start(InstanceConfig{
		Name:      "db0",
		PoolPages: 128,
		Checkpoint: &checkpoint.Policy{
			IntervalNanos: 50 * simclock.Microsecond, DirtyWatermark: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	poolLeaf, _ := cluster.PlacementOf("db0")
	tbl, err := inst.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 200; r++ {
		tx := inst.Begin()
		k := int64(r % 32)
		v := []byte(fmt.Sprintf("round-%05d", r))
		var err error
		if r < 32 {
			err = tx.Insert(tbl, k, v)
		} else {
			err = tx.Update(tbl, k, v)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	oldLSN := inst.CheckpointArea().LSN()
	if oldLSN == 0 {
		t.Fatal("no checkpoint published; test underpowered")
	}

	if err := cluster.FailBox(poolLeaf); err != nil {
		t.Fatal(err)
	}
	inst2, res, err := cluster.Failover("db0")
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	// The area died with the box: no checkpoint record reachable, so the
	// scan fell back to the store checkpoint / truncation floor.
	if res.CheckpointLSN >= oldLSN {
		t.Fatalf("failover claims checkpoint LSN %d but the area (LSN %d) died with the box", res.CheckpointLSN, oldLSN)
	}
	if inst2.CheckpointArea() == nil {
		t.Fatal("failed-over instance has no fresh checkpoint area")
	}
	tbl2, err := inst2.OpenTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := inst2.Begin()
	v, err := tx.Get(tbl2, int64(199%32))
	if err != nil || string(v) != "round-00199" {
		t.Fatalf("newest committed row after failover = %q, %v", v, err)
	}
	tx.Commit()
	// The fresh area starts publishing again.
	for r := 200; r < 400; r++ {
		tx := inst2.Begin()
		if err := tx.Update(tbl2, int64(r%32), []byte(fmt.Sprintf("round-%05d", r))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if inst2.CheckpointArea().LSN() == 0 {
		t.Fatal("fresh checkpoint area never published after failover")
	}
}

// TestRecoverAfterCheckpointLeafFails: the box holding an instance's remote
// checkpoint area dies while its pool's box lives. FailBox crashes the
// instance, Failover refuses (the pool image survived), and Recover runs
// PolarRecv in place over a fresh area next to the pool, redoing from the
// WAL truncation floor: committed data is intact, Fsck is clean, and the
// instance commits and checkpoints again.
func TestRecoverAfterCheckpointLeafFails(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{PoolPages: 256, Pools: 2})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cluster.Start(InstanceConfig{
		Name:      "db0",
		PoolPages: 128,
		Placement: &Placement{HostLeaf: 0, PoolLeaf: 0, CheckpointLeaf: 1},
		Checkpoint: &checkpoint.Policy{
			IntervalNanos: 50 * simclock.Microsecond, DirtyWatermark: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := inst.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 200; r++ {
		tx := inst.Begin()
		k, v := int64(r%32), []byte(fmt.Sprintf("round-%05d", r))
		if r < 32 {
			err = tx.Insert(tbl, k, v)
		} else {
			err = tx.Update(tbl, k, v)
		}
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit round %d: %v", r, err)
		}
	}
	if inst.CheckpointArea().LSN() == 0 {
		t.Fatal("no checkpoint published; test underpowered")
	}
	if inst.Engine().Log().Store().TruncatedBefore() <= 1 {
		t.Fatal("WAL never truncated; test underpowered")
	}

	if err := cluster.FailBox(1); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.CreateTable("t2"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("op after its checkpoint box failed: %v, want ErrCrashed", err)
	}
	if _, _, err := cluster.Failover("db0"); !errors.Is(err, ErrBoxHealthy) {
		t.Fatalf("Failover with the pool box up: %v, want ErrBoxHealthy", err)
	}
	inst2, res, err := cluster.Recover("db0")
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if res.Scheme != "polarrecv" || res.PagesTrusted == 0 {
		t.Fatalf("recovery %q trusted %d pages, want an in-place PolarRecv", res.Scheme, res.PagesTrusted)
	}
	if cl, _ := cluster.CheckpointLeafOf("db0"); cl != 0 {
		t.Fatalf("fresh checkpoint area on leaf %d, want the pool's leaf 0", cl)
	}
	if rep := inst2.Pool().Fsck(); !rep.OK() {
		t.Fatalf("post-recover Fsck: %v", rep.Problems)
	}
	tbl2, err := inst2.OpenTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := inst2.Begin()
	for k := int64(0); k < 32; k++ {
		last := 160 + k // the newest of rounds k, k+32, ... below 200
		if k < 8 {
			last += 32
		}
		v, err := tx.Get(tbl2, k)
		if want := fmt.Sprintf("round-%05d", last); err != nil || string(v) != want {
			t.Fatalf("Get(%d) after recover = %q, %v; want %q", k, v, err, want)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for r := 200; r < 400; r++ {
		tx := inst2.Begin()
		if err := tx.Update(tbl2, int64(r%32), []byte(fmt.Sprintf("round-%05d", r))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit round %d after recover: %v", r, err)
		}
	}
	if inst2.CheckpointArea().LSN() == 0 {
		t.Fatal("fresh checkpoint area never published after recover")
	}
}

// TestFabricUnreachableSurfacesAtFacade: a sticky trunk failure makes a
// cross-leaf instance's bulk transfers fail with the re-exported
// ErrFabricUnreachable (typed, errors.Is-able), and trunk restoration heals
// it.
func TestFabricUnreachableSurfacesAtFacade(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{PoolPages: 256, Pools: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Host on leaf 0, pool on leaf 1: every page install/write-back crosses
	// the spine.
	inst, err := cluster.Start(InstanceConfig{Name: "db0", PoolPages: 128,
		Placement: &Placement{HostLeaf: 0, PoolLeaf: 1, CheckpointLeaf: -1}})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := inst.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := inst.Begin()
	for k := int64(0); k < 50; k++ {
		if err := tx.Insert(tbl, k, []byte("cross-leaf")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	topo := cluster.Topology()
	topo.FailTrunk(inst.Clock().Now(), 0) // host-side uplink, sticky
	// Checkpoint stages every dirty page over the dead trunk: typed failure.
	err = inst.Checkpoint()
	if !errors.Is(err, ErrFabricUnreachable) {
		t.Fatalf("Checkpoint over failed trunk = %v, want ErrFabricUnreachable", err)
	}
	var ue *cxl.UnreachableError
	if !errors.As(err, &ue) {
		t.Fatalf("error %v does not carry *cxl.UnreachableError", err)
	}
	topo.RestoreTrunk(inst.Clock().Now(), 0)
	// Probation must elapse before the trunk serves again.
	inst.Clock().Advance(cxl.DefaultProbationNanos + 1)
	if err := inst.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after trunk restore: %v", err)
	}
}
