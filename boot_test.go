package polarcxlmem

import (
	"fmt"
	"strings"
	"testing"

	"polarcxlmem/internal/checkpoint"
	"polarcxlmem/internal/flusher"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/tier"
	"polarcxlmem/internal/wal"
)

// TestBootPathsRearmPipeline checks the one boot path from each of its
// three entries: an instance with every commit-path daemon and the full
// policy, after a Resize and a SetQoS, comes back from Start, Recover and
// Failover with the same pipeline armed, the runtime adjustments kept, and
// every daemon reporting into the cluster's registry on the next commit.
func TestBootPathsRearmPipeline(t *testing.T) {
	for _, path := range []string{"start", "recover", "failover"} {
		t.Run(path, func(t *testing.T) {
			reg := obs.New(obs.Options{})
			cluster, err := NewCluster(ClusterConfig{PoolPages: 256, Pools: 2}, WithObserver(reg))
			if err != nil {
				t.Fatal(err)
			}
			inst, err := cluster.Start(InstanceConfig{
				Name:            "db0",
				PoolPages:       32,
				GroupCommit:     &wal.GroupPolicy{},
				BackgroundFlush: &flusher.Policy{IntervalNanos: 1},
				Checkpoint:      &checkpoint.Policy{IntervalNanos: 1},
				Policy: &Policy{
					Tiering: &tier.Config{FastPages: 8, IntervalNanos: 1, HalfLifeNanos: 100 * simclock.Millisecond, PromoteAbove: 0.5},
					Quota:   &QuotaPolicy{MinPages: 8, MaxPages: 64},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := inst.CreateTable("t")
			if err != nil {
				t.Fatal(err)
			}
			tx := inst.Begin()
			for k := int64(1); k <= 100; k++ {
				if err := tx.Insert(tbl, k, []byte(fmt.Sprintf("v-%03d", k))); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := cluster.Resize("db0", 24); err != nil {
				t.Fatal(err)
			}
			if err := cluster.SetQoS("db0", tier.QoS{DefaultFastPages: 3}); err != nil {
				t.Fatal(err)
			}

			switch path {
			case "recover":
				inst.Crash()
				if inst, _, err = cluster.Recover("db0"); err != nil {
					t.Fatal(err)
				}
			case "failover":
				leaf, _ := cluster.PlacementOf("db0")
				if err := cluster.FailBox(leaf); err != nil {
					t.Fatal(err)
				}
				if inst, _, err = cluster.Failover("db0"); err != nil {
					t.Fatal(err)
				}
				if now, _ := cluster.PlacementOf("db0"); now == leaf {
					t.Fatalf("failover left the pool on the dead leaf %d", leaf)
				}
			}

			eng := inst.Engine()
			if eng.GroupCommitter() == nil || eng.Flusher() == nil || eng.Checkpointer() == nil || inst.Tiering() == nil {
				t.Fatalf("pipeline not armed: group committer %v, flusher %v, checkpointer %v, tiering %v",
					eng.GroupCommitter() != nil, eng.Flusher() != nil, eng.Checkpointer() != nil, inst.Tiering() != nil)
			}
			if got, _ := cluster.AllotmentOf("db0"); got != 24 {
				t.Fatalf("allotment = %d, want 24", got)
			}
			if got := inst.Pool().BlockQuota(); got != 24 {
				t.Fatalf("pool quota = %d, want 24", got)
			}
			if got := inst.Tiering().QoS().DefaultFastPages; got != 3 {
				t.Fatalf("QoS default fast pages = %d, want 3", got)
			}

			// One committed write ticks every daemon into the registry.
			before := reg.Snapshot().Counters
			tbl, err = inst.OpenTable("t")
			if err != nil {
				t.Fatal(err)
			}
			tx = inst.Begin()
			if err := tx.Update(tbl, 7, []byte("v-new")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			after := reg.Snapshot().Counters
			moved := func(prefix string) bool {
				for name, v := range after {
					if strings.HasPrefix(name, prefix) && v > before[name] {
						return true
					}
				}
				return false
			}
			for _, prefix := range []string{"wal.batches", "flush.runs", "checkpoint.", "tier.db0."} {
				if !moved(prefix) {
					t.Errorf("no %s* counter moved on a committed write", prefix)
				}
			}

			tx = inst.Begin()
			if v, err := tx.Get(tbl, 50); err != nil || string(v) != "v-050" {
				t.Fatalf("get 50 = %q, %v", v, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// frameEventCounter is an obs.Checker that only counts frame.* events.
type frameEventCounter struct{ n int }

func (c *frameEventCounter) Name() string { return "frame-events" }
func (c *frameEventCounter) OnEvent(ev obs.Event) {
	if strings.HasPrefix(ev.Type, "frame.") {
		c.n++
	}
}
func (c *frameEventCounter) Violations() []obs.Violation { return nil }
func (c *frameEventCounter) Finish() []obs.Violation     { return nil }

// TestObservedFromBoot: a cluster's registry sees an instance's buffer pool
// from its first frame — the frame.* events of Bootstrap (Start) and of
// PolarRecv (Recover) reach the default checkers, which find no violation
// once a write has committed on the recovered instance.
func TestObservedFromBoot(t *testing.T) {
	reg := obs.New(obs.Options{})
	for _, c := range obs.DefaultCheckers() {
		reg.AddChecker(c)
	}
	frames := &frameEventCounter{}
	reg.AddChecker(frames)
	cluster, err := NewCluster(ClusterConfig{PoolPages: 256}, WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cluster.Start(InstanceConfig{Name: "db0", PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if frames.n == 0 {
		t.Fatal("Start's Bootstrap emitted no frame.* events into the cluster registry")
	}
	tbl, err := inst.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := inst.Begin()
	for k := int64(1); k <= 50; k++ {
		if err := tx.Insert(tbl, k, []byte(fmt.Sprintf("v-%03d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	inst.Crash()
	before := frames.n
	inst2, _, err := cluster.Recover("db0")
	if err != nil {
		t.Fatal(err)
	}
	if frames.n == before {
		t.Fatal("Recover's PolarRecv emitted no frame.* events into the cluster registry")
	}
	tbl2, err := inst2.OpenTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx = inst2.Begin()
	if err := tx.Update(tbl2, 7, []byte("after-recover")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, v := range reg.Finish() {
		t.Errorf("invariant violation [%s]: %s", v.Checker, v.Detail)
	}
}
