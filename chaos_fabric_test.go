package polarcxlmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"polarcxlmem/internal/checkpoint"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
)

// Randomized multi-fault chaos sweep over the fabric: seeded schedules
// compose trunk flaps, trunk degrades, memory-box crashes (with facade
// failover to a surviving leaf), and primary crashes over two concurrently
// running deployments — a 3-leaf Cluster with two instances (one of them
// checkpointing to a remote leaf) and a 2-leaf SharingCluster running the
// one-writer-multi-reader counter workload. Every run arms the full
// internal/obs invariant-checker set and must converge: all committed writes
// readable, the shared counter exact, Fsck clean on every pool and on the
// fusion directory, and zero observability violations. Failures reproduce
// from their (seed, schedule index) pair via fault.ChaosScheduleFor.

const (
	chaosTrunkFlap    = fault.ChaosKind("trunk-flap")
	chaosTrunkDegrade = fault.ChaosKind("trunk-degrade")
	chaosBoxCrash     = fault.ChaosKind("box-crash")
	chaosPrimaryCrash = fault.ChaosKind("primary-crash")

	// chaosHealNanos advances a clock far enough for a flapped trunk to
	// self-repair and clear probation, so a retry takes the healthy route.
	chaosHealNanos = cxl.DefaultRepairNanos + cxl.DefaultProbationNanos + simclock.Microsecond
)

func TestFabricChaosSweep(t *testing.T) {
	runs := 200
	if testing.Short() {
		runs = 30
	}
	cfg := fault.ChaosConfig{
		Seed:      0xFAB51C,
		Runs:      runs,
		Steps:     20,
		MaxEvents: 4,
		MaxArg:    16,
		Kinds: []fault.ChaosKind{
			chaosTrunkFlap, chaosTrunkDegrade, chaosBoxCrash, chaosPrimaryCrash,
		},
	}
	res := fault.ChaosSweep(t, cfg, runFabricChaos)
	if res.Failures != 0 {
		t.Fatalf("chaos sweep: %d/%d runs failed", res.Failures, res.Runs)
	}
}

// chaosWorld is one run's deployment pair plus the oracles the audit
// checks against.
type chaosWorld struct {
	cluster *Cluster
	insts   map[string]*Instance
	tables  map[string]*Table
	shadow  map[string]map[int64][]byte // committed key -> value per instance

	sc       *SharingCluster
	pid      uint64
	expected uint64 // exact shared-counter value
}

var chaosNames = [2]string{"db0", "db1"}

// withHeal retries op across fabric outages: a route that resolves through
// a flapped trunk returns ErrFabricUnreachable until the link self-repairs,
// so each retry first advances virtual time past repair + probation.
func withHeal(clk *simclock.Clock, op func() error) error {
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		if err = op(); err == nil || !errors.Is(err, ErrFabricUnreachable) {
			return err
		}
		clk.Advance(chaosHealNanos)
	}
	return err
}

// commitKV upserts k=v in one transaction, retrying through fabric outages.
// A commit can fail AFTER its marker is durable (the checkpointer tick runs
// post-marker and surfaces transfer errors), so the retry must be an upsert:
// update-first handles the key already being committed, insert covers the
// genuinely-new case. Retrying the SAME value makes the outcome identical
// either way, so the shadow map stays exact.
func (w *chaosWorld) commitKV(name string, k int64, v []byte) error {
	inst := w.insts[name]
	tbl := w.tables[name]
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		tx := inst.Begin()
		err = tx.Update(tbl, k, v)
		if errors.Is(err, ErrKeyNotFound) {
			err = tx.Insert(tbl, k, v)
		}
		if err == nil {
			err = tx.Commit()
		} else {
			_ = tx.Rollback()
		}
		if err == nil {
			w.shadow[name][k] = v
			return nil
		}
		if !errors.Is(err, ErrFabricUnreachable) {
			return fmt.Errorf("%s: commit k=%d: %w", name, k, err)
		}
		inst.Clock().Advance(chaosHealNanos)
	}
	return fmt.Errorf("%s: commit k=%d never healed: %w", name, k, err)
}

// bump increments the shared counter from node i, retrying through outages.
// Fabric transfers in the RMW path (DBP fill, eviction write-back) all run
// BEFORE the buffered mutation publishes, so a failed attempt never
// half-applies and the retry cannot double-count.
func (w *chaosWorld) bump(i int) error {
	clk := w.sc.Clock()
	err := withHeal(clk, func() error {
		return w.sc.Node(i).ReadModifyWrite(clk, w.pid, 64, make([]byte, 8), func(b []byte) {
			binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+1)
		})
	})
	if err != nil {
		return fmt.Errorf("sharing bump via node %d: %w", i, err)
	}
	w.expected++
	return nil
}

// reopen refreshes an instance handle after Recover/Failover returned a new
// one: table handles are bound to the old engine.
func (w *chaosWorld) reopen(name string, inst *Instance) error {
	w.insts[name] = inst
	var tbl *Table
	err := withHeal(inst.Clock(), func() error {
		var e error
		tbl, e = inst.OpenTable("t")
		return e
	})
	if err != nil {
		return fmt.Errorf("%s: reopen table: %w", name, err)
	}
	w.tables[name] = tbl
	return nil
}

// preHeal advances a crashed instance's clock past every possible trunk
// repair window before Recover/Failover: the facade seeds the replacement
// instance's clock from the crashed one's, and rebuild transfers cannot
// retry mid-recovery, so the rebuild must start after flapped links healed
// (failover takes operator wall-time; virtual time must pass explicitly).
func (w *chaosWorld) preHeal(name string) {
	clk := w.insts[name].Clock()
	if target := w.clusterNow() + chaosHealNanos; target > clk.Now() {
		clk.AdvanceTo(target)
	}
}

func (w *chaosWorld) clusterNow() int64 {
	now := int64(0)
	for _, inst := range w.insts {
		if n := inst.Clock().Now(); n > now {
			now = n
		}
	}
	return now
}

func (w *chaosWorld) fire(ev fault.ChaosEvent) error {
	switch ev.Kind {
	case chaosTrunkFlap:
		// Transient outage on one Cluster trunk and one SharingCluster
		// trunk; both self-repair into probation, so void data paths stall
		// rather than panic and error paths heal on retry.
		w.cluster.Topology().FlapTrunk(w.clusterNow(), ev.Arg%3)
		w.sc.Topology().FlapTrunk(w.sc.Clock().Now(), ev.Arg%2)
		return nil

	case chaosTrunkDegrade:
		// Persistent brown-out: routes stay up but cross-switch transfers
		// run at the degraded bandwidth fraction until restored.
		lf := ev.Arg % 3
		w.cluster.Topology().DegradeTrunk(w.clusterNow(), lf)
		w.sc.Topology().DegradeTrunk(w.sc.Clock().Now(), ev.Arg%2)
		if ev.Arg%2 == 0 {
			// Half the degrades heal within the run; the rest ride out the
			// remaining steps degraded.
			w.cluster.Topology().RestoreTrunk(w.clusterNow(), lf)
		}
		return nil

	case chaosBoxCrash:
		return w.boxCrash(ev)

	case chaosPrimaryCrash:
		if ev.Arg%2 == 0 {
			name := chaosNames[(ev.Arg/2)%2]
			w.insts[name].Crash()
			w.preHeal(name)
			inst, _, err := w.cluster.Recover(name)
			if err != nil {
				return fmt.Errorf("%s: recover after primary crash: %w", name, err)
			}
			if rep := inst.Pool().Fsck(); !rep.OK() {
				return fmt.Errorf("%s: post-recover fsck: %v", name, rep.Problems)
			}
			return w.reopen(name, inst)
		}
		i := (ev.Arg / 2) % 2
		// Bound the loss window before fencing: the sharing world has no
		// WAL, so dirty DBP frames must be durable before the primary dies.
		if err := withHeal(w.sc.Clock(), func() error {
			return w.sc.Fusion().FlushDirty(w.sc.Clock(), nil)
		}); err != nil {
			return fmt.Errorf("pre-crash flush: %w", err)
		}
		if err := w.sc.CrashPrimary(i); err != nil {
			return fmt.Errorf("crash primary %d: %w", i, err)
		}
		if err := w.sc.RejoinPrimary(i); err != nil {
			return fmt.Errorf("rejoin primary %d: %w", i, err)
		}
		return nil
	}
	return fmt.Errorf("unknown chaos kind %q", ev.Kind)
}

// boxCrash powers off the memory box under one instance's pool, restarts
// every instance that lost state there — Failover to a surviving leaf when
// its pool lived on the box, Recover over a fresh checkpoint area when only
// its remote area did — then brings replacement hardware online so at most
// one box is dead at a time.
func (w *chaosWorld) boxCrash(ev fault.ChaosEvent) error {
	victim := chaosNames[ev.Arg%2]
	leaf, ok := w.cluster.PlacementOf(victim)
	if !ok || w.cluster.BoxFailed(leaf) {
		return nil
	}
	if err := w.cluster.FailBox(leaf); err != nil {
		return fmt.Errorf("fail box %d: %w", leaf, err)
	}
	for _, n := range chaosNames {
		restart, how := w.cluster.Failover, "failover"
		if pl, _ := w.cluster.PlacementOf(n); pl != leaf {
			if cl, ok := w.cluster.CheckpointLeafOf(n); !ok || cl != leaf {
				continue
			}
			restart, how = w.cluster.Recover, "recover"
		}
		w.preHeal(n)
		inst, _, err := restart(n)
		if err != nil {
			return fmt.Errorf("%s: %s after box %d failed: %w", n, how, leaf, err)
		}
		if np, _ := w.cluster.PlacementOf(n); np == leaf {
			return fmt.Errorf("%s: %s left instance on dead leaf %d", n, how, leaf)
		}
		if rep := inst.Pool().Fsck(); !rep.OK() {
			return fmt.Errorf("%s: post-%s fsck: %v", n, how, rep.Problems)
		}
		if err := w.reopen(n, inst); err != nil {
			return err
		}
	}
	return w.cluster.RestoreBox(leaf)
}

// audit verifies convergence after the schedule drains: every committed
// write readable at its last value, the shared counter exact, all Fscks
// clean, and the observability registry violation-free.
func (w *chaosWorld) audit(reg *obs.Registry) error {
	for _, name := range chaosNames {
		inst := w.insts[name]
		if rep := inst.Pool().Fsck(); !rep.OK() {
			return fmt.Errorf("%s: final fsck: %v", name, rep.Problems)
		}
		tx := inst.Begin()
		for k, want := range w.shadow[name] {
			var got []byte
			err := withHeal(inst.Clock(), func() error {
				var e error
				got, e = tx.Get(w.tables[name], k)
				return e
			})
			if err != nil {
				return fmt.Errorf("%s: audit get k=%d: %w", name, k, err)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("%s: k=%d = %q, want %q", name, k, got, want)
			}
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("%s: audit commit: %w", name, err)
		}
	}

	buf := make([]byte, 8)
	if err := withHeal(w.sc.Clock(), func() error {
		return w.sc.Node(0).Read(w.sc.Clock(), w.pid, 64, buf)
	}); err != nil {
		return fmt.Errorf("read shared counter: %w", err)
	}
	if got := binary.LittleEndian.Uint64(buf); got != w.expected {
		return fmt.Errorf("shared counter = %d, want %d (lost or doubled update)", got, w.expected)
	}
	if rep := w.sc.Fusion().Fsck(); !rep.OK() {
		return fmt.Errorf("fusion fsck: %v", rep.Problems)
	}

	if vs := reg.Finish(); len(vs) > 0 {
		return fmt.Errorf("%d obs violations, first: %s: %s", len(vs), vs[0].Checker, vs[0].Detail)
	}
	return nil
}

// runFabricChaos executes one seeded schedule against a fresh world.
func runFabricChaos(s fault.ChaosSchedule) error {
	reg := obs.New(obs.Options{})
	for _, c := range obs.DefaultCheckers() {
		reg.AddChecker(c)
	}

	cluster, err := NewCluster(ClusterConfig{PoolPages: 192, Pools: 3}, WithObserver(reg))
	if err != nil {
		return err
	}
	w := &chaosWorld{
		cluster: cluster,
		insts:   make(map[string]*Instance),
		tables:  make(map[string]*Table),
		shadow:  make(map[string]map[int64][]byte),
	}
	// db0: default auto placement, no checkpointing. db1: auto pool with an
	// aggressive fuzzy checkpointer publishing to a REMOTE leaf's box, so
	// box crashes exercise both surviving-area and area-died failovers.
	configs := []InstanceConfig{
		{Name: "db0", PoolPages: 48},
		{
			Name: "db1", PoolPages: 48,
			Placement: &Placement{HostLeaf: -1, PoolLeaf: -1, CheckpointLeaf: 2},
			Checkpoint: &checkpoint.Policy{
				IntervalNanos: 50 * simclock.Microsecond, DirtyWatermark: 8,
			},
		},
	}
	for _, cfg := range configs {
		inst, err := cluster.Start(cfg)
		if err != nil {
			return fmt.Errorf("start %s: %w", cfg.Name, err)
		}
		tbl, err := inst.CreateTable("t")
		if err != nil {
			return fmt.Errorf("%s: create table: %w", cfg.Name, err)
		}
		w.insts[cfg.Name] = inst
		w.tables[cfg.Name] = tbl
		w.shadow[cfg.Name] = make(map[int64][]byte)
	}

	w.sc, err = NewSharingCluster(SharingConfig{
		Nodes: 2, DBPPages: 16, MetaSlots: 8,
		Fabric:     &cxl.TopologyConfig{Leaves: 2},
		NodeLeaves: []int{0, 1},
	}, WithObserver(reg))
	if err != nil {
		return fmt.Errorf("sharing cluster: %w", err)
	}
	if w.pid, err = w.sc.SeedPage(); err != nil {
		return fmt.Errorf("seed page: %w", err)
	}

	ei := 0
	for step := 0; step < 20; step++ {
		for ei < len(s.Events) && s.Events[ei].Step <= step {
			ev := s.Events[ei]
			ei++
			if err := w.fire(ev); err != nil {
				return fmt.Errorf("@%d:%s(%d): %w", ev.Step, ev.Kind, ev.Arg, err)
			}
		}
		for idx, name := range chaosNames {
			k := int64((step*2 + idx) % 24)
			v := []byte(fmt.Sprintf("%s-step%03d", name, step))
			if err := w.commitKV(name, k, v); err != nil {
				return err
			}
		}
		if err := w.bump(step % 2); err != nil {
			return err
		}
	}
	return w.audit(reg)
}
