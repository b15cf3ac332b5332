package sharing

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simmem"
	"polarcxlmem/internal/txn"
)

// Eviction of a crashed primary: lock reclamation, PolarRecv-style frame
// rebuild, and the crash-point sweep over EvictNode itself.

// attachLockTable gives fusion its CXL-durable lock table, allocated by a
// separate host on leaf 0 of topo, and returns the table's region.
func attachLockTable(t *testing.T, clk *simclock.Clock, topo *cxl.Topology, fusion *Fusion) *simmem.Region {
	t.Helper()
	h, err := topo.AttachHost("lt-host", 0)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := h.Allocate(clk, "lock-table", int64(fusion.CapacityPages())*8)
	if err != nil {
		t.Fatal(err)
	}
	if err := fusion.AttachLockTable(lt); err != nil {
		t.Fatal(err)
	}
	return lt
}

// TestEnginesSurvivePrimaryCrashMidWriteLock is the end-to-end acceptance
// scenario: a full two-engine deployment, one primary dies holding write
// locks with garbage leaked into the locked DBP frames (the torn-frame
// hazard), and the survivor must read EVERY committed row byte-exact, pass
// structural validation, and pass fsck — then the dead node rejoins and
// writes again.
func TestEnginesSurvivePrimaryCrashMidWriteLock(t *testing.T) {
	r := newMPRig(t, 2, 256)
	r.fusion.SetRecoverySource(r.ws)
	lt := attachLockTable(t, r.clk, r.topo, r.fusion)

	tr0, err := r.engines[0].CreateTable(r.clk, "shared")
	if err != nil {
		t.Fatal(err)
	}
	tr1, err := r.engines[1].Table(r.clk, "shared")
	if err != nil {
		t.Fatal(err)
	}
	rowVal := func(k int64) []byte { return []byte(fmt.Sprintf("node%d-%04d-%060d", k%2, k, k)) }
	insert := func(from, to int64) {
		t.Helper()
		for k := from; k < to; k++ {
			eng, tree := r.engines[0], tr0
			if k%2 == 1 {
				eng, tree = r.engines[1], tr1
			}
			tx := eng.Begin(r.clk)
			if err := tx.Insert(tree, k, rowVal(k)); err != nil {
				t.Fatalf("insert %d: %v", k, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	const n1, n2 = 100, 200
	insert(0, n1)
	// Checkpoint so the rebuild exercises the storage-base path...
	if err := r.engines[0].Checkpoint(r.clk); err != nil {
		t.Fatal(err)
	}
	// ...and a committed redo tail past it.
	insert(n1, n2)

	// Node 1 dies mid-write: write-lock a few storage-backed pages, leak
	// garbage into the locked frames (partial cache write-backs from the
	// dying host), and never release.
	garbage := bytes.Repeat([]byte{0xDE}, 64)
	var scribbled []uint64
	for id := uint64(1); id < r.store.NextID() && len(scribbled) < 3; id++ {
		if !r.store.Has(id) {
			continue
		}
		fr, err := r.pools[1].Get(r.clk, id, buffer.Write)
		if err != nil {
			t.Fatalf("pre-crash write pin of page %d: %v", id, err)
		}
		if err := writeAt(fr, page.HeaderSize+32, garbage); err != nil {
			t.Fatal(err)
		}
		if err := r.fusion.dbp.(*cxlDBP).region.WriteRaw(r.fusion.pages[id].off+page.HeaderSize+32, garbage); err != nil {
			t.Fatal(err)
		}
		scribbled = append(scribbled, id)
		// fr is deliberately never Released: the crash strands the lock.
	}
	if len(scribbled) == 0 {
		t.Fatal("no storage-backed pages to scribble")
	}
	r.pools[1].CrashPrimary()

	// Dead node's operations are fenced.
	if _, err := r.pools[1].Get(r.clk, scribbled[0], buffer.Read); !errors.Is(err, ErrNodeEvicted) {
		t.Fatalf("crashed pool should be fenced, got %v", err)
	}

	// The survivor reads every committed row byte-exact; its first access to
	// an orphaned page waits out the dead node's lease and reclaims inline.
	for k := int64(0); k < n2; k++ {
		v, err := tr0.Get(r.clk, k)
		if err != nil || !bytes.Equal(v, rowVal(k)) {
			t.Fatalf("survivor Get(%d) = %q, %v; want %q", k, v, err, rowVal(k))
		}
	}
	if err := tr0.Validate(r.clk); err != nil {
		t.Fatalf("survivor tree validation: %v", err)
	}
	if rep := r.fusion.Fsck(); !rep.OK() {
		t.Fatalf("fsck after eviction: %v", rep.Problems)
	}
	// The reclaimed pages carry no fabricated bytes: every lock word is zero.
	for _, id := range scribbled {
		if ps := r.fusion.pages[id]; ps != nil {
			w, err := lt.Load64Raw(lockWordOff(ps.off))
			if err != nil {
				t.Fatal(err)
			}
			if w != 0 {
				t.Fatalf("page %d: stale lock word %d after eviction", id, w)
			}
		}
	}

	// Rejoin: the node restarts with empty local state and a fresh engine.
	if err := r.pools[1].RejoinPrimary(r.clk); err != nil {
		t.Fatal(err)
	}
	eng1, err := txn.Attach(r.clk, r.pools[1], r.log, r.store)
	if err != nil {
		t.Fatalf("rejoined engine attach: %v", err)
	}
	eng1.IDs().Bump(3 << 40)
	tr1b, err := eng1.Table(r.clk, "shared")
	if err != nil {
		t.Fatalf("rejoined node cannot see the catalog: %v", err)
	}
	for _, k := range []int64{0, n1, n2 - 1} {
		v, err := tr1b.Get(r.clk, k)
		if err != nil || !bytes.Equal(v, rowVal(k)) {
			t.Fatalf("rejoined Get(%d) = %q, %v; want %q", k, v, err, rowVal(k))
		}
	}
	tx := eng1.Begin(r.clk)
	if err := tx.Insert(tr1b, n2, rowVal(n2)); err != nil {
		t.Fatalf("rejoined insert: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, err := tr0.Get(r.clk, n2); err != nil || !bytes.Equal(v, rowVal(n2)) {
		t.Fatalf("survivor sees rejoined row: %q, %v", v, err)
	}
}

// evictSweepState is one fresh instance of the eviction scenario: node-1
// died write-holding two pages whose frames it had polluted with leaked
// write-backs; committed images are durable in storage.
type evictSweepState struct {
	r      *rig
	pids   []uint64
	locked []uint64 // pids the dead node held write locks on
	want   [][]byte // committed bytes per pid
}

func newEvictSweepState(t *testing.T) *evictSweepState {
	t.Helper()
	r := newRig(t, 8, 2, 16)
	attachLockTable(t, r.clk, r.topo, r.fusion)
	st := &evictSweepState{r: r}
	for i := 0; i < 3; i++ {
		pid := r.seedPage(t, byte(0x11*(i+1)))
		st.pids = append(st.pids, pid)
		buf := make([]byte, 32)
		for _, n := range r.nodes {
			if err := n.Read(r.clk, pid, page.HeaderSize, buf); err != nil {
				t.Fatal(err)
			}
		}
		committed := bytes.Repeat([]byte{byte(0xA0 + i)}, 32)
		if err := r.nodes[1].Write(r.clk, pid, page.HeaderSize, committed); err != nil {
			t.Fatal(err)
		}
		st.want = append(st.want, committed)
	}
	// Make the committed images durable: the rebuild's ground truth.
	if err := r.fusion.FlushDirty(r.clk, nil); err != nil {
		t.Fatal(err)
	}
	// node-1 dies holding write locks on the first two pages, having leaked
	// garbage into the locked frames.
	garbage := bytes.Repeat([]byte{0xDD}, 32)
	for _, pid := range st.pids[:2] {
		if err := r.fusion.Lock(r.clk, "node-1", pid, true); err != nil {
			t.Fatal(err)
		}
		if err := r.fusion.dbp.(*cxlDBP).region.WriteRaw(r.fusion.pages[pid].off+page.HeaderSize, garbage); err != nil {
			t.Fatal(err)
		}
		st.locked = append(st.locked, pid)
	}
	r.fusion.CrashNode("node-1")
	return st
}

// verify asserts the fully-evicted end state: clean fsck, zero lock words,
// and the survivor reading exactly the committed bytes — no garbage, no
// fabrication.
func (st *evictSweepState) verify(t *testing.T, tag string) {
	t.Helper()
	r := st.r
	if rep := r.fusion.Fsck(); !rep.OK() {
		t.Fatalf("%s: fsck: %v", tag, rep.Problems)
	}
	for _, pid := range st.locked {
		ps := r.fusion.pages[pid]
		if ps == nil {
			t.Fatalf("%s: page %d dropped despite having a durable image", tag, pid)
		}
		w, err := r.fusion.lockTab.Load64Raw(lockWordOff(ps.off))
		if err != nil {
			t.Fatal(err)
		}
		if w != 0 {
			t.Fatalf("%s: page %d lock word still %d", tag, pid, w)
		}
	}
	for i, pid := range st.pids {
		buf := make([]byte, 32)
		if err := r.nodes[0].Read(r.clk, pid, page.HeaderSize, buf); err != nil {
			t.Fatalf("%s: survivor read of page %d: %v", tag, pid, err)
		}
		if !bytes.Equal(buf, st.want[i]) {
			t.Fatalf("%s: page %d: survivor read %x, want %x", tag, pid, buf, st.want[i])
		}
	}
}

// TestEvictNodeCrashPointSweep kills the fusion host at EVERY CXL memory
// write EvictNode performs — frame rebuilds, invalid-flag fan-outs, lock
// word clears, flag-slot deregistrations — and after each crash re-runs the
// eviction (the restart path). Every step must be idempotent: the re-run
// always converges to the same clean state as an uninterrupted eviction.
// Repro contract: (seed, crashIndex) = (evictSweepSeed, i).
func TestEvictNodeCrashPointSweep(t *testing.T) {
	const evictSweepSeed = 42

	// Clean pass, counting the CXL writes of a full eviction.
	st := newEvictSweepState(t)
	counter := fault.NewPlan(evictSweepSeed)
	st.r.topo.Leaf(0).Box().Device().SetInjector(counter)
	if err := st.r.fusion.EvictNode(st.r.clk, "node-1"); err != nil {
		t.Fatalf("clean eviction: %v", err)
	}
	total := counter.Count(fault.OpMemWrite)
	st.r.topo.Leaf(0).Box().Device().SetInjector(nil)
	st.verify(t, "clean")
	if total == 0 {
		t.Fatal("eviction performed no CXL writes; the sweep would be vacuous")
	}
	t.Logf("sweeping %d eviction crash points", total)

	for i := int64(1); i <= total; i++ {
		st := newEvictSweepState(t)
		plan := fault.NewPlan(evictSweepSeed).CrashAt(fault.OpMemWrite, i)
		dev := st.r.topo.Leaf(0).Box().Device()
		dev.SetInjector(plan)
		err := st.r.fusion.EvictNode(st.r.clk, "node-1")
		if plan.Crashed() == nil {
			t.Fatalf("crash point %d never fired (eviction shape changed?)", i)
		}
		if err == nil {
			t.Fatalf("crash@%d: eviction reported success through a dead host", i)
		}
		// Fusion host restarts: the fault clears and the eviction re-runs.
		plan.Disarm()
		if err := st.r.fusion.EvictNode(st.r.clk, "node-1"); err != nil {
			t.Fatalf("re-run after crash@%d: %v", i, err)
		}
		dev.SetInjector(nil)
		st.verify(t, fmt.Sprintf("crash@%d", i))
	}
}

// writeAt writes data at off to f's page in a visit of its own.
func writeAt(f buffer.Frame, off int, data []byte) error {
	return buffer.Visit(f, func(pg page.Page) error { return pg.WriteAt(off, data) })
}
