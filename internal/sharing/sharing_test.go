package sharing

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
)

// rig builds a fusion server with DBP capacity frames and n CXL nodes.
type rig struct {
	topo   *cxl.Topology
	fusion *Fusion
	nodes  []*Node
	store  *storage.Store
	clk    *simclock.Clock
}

func newRig(t *testing.T, dbpPages, nnodes, slots int) *rig {
	t.Helper()
	dbpBytes := int64(dbpPages) * page.Size
	flagBytes := int64(slots) * flagEntrySize
	topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: dbpBytes + int64(nnodes)*flagBytes + 4096})
	clk := simclock.New()
	store := storage.New(storage.Config{})

	dep, err := NewDeployment(clk, topo, "fusion-host", dbpPages, store)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{topo: topo, fusion: dep.Fusion, store: store, clk: clk}
	for i := 0; i < nnodes; i++ {
		p, err := dep.AttachPrimary(clk, fmt.Sprintf("node-%d", i), 0, flagBytes, 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, NewNode(p.Name, dep.Fusion, p.Cache, p.Flags))
	}
	return r
}

// seedPage writes a durable page whose body is filled with fill.
func (r *rig) seedPage(t *testing.T, fill byte) uint64 {
	t.Helper()
	id := r.store.AllocPageID()
	img := make([]byte, page.Size)
	for i := page.HeaderSize; i < len(img); i++ {
		img[i] = fill
	}
	if err := r.store.WritePage(r.clk, id, img); err != nil {
		t.Fatal(err)
	}
	return id
}

func TestCXLCoherencyPreventsStaleReads(t *testing.T) {
	r := newRig(t, 8, 2, 16)
	pid := r.seedPage(t, 0x11)
	a, b := r.nodes[0], r.nodes[1]

	// B reads first: caches the lines.
	buf := make([]byte, 128)
	if err := b.Read(r.clk, pid, 4096, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x11 {
		t.Fatalf("initial read = %#x", buf[0])
	}
	// A updates the same range.
	update := bytes.Repeat([]byte{0x22}, 128)
	if err := a.Write(r.clk, pid, 4096, update); err != nil {
		t.Fatal(err)
	}
	// B must see the new data (invalid flag honoured).
	if err := b.Read(r.clk, pid, 4096, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x22 {
		t.Fatalf("stale read after coherent update: %#x", buf[0])
	}
	if b.Stats().Invalidations != 1 {
		t.Fatalf("invalidations = %d", b.Stats().Invalidations)
	}
}

func TestCXLWithoutCoherencyReadsStale(t *testing.T) {
	// The negative control: disable invalid-flag checking and observe the
	// stale read the hardware would give you. Proves the simulated CPU
	// cache makes the protocol falsifiable.
	r := newRig(t, 8, 2, 16)
	pid := r.seedPage(t, 0x11)
	a, b := r.nodes[0], r.nodes[1]
	b.DisableCoherency = true

	buf := make([]byte, 64)
	if err := b.Read(r.clk, pid, 0+page.HeaderSize, buf); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(r.clk, pid, 0+page.HeaderSize, bytes.Repeat([]byte{0x22}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := b.Read(r.clk, pid, 0+page.HeaderSize, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x11 {
		t.Fatalf("expected stale 0x11 with coherency disabled, got %#x", buf[0])
	}
}

func TestWriterSeesOwnWritesAndPublishes(t *testing.T) {
	r := newRig(t, 8, 1, 16)
	pid := r.seedPage(t, 0x00)
	n := r.nodes[0]
	data := []byte("written in place in CXL")
	if err := n.Write(r.clk, pid, 1000, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := n.Read(r.clk, pid, 1000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read own write: %q", got)
	}
	// The DBP region itself must hold the data (clflush published it).
	m, err := n.ensurePage(r.clk, pid)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, len(data))
	if err := r.fusion.Region().ReadRaw(m.dataOff+1000, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, data) {
		t.Fatal("write-lock release did not publish dirty lines to CXL")
	}
}

func TestInterleavedCountersAreCoherent(t *testing.T) {
	// Two nodes increment a shared counter alternately; every increment
	// must observe the other's latest value.
	r := newRig(t, 8, 2, 16)
	pid := r.seedPage(t, 0)
	const rounds = 50
	off := int64(page.HeaderSize)
	for i := 0; i < rounds; i++ {
		for _, n := range r.nodes {
			err := n.ReadModifyWrite(r.clk, pid, off, 8, func(b []byte) {
				v := binary.LittleEndian.Uint64(b)
				binary.LittleEndian.PutUint64(b, v+1)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	buf := make([]byte, 8)
	if err := r.nodes[0].Read(r.clk, pid, off, buf); err != nil {
		t.Fatal(err)
	}
	got := binary.LittleEndian.Uint64(buf)
	if got != rounds*2 {
		t.Fatalf("counter = %d, want %d (lost updates)", got, rounds*2)
	}
}

func TestRecycleSetsRemovalAndNodeRefetches(t *testing.T) {
	r := newRig(t, 2, 1, 16) // 2-frame DBP
	n := r.nodes[0]
	p1 := r.seedPage(t, 1)
	p2 := r.seedPage(t, 2)
	p3 := r.seedPage(t, 3)
	buf := make([]byte, 8)
	for _, pid := range []uint64{p1, p2} {
		if err := n.Read(r.clk, pid, 4096, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Third page forces a recycle of p1 (LRU).
	if err := n.Read(r.clk, p3, 4096, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 3 {
		t.Fatalf("p3 contents %#x", buf[0])
	}
	// p1's metadata is stale: the removal flag must be honoured and the
	// page re-fetched (recycling p2 to make room).
	if err := n.Read(r.clk, p1, 4096, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Fatalf("refetched p1 contents %#x", buf[0])
	}
	if n.Stats().Removals == 0 {
		t.Fatal("removal flag never honoured")
	}
	if r.fusion.ResidentPages() != 2 {
		t.Fatalf("resident = %d", r.fusion.ResidentPages())
	}
}

func TestRecycleWritesDirtyPageToStorage(t *testing.T) {
	r := newRig(t, 2, 1, 16)
	n := r.nodes[0]
	p1 := r.seedPage(t, 1)
	if err := n.Write(r.clk, p1, 4096, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	// Force p1 out.
	p2, p3 := r.seedPage(t, 2), r.seedPage(t, 3)
	buf := make([]byte, 1)
	n.Read(r.clk, p2, 0, buf)
	n.Read(r.clk, p3, 0, buf)
	// Storage must hold the update.
	img := make([]byte, page.Size)
	if err := r.store.ReadPage(r.clk, p1, img); err != nil {
		t.Fatal(err)
	}
	if img[4096] != 0xEE {
		t.Fatal("recycled dirty page lost its update")
	}
}

func TestMetadataBufferReclaim(t *testing.T) {
	// A node with 2 metadata slots touching 3 pages must reclaim slots of
	// recycled pages.
	r := newRig(t, 2, 1, 2)
	n := r.nodes[0]
	pids := []uint64{r.seedPage(t, 1), r.seedPage(t, 2), r.seedPage(t, 3)}
	buf := make([]byte, 1)
	for _, pid := range pids {
		if err := n.Read(r.clk, pid, 4096, buf); err != nil {
			t.Fatal(err)
		}
	}
	if n.Stats().GetPageRPCs < 3 {
		t.Fatalf("getpage rpcs = %d", n.Stats().GetPageRPCs)
	}
}

// --- RDMA-MP baseline --------------------------------------------------------

type rdmaRig struct {
	fusion *RDMAFusion
	nodes  []*RDMANode
	store  *storage.Store
	clk    *simclock.Clock
}

func newRDMARig(t *testing.T, dbpPages, nnodes, lbpPages int) *rdmaRig {
	t.Helper()
	store := storage.New(storage.Config{})
	fusion := NewRDMAFusion(dbpPages, store)
	r := &rdmaRig{fusion: fusion, store: store, clk: simclock.New()}
	for i := 0; i < nnodes; i++ {
		name := fmt.Sprintf("rnode-%d", i)
		r.nodes = append(r.nodes, NewRDMANode(name, fusion, rdma.NewNIC(name, 0, 0), lbpPages))
	}
	return r
}

func (r *rdmaRig) seedPage(t *testing.T, fill byte) uint64 {
	t.Helper()
	id := r.store.AllocPageID()
	img := make([]byte, page.Size)
	for i := page.HeaderSize; i < len(img); i++ {
		img[i] = fill
	}
	if err := r.store.WritePage(r.clk, id, img); err != nil {
		t.Fatal(err)
	}
	return id
}

func TestRDMAMPInvalidationPreventsStaleReads(t *testing.T) {
	r := newRDMARig(t, 8, 2, 4)
	pid := r.seedPage(t, 0x11)
	a, b := r.nodes[0], r.nodes[1]
	buf := make([]byte, 64)
	if err := b.Read(r.clk, pid, 4096, buf); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(r.clk, pid, 4096, bytes.Repeat([]byte{0x22}, 64)); err != nil {
		t.Fatal(err)
	}
	if b.Stats().Invalidations != 1 {
		t.Fatalf("invalidations = %d", b.Stats().Invalidations)
	}
	if err := b.Read(r.clk, pid, 4096, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x22 {
		t.Fatalf("stale read after invalidation: %#x", buf[0])
	}
}

func TestRDMAMPWithoutInvalidationReadsStale(t *testing.T) {
	r := newRDMARig(t, 8, 2, 4)
	r.fusion.DisableInvalidation = true
	pid := r.seedPage(t, 0x11)
	a, b := r.nodes[0], r.nodes[1]
	buf := make([]byte, 64)
	b.Read(r.clk, pid, 4096, buf)
	a.Write(r.clk, pid, 4096, bytes.Repeat([]byte{0x22}, 64))
	b.Read(r.clk, pid, 4096, buf)
	if buf[0] != 0x11 {
		t.Fatalf("expected stale read, got %#x", buf[0])
	}
}

func TestSyncGranularityAmplification(t *testing.T) {
	// The paper's core sharing claim: a small update costs the RDMA design
	// a full 16 KB page push (plus the earlier 16 KB fetch), while the CXL
	// design moves only the dirty cache lines.
	rc := newRig(t, 8, 2, 16)
	pid := rc.seedPage(t, 0)
	// Warm both nodes.
	buf := make([]byte, 8)
	rc.nodes[0].Read(rc.clk, pid, 4096, buf)
	rc.nodes[1].Read(rc.clk, pid, 4096, buf)
	linkBefore := rc.topo.Leaf(0).Fabric().Stats().Units
	if err := rc.nodes[0].Write(rc.clk, pid, 4096, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	cxlBytes := rc.topo.Leaf(0).Fabric().Stats().Units - linkBefore

	rr := newRDMARig(t, 8, 2, 4)
	rpid := rr.seedPage(t, 0)
	rr.nodes[0].Read(rr.clk, rpid, 4096, buf)
	rr.nodes[1].Read(rr.clk, rpid, 4096, buf)
	nicBefore := rr.nodes[0].NIC().Bandwidth().Stats().Units
	if err := rr.nodes[0].Write(rr.clk, rpid, 4096, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	rdmaBytes := rr.nodes[0].NIC().Bandwidth().Stats().Units - nicBefore

	if rdmaBytes < page.Size {
		t.Fatalf("RDMA write moved %d bytes; expected a full page push", rdmaBytes)
	}
	if cxlBytes*10 > rdmaBytes {
		t.Fatalf("CXL sync moved %d bytes vs RDMA %d — amplification gap missing", cxlBytes, rdmaBytes)
	}
}

func TestSharedWriteLatencyShape(t *testing.T) {
	// Per-operation virtual cost of a shared point-update: CXL must be
	// substantially cheaper (the fig. 11 mechanism).
	rc := newRig(t, 8, 2, 16)
	pid := rc.seedPage(t, 0)
	buf := make([]byte, 8)
	rc.nodes[0].Read(rc.clk, pid, 4096, buf)
	rc.nodes[1].Read(rc.clk, pid, 4096, buf)
	t0 := rc.clk.Now()
	for i := 0; i < 10; i++ {
		if err := rc.nodes[0].Write(rc.clk, pid, 4096, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	cxlPerOp := (rc.clk.Now() - t0) / 10

	rr := newRDMARig(t, 8, 2, 4)
	rpid := rr.seedPage(t, 0)
	rr.nodes[0].Read(rr.clk, rpid, 4096, buf)
	rr.nodes[1].Read(rr.clk, rpid, 4096, buf)
	t1 := rr.clk.Now()
	for i := 0; i < 10; i++ {
		if err := rr.nodes[0].Write(rr.clk, rpid, 4096, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	rdmaPerOp := (rr.clk.Now() - t1) / 10
	if cxlPerOp >= rdmaPerOp {
		t.Fatalf("CXL shared write %d ns not cheaper than RDMA %d ns", cxlPerOp, rdmaPerOp)
	}
}

func TestFusionAccessorsAndExplicitRecycle(t *testing.T) {
	r := newRig(t, 4, 1, 16)
	if r.fusion.CapacityPages() != 4 {
		t.Fatalf("capacity = %d", r.fusion.CapacityPages())
	}
	p1 := r.seedPage(t, 1)
	buf := make([]byte, 8)
	if err := r.nodes[0].Read(r.clk, p1, 4096, buf); err != nil {
		t.Fatal(err)
	}
	if r.fusion.GetCalls() != 1 {
		t.Fatalf("get calls = %d", r.fusion.GetCalls())
	}
	// Explicit background-recycle step frees the only (unlocked) page.
	if err := r.fusion.Recycle(r.clk); err != nil {
		t.Fatal(err)
	}
	if r.fusion.ResidentPages() != 0 {
		t.Fatal("recycle left the page resident")
	}
	// The node's next access honours the removal flag and re-fetches.
	if err := r.nodes[0].Read(r.clk, p1, 4096, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 || r.nodes[0].Stats().Removals != 1 {
		t.Fatalf("refetch after explicit recycle: byte=%#x removals=%d", buf[0], r.nodes[0].Stats().Removals)
	}
}

func TestRDMANodeReadModifyWrite(t *testing.T) {
	r := newRDMARig(t, 8, 2, 4)
	pid := r.seedPage(t, 0)
	for i := 0; i < 10; i++ {
		n := r.nodes[i%2]
		err := n.ReadModifyWrite(r.clk, pid, 4096, 8, func(b []byte) { b[0]++ })
		if err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 8)
	if err := r.nodes[0].Read(r.clk, pid, 4096, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 10 {
		t.Fatalf("RMW counter = %d, want 10", buf[0])
	}
	if r.fusion.GetCalls() == 0 {
		t.Fatal("get calls not counted")
	}
}

func TestRDMAFusionFlushDirty(t *testing.T) {
	r := newRDMARig(t, 8, 1, 4)
	pid := r.seedPage(t, 0x3C)
	if err := r.nodes[0].Write(r.clk, pid, 4096, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	var barrierLSN *uint64
	if err := r.fusion.FlushDirty(r.clk, func(clk *simclock.Clock, lsn uint64) { barrierLSN = &lsn }); err != nil {
		t.Fatal(err)
	}
	if barrierLSN == nil {
		t.Fatal("flush barrier never invoked")
	}
	img := make([]byte, page.Size)
	if err := r.store.ReadPage(r.clk, pid, img); err != nil {
		t.Fatal(err)
	}
	if img[4096] != 0xAA {
		t.Fatal("dirty DBP page not checkpointed to storage")
	}
}
