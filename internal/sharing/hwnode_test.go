package sharing

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simcpu"
	"polarcxlmem/internal/storage"
)

// hwRig builds a CXL 3.0 deployment: all node caches share one coherency
// domain.
type hwRig struct {
	topo   *cxl.Topology
	fusion *Fusion
	nodes  []*HWNode
	store  *storage.Store
	clk    *simclock.Clock
}

func newHWRig(t *testing.T, dbpPages, nnodes int) *hwRig {
	t.Helper()
	dbpBytes := int64(dbpPages) * page.Size
	flagBytes := int64(64) * flagEntrySize
	topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: dbpBytes + int64(nnodes)*flagBytes + 4096})
	clk := simclock.New()
	store := storage.New(storage.Config{})
	dep, err := NewDeployment(clk, topo, "fusion-host", dbpPages, store)
	if err != nil {
		t.Fatal(err)
	}
	dom := simcpu.NewDomain(0)
	r := &hwRig{topo: topo, fusion: dep.Fusion, store: store, clk: clk}
	for i := 0; i < nnodes; i++ {
		p, err := dep.AttachPrimary(clk, fmt.Sprintf("hw-%d", i), 0, flagBytes, 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		dom.Attach(p.Cache)
		r.nodes = append(r.nodes, NewHWNode(p.Name, dep.Fusion, p.Cache, p.Flags))
	}
	return r
}

func (r *hwRig) seedPage(t *testing.T, fill byte) uint64 {
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

func TestHWNodeCoherentWithoutSoftwareProtocol(t *testing.T) {
	r := newHWRig(t, 8, 2)
	pid := r.seedPage(t, 0x11)
	a, b := r.nodes[0], r.nodes[1]
	buf := make([]byte, 64)
	if err := b.Read(r.clk, pid, 4096, buf); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(r.clk, pid, 4096, bytes.Repeat([]byte{0x22}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := b.Read(r.clk, pid, 4096, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x22 {
		t.Fatalf("stale read under hardware coherency: %#x", buf[0])
	}
	// And crucially: ZERO software invalidations happened.
	if b.Stats().Invalidations != 0 {
		t.Fatal("hw node used the software invalid-flag protocol")
	}
}

func TestHWNodeCountersInterleaved(t *testing.T) {
	r := newHWRig(t, 8, 3)
	pid := r.seedPage(t, 0)
	const rounds = 30
	off := int64(page.HeaderSize)
	for i := 0; i < rounds; i++ {
		for _, n := range r.nodes {
			err := n.ReadModifyWrite(r.clk, pid, off, 8, func(b []byte) {
				binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+1)
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
	if got := binary.LittleEndian.Uint64(buf); got != rounds*3 {
		t.Fatalf("counter = %d, want %d", got, rounds*3)
	}
}

func TestHWNodeCheaperSharedWriteThanSoftware(t *testing.T) {
	// The projection claim: removing the software protocol shortens the
	// shared-write critical path.
	hw := newHWRig(t, 8, 4)
	hpid := hw.seedPage(t, 0)
	buf := make([]byte, 8)
	for _, n := range hw.nodes {
		n.Read(hw.clk, hpid, 4096, buf)
	}
	t0 := hw.clk.Now()
	const reps = 20
	for i := 0; i < reps; i++ {
		if err := hw.nodes[i%4].Write(hw.clk, hpid, 4096, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	hwPerOp := (hw.clk.Now() - t0) / reps

	swr := newRig(t, 8, 4, 16)
	spid := swr.seedPage(t, 0)
	for _, n := range swr.nodes {
		n.Read(swr.clk, spid, 4096, buf)
	}
	t1 := swr.clk.Now()
	for i := 0; i < reps; i++ {
		if err := swr.nodes[i%4].Write(swr.clk, spid, 4096, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	swPerOp := (swr.clk.Now() - t1) / reps
	if hwPerOp >= swPerOp {
		t.Fatalf("hw coherent write %d ns not cheaper than software %d ns", hwPerOp, swPerOp)
	}
}

func TestHWNodeRemovalStillHonoured(t *testing.T) {
	// Frame recycling is capacity management, not coherency: the removal
	// flag path must still work on HW nodes.
	r := newHWRig(t, 2, 1)
	n := r.nodes[0]
	p1, p2, p3 := r.seedPage(t, 1), r.seedPage(t, 2), r.seedPage(t, 3)
	buf := make([]byte, 8)
	for _, pid := range []uint64{p1, p2, p3} { // p3 forces a recycle
		if err := n.Read(r.clk, pid, 4096, buf); err != nil {
			t.Fatal(err)
		}
	}
	if buf[0] != 3 {
		t.Fatalf("p3 = %#x", buf[0])
	}
	if err := n.Read(r.clk, p1, 4096, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Fatalf("refetched p1 = %#x", buf[0])
	}
	if n.Stats().Removals == 0 {
		t.Fatal("removal flag never honoured on hw node")
	}
}
