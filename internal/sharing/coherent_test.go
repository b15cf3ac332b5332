package sharing

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simcpu"
)

// TestCoherentNodeWithoutSoftwareProtocol: a node whose cache sits in a
// simcpu.Domain reads a peer's write with no invalid flags, no acks, no
// publication flush — the trace holds lock events and nothing else.
func TestCoherentNodeWithoutSoftwareProtocol(t *testing.T) {
	reg := obs.New(obs.Options{})
	r := buildRig(t, 8, 2, 64, simcpu.NewDomain(0), reg)
	pid := r.seedPage(t, 0x11)
	a, b := r.nodes[0], r.nodes[1]
	buf := make([]byte, 64)
	if err := b.Read(r.clk, pid, 4096, buf); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(r.clk, pid, 4096, bytes.Repeat([]byte{0x22}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := b.ReadModifyWrite(r.clk, pid, 4096, make([]byte, 64), func(p []byte) { copy(buf, p) }); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x22 {
		t.Fatalf("stale read under hardware coherency: %#x", buf[0])
	}
	// And crucially: ZERO software invalidations happened.
	if b.Stats().Invalidations != 0 {
		t.Fatal("coherent node used the software invalid-flag protocol")
	}
	events := reg.Events()
	if len(events) == 0 {
		t.Fatal("no events traced")
	}
	for _, e := range events {
		if strings.HasPrefix(e.Type, "coherency.") {
			t.Fatalf("coherent regime emitted software-protocol event %+v", e)
		}
	}
}

func TestCoherentNodeCountersInterleaved(t *testing.T) {
	r := newCoherentRig(t, 8, 3)
	pid := r.seedPage(t, 0)
	const rounds = 30
	off := int64(page.HeaderSize)
	for i := 0; i < rounds; i++ {
		for _, n := range r.nodes {
			err := n.ReadModifyWrite(r.clk, pid, off, make([]byte, 8), func(b []byte) {
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

func TestCoherentNodeCheaperSharedWriteThanSoftware(t *testing.T) {
	// The projection claim: removing the software protocol shortens the
	// shared-write critical path.
	hw := newCoherentRig(t, 8, 4)
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

func TestCoherentNodeRemovalStillHonoured(t *testing.T) {
	// Frame recycling is capacity management, not coherency: the removal
	// flag path must still work in the coherent regime.
	r := newCoherentRig(t, 2, 1)
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
		t.Fatal("removal flag never honoured by a coherent node")
	}
}
