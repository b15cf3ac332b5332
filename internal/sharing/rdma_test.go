package sharing

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
)

// The RDMA-MP baseline's crash, checkpoint and bounds behaviour.

// rdmaPush writes img over pageID's DBP frame through n's NIC: the
// full-page push a write-lock holder makes before it unlocks.
func rdmaPush(t *testing.T, r *rdmaRig, n *RDMANode, pageID uint64, img []byte) {
	t.Helper()
	if err := r.fusion.rdmaPage(r.clk, n.nic, pageID, img, true); err != nil {
		t.Fatal(err)
	}
}

// TestRDMAEvictWriteHeldKeepsPushedImage: an RDMA primary dies holding a
// page's write lock after its full-page push, before the unlock that would
// have invalidated its peers. An RDMA push is atomic, so eviction keeps the
// pushed DBP image (no storage re-read), delivers the invalidations the
// dead node owed, marks the page dirty and frees the lock.
func TestRDMAEvictWriteHeldKeepsPushedImage(t *testing.T) {
	r := newRDMARig(t, 8, 3, 4)
	pid := r.seedPage(t, 0x11)
	a, b, c := r.nodes[0], r.nodes[1], r.nodes[2]
	buf := make([]byte, 64)
	for _, n := range []*RDMANode{b, c} {
		if err := n.Read(r.clk, pid, 4096, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.fusion.Lock(r.clk, a.name, pid, true); err != nil {
		t.Fatal(err)
	}
	ent, err := a.localPage(r.clk, pid)
	if err != nil {
		t.Fatal(err)
	}
	copy(ent.img[4096:], bytes.Repeat([]byte{0x22}, 64))
	rdmaPush(t, r, a, pid, ent.img)
	r.fusion.CrashNode(a.name)
	if err := r.fusion.EvictNode(r.clk, a.name); err != nil {
		t.Fatal(err)
	}

	if r.fusion.pages[pid].lk.holds(a.name) {
		t.Fatal("eviction left the dead node's write lock held")
	}
	for _, n := range []*RDMANode{b, c} {
		if got := n.Stats().Invalidations; got != 1 {
			t.Fatalf("%s: %d invalidations delivered, want the 1 the dead writer owed", n.name, got)
		}
		if err := n.Read(r.clk, pid, 4096, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0x22 || buf[63] != 0x22 {
			t.Fatalf("%s reads %#x after eviction, want the pushed 0x22", n.name, buf[0])
		}
	}
	img := make([]byte, page.Size)
	if err := r.store.ReadPage(r.clk, pid, img); err != nil {
		t.Fatal(err)
	}
	if img[4096] != 0x11 {
		t.Fatalf("storage holds %#x before any checkpoint", img[4096])
	}
	// The pushed image diverged from storage: the next checkpoint writes it.
	if err := r.fusion.FlushDirty(r.clk, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.store.ReadPage(r.clk, pid, img); err != nil {
		t.Fatal(err)
	}
	if img[4096] != 0x22 {
		t.Fatalf("checkpoint wrote %#x, want the pushed 0x22", img[4096])
	}
}

// TestRawPageSpanBounds: a raw page access whose span leaves the page is
// refused on both node types before any lock is taken, so it charges
// nothing — the DBP holds frames back to back, and a span past one page's
// end would land in another page's frame without that page's lock.
func TestRawPageSpanBounds(t *testing.T) {
	cxlRig := newRig(t, 8, 1, 16)
	rdmaRig := newRDMARig(t, 8, 1, 4)
	nodes := []struct {
		name string
		clk  *simclock.Clock
		pid  uint64
		n    interface {
			Read(clk *simclock.Clock, pageID uint64, off int64, buf []byte) error
			Write(clk *simclock.Clock, pageID uint64, off int64, data []byte) error
			ReadModifyWrite(clk *simclock.Clock, pageID uint64, off int64, buf []byte, fn func([]byte)) error
		}
	}{
		{"cxl", cxlRig.clk, cxlRig.seedPage(t, 0x11), cxlRig.nodes[0]},
		{"rdma", rdmaRig.clk, rdmaRig.seedPage(t, 0x11), rdmaRig.nodes[0]},
	}
	for _, nd := range nodes {
		// Warm the page so a refused call has no first-touch cost to hide.
		if err := nd.n.Read(nd.clk, nd.pid, 0, make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
		for _, sp := range []struct {
			name string
			off  int64
		}{{"past-end", page.Size + 100}, {"straddles-end", page.Size - 4}, {"negative", -8}} {
			buf := make([]byte, 8)
			for _, op := range []struct {
				name string
				call func() error
			}{
				{"read", func() error { return nd.n.Read(nd.clk, nd.pid, sp.off, buf) }},
				{"write", func() error { return nd.n.Write(nd.clk, nd.pid, sp.off, buf) }},
				{"rmw", func() error {
					return nd.n.ReadModifyWrite(nd.clk, nd.pid, sp.off, buf, func(b []byte) { b[0]++ })
				}},
			} {
				t.Run(nd.name+"/"+sp.name+"/"+op.name, func(t *testing.T) {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("panicked: %v", p)
						}
					}()
					before := nd.clk.Now()
					if err := op.call(); err == nil {
						t.Fatal("out-of-page span accepted")
					}
					if d := nd.clk.Now() - before; d != 0 {
						t.Fatalf("refused span charged %d ns: it must be checked before any lock", d)
					}
				})
			}
		}
	}
}

// TestRDMAFlushDirtyPageOrder: the RDMA checkpoint writes dirty frames in
// page-id order, as the CXL one does, so a fault plan replays the same
// operation sequence. Pages stamped with ascending LSNs in page-id order
// must reach the write-ahead barrier ascending.
func TestRDMAFlushDirtyPageOrder(t *testing.T) {
	store := storage.New(storage.Config{})
	p := NewRDMASharedPool("n0", NewRDMAFusion(64, store), rdma.NewNIC("n0", 0, 0), 32, nil)
	clk := simclock.New()
	const n = 24
	for i := 0; i < n; i++ {
		id := store.AllocPageID()
		if err := store.WritePage(clk, id, make([]byte, page.Size)); err != nil {
			t.Fatal(err)
		}
		f, err := p.Get(clk, id, buffer.Write)
		if err != nil {
			t.Fatal(err)
		}
		var lsn [8]byte
		binary.LittleEndian.PutUint64(lsn[:], uint64(100+i))
		if err := writeAt(f, 8, lsn[:]); err != nil {
			t.Fatal(err)
		}
		if err := f.Release(); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	p.SetFlushBarrier(func(_ *simclock.Clock, lsn uint64) { got = append(got, lsn) })
	if err := p.FlushAll(clk); err != nil {
		t.Fatal(err)
	}
	if len(got) != n || !slices.IsSorted(got) {
		t.Fatalf("checkpoint barrier saw LSNs %v, want %d ascending", got, n)
	}
}

// TestRDMADeadCallerRejected: once a baseline node is declared dead, its
// RPCs are refused with ErrNodeEvicted before any round trip is charged,
// and its write lock stays held until EvictNode reclaims it — an unlock
// from the dead node must not release it.
func TestRDMADeadCallerRejected(t *testing.T) {
	r := newRDMARig(t, 8, 2, 4)
	pid := r.seedPage(t, 0x11)
	a := r.nodes[0]
	if err := a.Read(r.clk, pid, 0, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := r.fusion.Lock(r.clk, a.name, pid, true); err != nil {
		t.Fatal(err)
	}
	r.fusion.CrashNode(a.name)
	calls := []struct {
		name string
		call func() error
	}{
		{"unlock-write", func() error { return r.fusion.UnlockWrite(r.clk, a.name, pid) }},
		{"unlock-read", func() error { return r.fusion.UnlockRead(r.clk, a.name, pid) }},
		{"lock", func() error { return r.fusion.Lock(r.clk, a.name, pid, false) }},
		{"read", func() error { return a.Read(r.clk, pid, 0, make([]byte, 8)) }},
		{"write", func() error { return a.Write(r.clk, pid, 0, []byte{1}) }},
	}
	for _, c := range calls {
		before := r.clk.Now()
		if err := c.call(); !errors.Is(err, ErrNodeEvicted) {
			t.Errorf("%s from a dead node: err = %v, want ErrNodeEvicted", c.name, err)
		}
		if d := r.clk.Now() - before; d != 0 {
			t.Errorf("%s from a dead node charged %d ns", c.name, d)
		}
	}
	if !r.fusion.pages[pid].lk.writerIs(a.name) {
		t.Fatal("the dead node's write lock was released before eviction")
	}
	if err := r.fusion.EvictNode(r.clk, a.name); err != nil {
		t.Fatal(err)
	}
	if r.fusion.pages[pid].lk.holds(a.name) {
		t.Fatal("eviction left the dead node's write lock held")
	}
}

// TestRDMARecycleDeliversRemoval: a full RDMA DBP recycles its
// least-recently-requested unlocked frame, as the CXL one does: a dirty
// victim is written back to storage first, and every node holding a local
// copy of it gets a removal message and drops that copy.
func TestRDMARecycleDeliversRemoval(t *testing.T) {
	r := newRDMARig(t, 2, 2, 4)
	p1, p2, p3 := r.seedPage(t, 0x11), r.seedPage(t, 0x11), r.seedPage(t, 0x11)
	a, b := r.nodes[0], r.nodes[1]
	if err := b.Write(r.clk, p1, 4096, []byte{0x22}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if err := b.Read(r.clk, p2, 4096, buf); err != nil {
		t.Fatal(err)
	}
	if err := a.Read(r.clk, p3, 4096, buf); err != nil {
		t.Fatalf("read into a full DBP: %v", err)
	}
	if got := b.Stats().Invalidations; got != 1 {
		t.Fatalf("%s dropped %d copies, want the recycled page's 1", b.name, got)
	}
	img := make([]byte, page.Size)
	if err := r.store.ReadPage(r.clk, p1, img); err != nil {
		t.Fatal(err)
	}
	if img[4096] != 0x22 {
		t.Fatalf("recycled dirty page reached storage as %#x, want 0x22", img[4096])
	}
	if err := b.Read(r.clk, p1, 4096, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x22 {
		t.Fatalf("re-fetched recycled page reads %#x, want 0x22", buf[0])
	}
}
