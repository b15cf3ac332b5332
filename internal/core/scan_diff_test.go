package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simcpu"
	"polarcxlmem/internal/simmem"
	"polarcxlmem/internal/storage"
)

type openFunc func(*simclock.Clock, *cxl.HostPort, *simmem.Region, *simcpu.Cache, *storage.Store) (*CXLPool, *ScanReport, error)

// crashState builds one post-crash pool state on a fresh rig; shows
// reports whether a scan of it saw what the state is about.
type crashState struct {
	name   string
	blocks int64
	build  func(t *testing.T, r *rig)
	shows  func(rep *ScanReport) bool
}

func rebuilt(rep *ScanReport) bool { return !rep.LRULock && rep.LRURebuilt }

// getRelease loads page id and releases it.
func getRelease(t *testing.T, r *rig, id uint64) {
	t.Helper()
	f, err := r.pool.Get(r.clk, id, buffer.Read)
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
}

// loadPages seeds n pages in storage and loads each into the pool.
func loadPages(t *testing.T, r *rig, n int) []uint64 {
	t.Helper()
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = r.seed(t, int64(i), fmt.Sprintf("v%d", i))
		getRelease(t, r, ids[i])
	}
	return ids
}

// storeWord overwrites one raw word of the region.
func storeWord(t *testing.T, r *rig, off int64, v uint64) {
	t.Helper()
	if err := r.pool.Region().Store64Raw(off, v); err != nil {
		t.Fatal(err)
	}
}

// loadWord reads one raw word of the region.
func loadWord(t *testing.T, r *rig, off int64) uint64 {
	t.Helper()
	v, err := r.pool.Region().Load64Raw(off)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

var crashStates = []crashState{
	{"clean", 16, func(t *testing.T, r *rig) { loadPages(t, r, 6) },
		func(rep *ScanReport) bool { return len(rep.Blocks) == 6 && !rep.LRURebuilt && rep.FreeRebuilt == 10 }},
	{"lru-lock-mid-splice", 8, func(t *testing.T, r *rig) {
		ids := loadPages(t, r, 4)
		boom := errors.New("crash injected")
		r.pool.SetHook(func(step string) error {
			if step == "lru-mid-splice" {
				return boom
			}
			return nil
		})
		var err error
		for i := 0; i < 40 && err == nil; i++ {
			var f buffer.Frame
			if f, err = r.pool.Get(r.clk, ids[i%4], buffer.Read); err == nil {
				f.Release()
			}
		}
		if !errors.Is(err, boom) {
			t.Fatalf("hook never fired: %v", err)
		}
	}, func(rep *ScanReport) bool { return rep.LRULock && rep.LRURebuilt }},
	{"broken-back-pointer", 8, func(t *testing.T, r *rig) {
		loadPages(t, r, 4)
		second := loadWord(t, r, blockOff(int64(loadWord(t, r, hInuseHead)))+mNext)
		storeWord(t, r, blockOff(int64(second))+mPrev, 7)
	}, rebuilt},
	{"wrong-inuse-count", 8, func(t *testing.T, r *rig) {
		loadPages(t, r, 3)
		storeWord(t, r, hInuseCount, 99)
		// Tied and unordered LSNs, for the rebuild's stable descending sort.
		for i, idx := 0, loadWord(t, r, hInuseHead); idx != 0; i, idx = i+1, loadWord(t, r, blockOff(int64(idx))+mNext) {
			storeWord(t, r, blockOff(int64(idx))+mLSN, []uint64{5, 9, 5}[i])
		}
	}, rebuilt},
	{"orphaned-free-block", 8, func(t *testing.T, r *rig) {
		loadPages(t, r, 2)
		// A pop torn after the head moved: the old head is on no list and
		// keeps stale words, which the rebuild must clear (all but its LSN).
		h := int64(loadWord(t, r, hFreeHead))
		storeWord(t, r, hFreeHead, loadWord(t, r, blockOff(h)+mNext))
		for _, w := range [][2]int64{{mPageID, 0xdead}, {mLock, 1}, {mPrev, 5}, {mLSN, 42}} {
			storeWord(t, r, blockOff(h)+w[0], uint64(w[1]))
		}
	}, func(rep *ScanReport) bool { return !rep.LRURebuilt && rep.FreeRebuilt == 6 }},
	{"locked-and-dirty", 8, func(t *testing.T, r *rig) {
		ids := loadPages(t, r, 4)
		f, err := r.pool.Get(r.clk, ids[0], buffer.Write)
		if err != nil {
			t.Fatal(err)
		}
		if err := updateVal(f, 0, []byte("done")); err != nil {
			t.Fatal(err)
		}
		f.MarkDirty()
		f.Release()
		nf, err := r.pool.NewPage(r.clk)
		if err != nil {
			t.Fatal(err)
		}
		nf.Release()
		// Crash holding ids[1]'s write lock.
		if f, err = r.pool.Get(r.clk, ids[1], buffer.Write); err != nil {
			t.Fatal(err)
		}
		if err := updateVal(f, 1, []byte("half")); err != nil {
			t.Fatal(err)
		}
	}, func(rep *ScanReport) bool {
		locked, dirty := 0, 0
		for _, b := range rep.Blocks {
			locked += btoi(b.Locked)
			dirty += btoi(b.Dirty)
		}
		return len(rep.Blocks) == 5 && locked == 1 && dirty == 2
	}},
	{"empty", 4, func(t *testing.T, r *rig) {},
		func(rep *ScanReport) bool { return len(rep.Blocks) == 0 && rep.FreeRebuilt == 4 }},
	{"full", 6, func(t *testing.T, r *rig) {
		ids := loadPages(t, r, 10)
		for i, id := range ids[4:] {
			f, err := r.pool.Get(r.clk, id, buffer.Write)
			if err != nil {
				t.Fatal(err)
			}
			if err := updateVal(f, int64(i+4), []byte("upd")); err != nil {
				t.Fatal(err)
			}
			f.MarkDirty()
			f.Release()
		}
	}, func(rep *ScanReport) bool { return len(rep.Blocks) == 6 && rep.FreeRebuilt == 0 }},
	{"duplicate-and-zero-ids", 8, func(t *testing.T, r *rig) {
		loadPages(t, r, 4)
		head := int64(loadWord(t, r, hInuseHead))
		next := int64(loadWord(t, r, blockOff(head)+mNext))
		storeWord(t, r, blockOff(next)+mPageID, loadWord(t, r, blockOff(head)+mPageID))
		storeWord(t, r, blockOff(int64(loadWord(t, r, blockOff(next)+mNext)))+mPageID, 0)
	}, func(rep *ScanReport) bool {
		seen := make(map[uint64]bool)
		dup, zero := false, false
		for _, b := range rep.Blocks {
			dup, zero = dup || seen[b.PageID], zero || b.PageID == 0
			seen[b.PageID] = true
		}
		return dup && zero
	}},
}

// scanResult is everything a post-crash open decides.
type scanResult struct {
	rep      *ScanReport
	err      error
	clock    int64
	region   []byte
	resident int
	frames   []string // per scanned block: id, slot, dirty
	dirty    []uint64
	ids      []uint64
	fsck     FsckReport
}

// openCrashed builds st, crashes it, checks both Fsck decoders agree on the
// crashed pool, and reopens the region with open.
func openCrashed(t *testing.T, st crashState, open openFunc) scanResult {
	t.Helper()
	r := newRig(t, st.blocks)
	st.build(t, r)
	r.pool.SetHook(nil)
	crashed := r.pool
	crashed.Crash()
	if got, want := crashed.Fsck(), refFsck(crashed); !reflect.DeepEqual(got, want) {
		t.Fatalf("crashed pool: Fsck %+v, reference %+v", got, want)
	}
	host := r.reconnect(t)
	clk := simclock.NewAt(r.clk.Now())
	region, err := host.Reattach(clk, "db0")
	if err != nil {
		t.Fatal(err)
	}
	var res scanResult
	var p *CXLPool
	p, res.rep, res.err = open(clk, host, region, host.NewCache("db0", 1<<20), r.store)
	res.clock = clk.Now()
	res.region = make([]byte, region.Size())
	if err := region.ReadRaw(0, res.region); err != nil {
		t.Fatal(err)
	}
	if p == nil {
		return res
	}
	if len(res.rep.Blocks) == 0 {
		res.rep.Blocks = nil // an empty scan reports no blocks, nil or not
	}
	res.resident = p.Resident()
	for _, b := range res.rep.Blocks {
		fr := p.Table().Lookup(b.PageID)
		res.frames = append(res.frames, fmt.Sprintf("%d:%v:%v", b.PageID, fr.Slot().(*block).idx, fr.Dirty()))
	}
	for _, fr := range p.Table().DirtyFrames() {
		res.dirty = append(res.dirty, fr.ID())
	}
	res.ids = slices.Clone(p.cst.ids)
	res.fsck = p.Fsck()
	if ref := refFsck(p); !reflect.DeepEqual(res.fsck, ref) {
		t.Fatalf("reopened pool: Fsck %+v, reference %+v", res.fsck, ref)
	}
	return res
}

// TestOpenMatchesReference checks the line-at-a-time scan against the
// word-by-word reference on every crash state: the same report, frame
// table, region bytes, clock, and Fsck verdict from both decoders.
func TestOpenMatchesReference(t *testing.T) {
	for _, st := range crashStates {
		t.Run(st.name, func(t *testing.T) {
			want := openCrashed(t, st, refOpen)
			got := openCrashed(t, st, Open)
			if (got.err == nil) != (want.err == nil) {
				t.Fatalf("Open error %v, reference %v", got.err, want.err)
			}
			if !bytes.Equal(got.region, want.region) {
				for off := range got.region {
					if got.region[off] != want.region[off] {
						t.Fatalf("region bytes differ first at offset %d: %#x, reference %#x", off, got.region[off], want.region[off])
					}
				}
			}
			got.region, want.region = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Open:\n%+v\nreference:\n%+v", got, want)
			}
			if got.err != nil || !st.shows(got.rep) {
				t.Fatalf("the state is not what it claims: %v %+v", got.err, got.rep)
			}
			if !got.fsck.OK() && st.name != "duplicate-and-zero-ids" {
				t.Fatalf("reopened pool fails fsck: %v", got.fsck.Problems)
			}
		})
	}
}

// TestOpenRewritesFreeLinesKeepingLSN pins the orphan's rewrite: the
// rebuilt free line keeps its LSN word and clears the stale ones.
func TestOpenRewritesFreeLinesKeepingLSN(t *testing.T) {
	st := crashStates[slices.IndexFunc(crashStates, func(s crashState) bool { return s.name == "orphaned-free-block" })]
	res := openCrashed(t, st, Open)
	word := func(idx, off int64) uint64 { return binary.LittleEndian.Uint64(res.region[blockOff(idx)+off:]) }
	for i := int64(1); i <= st.blocks; i++ {
		if word(i, mLSN) != 42 {
			continue
		}
		for _, off := range []int64{mPageID, mLock, mPrev, mFlags} {
			if w := word(i, off); w != 0 {
				t.Fatalf("orphan block %d word %d = %d, want 0", i, off, w)
			}
		}
		return
	}
	t.Fatal("the orphan's LSN word was not kept")
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// BenchmarkOpen times the restart scan of a 2,048-block pool with 60% of
// its blocks in use, half of those dirty.
func BenchmarkOpen(b *testing.B) {
	const blocks, inUse = 2048, 1229
	r := newRig(b, blocks)
	for i := 0; i < inUse; i++ {
		if i == inUse/2 {
			if err := r.pool.FlushAll(r.clk); err != nil {
				b.Fatal(err)
			}
		}
		f, err := r.pool.NewPage(r.clk)
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
	r.pool.Crash()
	host := r.reconnect(b)
	clk := simclock.NewAt(r.clk.Now())
	region, err := host.Reattach(clk, "db0")
	if err != nil {
		b.Fatal(err)
	}
	cache := host.NewCache("db0", 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Open(clk, host, region, cache, r.store); err != nil {
			b.Fatal(err)
		}
	}
}
