package simcpu

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simmem"
)

// The third diffWorld device is laid out like a core CXL pool: page images
// of corePageSize bytes at corePageBase + k*coreStride, so each spans five
// 4 KiB blocks and the device spans 69, more than the block memo has
// entries.
const (
	corePageBase = 192
	corePageSize = 16 << 10
	coreStride   = corePageSize + 64
	corePages    = 17
	pagedRegion  = 2 // index of that device's region in diffWorld.regions
	// diffLines is the differential test's cache capacity in lines.
	diffLines = 24
)

// diffWorld is one side of the differential test: three devices, the
// regions the operations address, a clock, a link, and the fault plan the
// cache consults. In a fault world the devices consult the plan too, so
// every fill reads line by line; in a run world they have no injector and
// share one bandwidth resource, so spans fill runs of absent lines with
// one device read.
type diffWorld struct {
	devs    []*simmem.Device
	regions []*simmem.Region
	clk     *simclock.Clock
	link    *simclock.Resource
	bw      *simclock.Resource // the devices' shared bandwidth; nil in a fault world
	reg     *obs.Registry      // the devices' mem.cxl.* counters, summed over the three
	plan    *fault.Plan
	devInj  fault.Injector // the devices' injector: plan, or nil in a run world
}

func newDiffWorld(t *testing.T, seed int64, runs bool) *diffWorld {
	t.Helper()
	w := &diffWorld{clk: simclock.New(), link: simclock.NewResource("link", 2e9), plan: diffPlan(seed), reg: obs.New(obs.Options{})}
	if runs {
		w.bw = simclock.NewResource("bw", 4e9)
	} else {
		w.devInj = w.plan
	}
	for i, size := range []int64{11 * blockSize, 13*blockSize + 1000, corePageBase + corePages*coreStride} {
		d := simmem.NewDevice("cxl", size, prof, w.bw, w.reg)
		raw := make([]byte, size)
		rand.New(rand.NewSource(seed + int64(i))).Read(raw)
		if err := d.WholeRegion().WriteRaw(0, raw); err != nil {
			t.Fatal(err)
		}
		d.SetInjector(w.devInj)
		w.devs = append(w.devs, d)
	}
	// The second region starts off a line boundary, so its lines straddle
	// region offsets.
	sub, err := w.devs[1].Region(1000, 13*blockSize)
	if err != nil {
		t.Fatal(err)
	}
	w.regions = []*simmem.Region{w.devs[0].WholeRegion(), sub, w.devs[2].WholeRegion()}
	return w
}

// pagedSpan picks an access to one of the paged region's page images the
// way page code makes them: kind k < 15 is a short field access near the
// page start (header, records) or near its end (slot directory), and a
// flush covers the whole page, as a write-latch release does.
func pagedSpan(rng *rand.Rand, k int) (off int64, n int) {
	base := corePageBase + int64(rng.Intn(corePages))*coreStride
	if k >= 15 {
		return base, corePageSize
	}
	n = 1 + rng.Intn(8)
	if rng.Intn(2) == 0 {
		return base + int64(rng.Intn(256)), n
	}
	return base + int64(corePageSize-n-rng.Intn(256)), n
}

// errFillRead is the injected failure of a line fill's device read.
var errFillRead = errors.New("diff: injected fill read failure")

// diffPlan drops some flush lines, eviction write-backs, whole flush ranges
// and device reads, fails some eviction write-backs and fill reads
// outright, and reverses some flushes. Both sides get an identical plan,
// so their fault points fire at the same operations.
func diffPlan(seed int64) *fault.Plan {
	p := fault.NewPlan(seed)
	for k := int64(3); k < 4000; k += 37 {
		p.DropAt(fault.OpFlushLine, k)
		p.DropAt(fault.OpWriteBack, k+5)
		p.FailAt(fault.OpWriteBack, k+19, fault.ErrInjected)
		p.DropAt(fault.OpMemRead, 11*k)
		p.FailAt(fault.OpMemRead, 11*k+4, errFillRead)
		p.ReverseFlushAt(k / 3)
	}
	for k := int64(7); k < 400; k += 53 {
		p.DropAt(fault.OpFlushRange, k)
	}
	return p
}

// TestCacheMatchesReference drives the slab-backed cache and the map+list
// reference with the same seeded operations over three devices, with a
// small capacity so evictions and block turnover happen constantly, and
// checks that every observable agrees after every operation: returned bytes
// and errors, the clock advance, Stats, the link's stats, the devices' read
// and write counters, ResidentLines, DirtyLines, the resident lines in LRU
// order, and the device contents. The devices' blocks share memo entries
// with each other, and the paged device spans more 4 KiB blocks than the
// block memo has entries, so memoized blocks are displaced and released;
// the paged device makes page code's access pattern. Some operations are bursts of word and span accesses inside one
// Hold. The operations come in phases, in turn a random mix, a long run of
// hits with no eviction, and a burst in which every access misses and
// evicts, with Drops between some of them, and some eviction write-backs fail: the
// victim must stay resident and be the next victim. The last seeds run
// with a stamp limit of a few dozen, so the counter renumbers the lines
// again and again, mid-order included.
func TestCacheMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		runDiff(t, seed, 1, false, true)
	}
	defer func(m uint64) { maxStamp = m }(maxStamp)
	maxStamp = 50
	for seed := int64(7); seed <= 8; seed++ {
		runDiff(t, seed, 1, false, true)
	}
}

// TestRunFillsMatchReference is TestCacheMatchesReference in a run world:
// the devices have no injector, so each run of absent lines a span meets is
// read in one device access and its link bookings are replayed together,
// while the reference still fills line by line. The cache's own
// write-back and flush faults stay armed, a fourth phase makes spans of
// several KiB whose runs are longer than the cache and evict dirty lines
// mid-run, and another host's traffic is queued ahead on the link and the
// device bandwidth now and then, so the order of the bookings shows in the
// clock and in both resources' stats, which are compared too. The last
// seeds run two caches in a coherency domain, where runs are one line.
func TestRunFillsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		runDiff(t, seed, 1, true, true)
	}
	for seed := int64(5); seed <= 6; seed++ {
		runDiff(t, seed, 2, true, true)
	}
}

// TestMaskFlushMatchesReference is TestRunFillsMatchReference with no
// injector on the caches either, so every Flush visits only the dirty
// lines of its range and lets the clean ones go by their block's mask,
// while the reference flushes line by line. The last seed runs two caches
// in a coherency domain.
func TestMaskFlushMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		runDiff(t, seed, 1, true, false)
	}
	runDiff(t, 5, 2, true, false)
}

// TestCoherentCacheMatchesReference is TestCacheMatchesReference for two
// caches in one coherency domain, each operation on one of them: fills
// take a peer's dirty copy and stores back-invalidate peer copies, in the
// cache and in the reference alike.
func TestCoherentCacheMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		runDiff(t, seed, 2, false, true)
	}
}

// diffCase is the caches under test and their references, member by
// member, over their two worlds.
type diffCase struct {
	t      *testing.T
	seed   int64
	wg, wr *diffWorld
	got    []*Cache
	ref    []*refCache
	op     int
	what   string
	g0, r0 int64 // clocks before the operation
	// failedVictims counts write-backs that failed on a victim, each
	// checked to leave the victim resident and next in line.
	failedVictims int
}

// runDiff runs one seed of the differential test: in a run world when runs
// is set, and with the fault plan on the caches when faults is set.
func runDiff(t *testing.T, seed int64, members int, runs, faults bool) {
	t.Helper()
	dc := &diffCase{t: t, seed: seed, wg: newDiffWorld(t, seed, runs), wr: newDiffWorld(t, seed, runs)}
	var dom *Domain
	if members > 1 {
		dom = NewDomain(0)
	}
	for m := range members {
		got := New(fmt.Sprintf("slab%d", m), diffLines*LineSize, 5)
		got.SetInterconnect(dc.wg.link)
		ref := newRefCache(diffLines*LineSize, 5)
		ref.link = dc.wr.link
		if faults {
			got.SetInjector(dc.wg.plan)
			ref.inj = dc.wr.plan
		}
		if dom != nil {
			dom.Attach(got)
		}
		dc.got, dc.ref = append(dc.got, got), append(dc.ref, ref)
	}
	if dom != nil {
		for _, r := range dc.ref {
			r.domain, r.snoopNs = dc.ref, dom.snoopNs
		}
	}
	wg, wr := dc.wg, dc.wr

	rng := rand.New(rand.NewSource(seed))
	phases := 3 // a mix, then a hit run, then a burst
	if runs {
		phases = 4 // and then a run burst
	}
	var phase, streamAt int
	var hot []int64
	for dc.op = 0; dc.op < 3000; dc.op++ {
		if runs && rng.Intn(8) == 0 {
			dc.crossTraffic(rng)
		}
		if dc.op%150 == 0 {
			phase = dc.op / 150 % phases
			hot = hot[:0]
			for range 1 + rng.Intn(diffLines/2) {
				hot = append(hot, rng.Int63n(wg.regions[0].Size()/LineSize)*LineSize)
			}
			if dc.op > 0 && rng.Intn(3) == 0 {
				for i := range dc.got {
					dc.got[i].Drop()
					dc.ref[i].Drop()
				}
			}
		}
		m := rng.Intn(members)
		got, ref := dc.got[m], dc.ref[m]
		if phase > 0 {
			dc.phaseOp(rng, m, phase, hot, &streamAt)
			dc.checkMembers()
			continue
		}
		ri := rng.Intn(len(wg.regions))
		rg, rr := wg.regions[ri], wr.regions[ri]
		size := rg.Size()
		k := rng.Intn(20)
		var off int64
		var n int
		if ri == pagedRegion {
			off, n = pagedSpan(rng, k)
		} else {
			// Mostly short spans; some cross a block boundary, and a
			// flush's may cover several blocks.
			n = 1 + rng.Intn(2*LineSize)
			if rng.Intn(16) == 0 {
				n = 1 + rng.Intn(blockSize+blockSize/2)
			}
			if k >= 15 && rng.Intn(2) == 0 {
				n = 1 + rng.Intn(int(size))
			}
			off = rng.Int63n(size - int64(n) + 1)
		}
		dc.start("")
		var gerr, rerr error
		switch {
		case k < 8:
			dc.what = "read"
			gb, rb := make([]byte, n), make([]byte, n)
			gerr, rerr = read(got, wg.clk, rg, off, gb), ref.access(wr.clk, rr, off, rb, false)
			if !bytes.Equal(gb, rb) {
				t.Fatalf("seed %d op %d: read [%d,+%d) of region %d returned different bytes", seed, dc.op, off, n, ri)
			}
		case k < 15:
			dc.what = "write"
			data := make([]byte, n)
			rng.Read(data)
			gerr, rerr = write(got, wg.clk, rg, off, data), ref.access(wr.clk, rr, off, data, true)
		case k < 18:
			dc.what = "flush"
			gerr, rerr = got.Flush(wg.clk, rg, off, n), ref.Flush(wr.clk, rr, off, n)
		case k < 19:
			dc.what = "lines-in-range"
			gres, gdirty := got.LinesInRange(rg, off, n)
			rres, rdirty := ref.LinesInRange(rr, off, n)
			if gres != rres || gdirty != rdirty {
				t.Fatalf("seed %d op %d: LinesInRange = %d/%d, reference %d/%d", seed, dc.op, gres, gdirty, rres, rdirty)
			}
		case rng.Intn(4) == 0:
			dc.what = "drop"
			got.Drop()
			ref.Drop()
		default:
			dc.heldBurst(rng, m)
		}
		dc.check(gerr, rerr)
		dc.checkMembers()
		if dc.op%100 == 99 {
			compareDevices(t, wg, wr)
		}
	}
	compareDevices(t, wg, wr)
	if !faults {
		return
	}
	if len(wg.plan.Firings()) == 0 || len(wg.plan.Firings()) != len(wr.plan.Firings()) {
		t.Fatalf("seed %d: %d faults fired, reference %d", seed, len(wg.plan.Firings()), len(wr.plan.Firings()))
	}
	if members == 1 && dc.failedVictims == 0 {
		t.Fatalf("seed %d: no eviction write-back failed", seed)
	}
}

// crossTraffic books another host's request on the link and on the device
// bandwidth of both worlds, starting up to 2 µs ahead of their clock, so the
// next operation's bookings queue behind it.
func (dc *diffCase) crossTraffic(rng *rand.Rand) {
	ahead, units := rng.Int63n(2000), LineSize+rng.Int63n(4*blockSize)
	for _, w := range []*diffWorld{dc.wg, dc.wr} {
		w.link.UseAt(w.clk.Now()+ahead, units)
		w.bw.UseAt(w.clk.Now()+ahead, units)
	}
}

// phaseOp runs one operation of a phase on member m, in a hold of its own.
// Phase 1 is a run of hits: word loads and stores and short reads inside
// the hot lines of region 0, at most half the cache, so once they are
// filled a lone cache evicts nothing. Phase 2 is an eviction burst: a
// line-sized read or write of the next line of a stream over region 1, so
// every access misses and evicts, with no hit in between. Phase 3, in a run
// world, is a run burst: a read or write of 768 B to 8.75 KiB of region 0
// or the paged region, mostly of absent lines, so its runs are longer than
// the cache and each line evicts a line, dirty ones from earlier writes.
func (dc *diffCase) phaseOp(rng *rand.Rand, m, phase int, hot []int64, streamAt *int) {
	got, ref := dc.got[m], dc.ref[m]
	got.Hold()
	defer got.Unhold()
	ri, n := 0, []int{1, 2, 4, 8}[rng.Intn(4)]
	off := hot[rng.Intn(len(hot))] + rng.Int63n(LineSize-int64(n)+1)
	kind := rng.Intn(3)
	if phase == 2 {
		ri, n = 1, LineSize
		off = int64(*streamAt) * LineSize % (dc.wg.regions[1].Size() - LineSize)
		*streamAt++
		kind = 1 + rng.Intn(2)
	}
	if phase == 3 {
		ri = []int{0, pagedRegion}[rng.Intn(2)]
		n = diffLines/2*LineSize + rng.Intn(2*blockSize)
		off = rng.Int63n(dc.wg.regions[ri].Size() - int64(n) + 1)
		kind = 1 + rng.Intn(2)
	}
	rg, rr := dc.wg.regions[ri], dc.wr.regions[ri]
	var gerr, rerr error
	switch kind {
	case 0:
		dc.start("phase load")
		var rb [8]byte
		var gv uint64
		gv, gerr = got.LoadHeld(dc.wg.clk, rg, off, n)
		rerr = ref.access(dc.wr.clk, rr, off, rb[:n], false)
		if rv := binary.LittleEndian.Uint64(rb[:]); gerr == nil && gv != rv {
			dc.t.Fatalf("seed %d op %d: LoadHeld(%d, %d) = %#x, reference %#x", dc.seed, dc.op, off, n, gv, rv)
		}
	case 1:
		dc.start("phase read")
		gb, rb := make([]byte, n), make([]byte, n)
		gerr, rerr = got.ReadHeld(dc.wg.clk, rg, off, gb), ref.access(dc.wr.clk, rr, off, rb, false)
		if !bytes.Equal(gb, rb) {
			dc.t.Fatalf("seed %d op %d: read [%d,+%d) of region %d returned different bytes", dc.seed, dc.op, off, n, ri)
		}
	default:
		dc.start("phase write")
		data := make([]byte, n)
		rng.Read(data)
		if phase == 1 {
			gerr = got.StoreHeld(dc.wg.clk, rg, off, n, binary.LittleEndian.Uint64(append(data, make([]byte, 8-n)...)))
		} else {
			gerr = got.WriteHeld(dc.wg.clk, rg, off, data)
		}
		rerr = ref.access(dc.wr.clk, rr, off, data, true)
	}
	dc.check(gerr, rerr)
}

// checkMembers compares every member's resident and dirty line counts and
// its resident lines in LRU order with its reference's.
func (dc *diffCase) checkMembers() {
	t := dc.t
	t.Helper()
	for i := range dc.got {
		g, r := dc.got[i], dc.ref[i]
		if residentLines(g) != len(r.lines) || dirtyLines(g) != r.DirtyLines() {
			t.Fatalf("seed %d op %d %s: cache %d resident/dirty %d/%d, reference %d/%d", dc.seed, dc.op, dc.what, i,
				residentLines(g), dirtyLines(g), len(r.lines), r.DirtyLines())
		}
		if got, want := dc.wg.lineNames(lruOrder(g)), dc.wr.lineNames(r.lruOrder()); !slices.Equal(got, want) {
			t.Fatalf("seed %d op %d %s: cache %d LRU order %v, reference %v", dc.seed, dc.op, dc.what, i, got, want)
		}
	}
}

// lruOrder lists c's resident lines, least recently used first, by
// sorting their stamps: the exact order the lazy eviction order must
// follow. It reads c without its lock, for a caller that owns c.
func lruOrder(c *Cache) []refKey {
	var idx []int32
	for i := range c.lines.used {
		if c.lines.at(i).stamp != 0 && c.holds(i) {
			idx = append(idx, i)
		}
	}
	slices.SortFunc(idx, func(a, b int32) int { return cmp.Compare(c.lines.at(a).stamp, c.lines.at(b).stamp) })
	keys := make([]refKey, len(idx))
	for j, i := range idx {
		keys[j] = lineKey(c, i)
	}
	return keys
}

// lineNames names each line by its device's index in w and its address,
// so lines of the two worlds compare.
func (w *diffWorld) lineNames(keys []refKey) []string {
	names := make([]string, len(keys))
	for j, k := range keys {
		names[j] = fmt.Sprintf("dev%d@%d", slices.Index(w.devs, k.dev), k.addr)
	}
	return names
}

// lineKey is the device and line address of c's line i.
func lineKey(c *Cache, i int32) refKey {
	ln := c.lines.at(i)
	b := c.blocks.at(ln.blk)
	return refKey{b.key.dev, b.key.base + int64(ln.slot)*LineSize}
}

// start records both clocks before an operation.
func (dc *diffCase) start(what string) {
	dc.what, dc.g0, dc.r0 = what, dc.wg.clk.Now(), dc.wr.clk.Now()
}

// check compares an operation's outcome, clock advance and every member's
// stats with the reference's. It reads the stats fields directly, since a
// held cache's Stats would wait on its own lock.
func (dc *diffCase) check(gerr, rerr error) {
	t := dc.t
	t.Helper()
	if (gerr == nil) != (rerr == nil) {
		t.Fatalf("seed %d op %d %s: error %v, reference %v", dc.seed, dc.op, dc.what, gerr, rerr)
	}
	if errors.Is(gerr, fault.ErrInjected) {
		// A failed eviction write-back: the victim stays resident and,
		// peeked again, is still the next victim.
		for i, g := range dc.got {
			if g.resident < g.capacity {
				continue
			}
			got := dc.wg.lineNames([]refKey{lineKey(g, g.lru())})[0]
			if want := dc.wr.lineNames(dc.ref[i].lruOrder()[:1])[0]; got != want {
				t.Fatalf("seed %d op %d %s: after a failed write-back cache %d's next victim is %v, reference %v", dc.seed, dc.op, dc.what, i, got, want)
			}
		}
		dc.failedVictims++
	}
	if dg, dr := dc.wg.clk.Now()-dc.g0, dc.wr.clk.Now()-dc.r0; dg != dr {
		t.Fatalf("seed %d op %d %s: clock advanced %d ns, reference %d ns", dc.seed, dc.op, dc.what, dg, dr)
	}
	for i := range dc.got {
		if dc.got[i].stats != dc.ref[i].stats {
			t.Fatalf("seed %d op %d %s: cache %d stats %+v, reference %+v", dc.seed, dc.op, dc.what, i, dc.got[i].stats, dc.ref[i].stats)
		}
	}
	if g, r := dc.wg.link.Stats(), dc.wr.link.Stats(); g != r {
		t.Fatalf("seed %d op %d %s: link stats %+v, reference %+v", dc.seed, dc.op, dc.what, g, r)
	}
	if dc.wg.bw != nil {
		if g, r := dc.wg.bw.Stats(), dc.wr.bw.Stats(); g != r {
			t.Fatalf("seed %d op %d %s: device bandwidth stats %+v, reference %+v", dc.seed, dc.op, dc.what, g, r)
		}
	}
	for _, name := range []string{"mem.cxl.reads", "mem.cxl.read_bytes", "mem.cxl.writes", "mem.cxl.write_bytes"} {
		if g, r := dc.wg.reg.Counter(name).Value(), dc.wr.reg.Counter(name).Value(); g != r {
			t.Fatalf("seed %d op %d %s: %s %d, reference %d", dc.seed, dc.op, dc.what, name, g, r)
		}
	}
}

// heldBurst runs up to 16 accesses on member m inside one Hold: words of
// 1, 2, 4 or 8 bytes, some straddling a line and some ending exactly at a
// line end, and byte spans. The reference runs each as the equivalent span
// access; each one's value, error, clock advance and stats must agree.
func (dc *diffCase) heldBurst(rng *rand.Rand, m int) {
	t := dc.t
	got, ref := dc.got[m], dc.ref[m]
	got.Hold()
	defer got.Unhold()
	for range 1 + rng.Intn(16) {
		ri := rng.Intn(len(dc.wg.regions))
		rg, rr := dc.wg.regions[ri], dc.wr.regions[ri]
		var gerr, rerr error
		switch kind := rng.Intn(4); kind {
		case 0, 1:
			n := []int{1, 2, 4, 8}[rng.Intn(4)]
			off := wordOffset(rng, rg, n)
			if kind == 0 {
				dc.start("held load")
				var rb [8]byte
				var gv uint64
				gv, gerr = got.LoadHeld(dc.wg.clk, rg, off, n)
				rerr = ref.access(dc.wr.clk, rr, off, rb[:n], false)
				if rv := binary.LittleEndian.Uint64(rb[:]); gerr == nil && gv != rv {
					t.Fatalf("seed %d op %d: LoadHeld(%d, %d) of region %d = %#x, reference %#x", dc.seed, dc.op, off, n, ri, gv, rv)
				}
			} else {
				dc.start("held store")
				v := rng.Uint64()
				var rb [8]byte
				binary.LittleEndian.PutUint64(rb[:], v)
				gerr, rerr = got.StoreHeld(dc.wg.clk, rg, off, n, v), ref.access(dc.wr.clk, rr, off, rb[:n], true)
			}
		default:
			n := 1 + rng.Intn(2*LineSize)
			off := rng.Int63n(rg.Size() - int64(n) + 1)
			if kind == 2 {
				dc.start("held read")
				gb, rb := make([]byte, n), make([]byte, n)
				gerr, rerr = got.ReadHeld(dc.wg.clk, rg, off, gb), ref.access(dc.wr.clk, rr, off, rb, false)
				if !bytes.Equal(gb, rb) {
					t.Fatalf("seed %d op %d: ReadHeld [%d,+%d) of region %d returned different bytes", dc.seed, dc.op, off, n, ri)
				}
			} else {
				dc.start("held write")
				data := make([]byte, n)
				rng.Read(data)
				gerr, rerr = got.WriteHeld(dc.wg.clk, rg, off, data), ref.access(dc.wr.clk, rr, off, data, true)
			}
		}
		dc.check(gerr, rerr)
	}
	dc.start("held burst")
}

// wordOffset picks the region offset of an n-byte word: a third straddle
// a line boundary (when n > 1), a third end exactly at a line end, and the
// rest fall anywhere.
func wordOffset(rng *rand.Rand, rg *simmem.Region, n int) int64 {
	off := rng.Int63n(rg.Size() - int64(n) + 1)
	la := (rg.Base() + off) &^ (LineSize - 1)
	var abs int64
	switch rng.Intn(3) {
	case 0:
		if n == 1 {
			return off
		}
		abs = la + LineSize - int64(1+rng.Intn(n-1))
	case 1:
		abs = la + LineSize - int64(n)
	default:
		return off
	}
	if o := abs - rg.Base(); o >= 0 && o+int64(n) <= rg.Size() {
		return o
	}
	return off
}

func compareDevices(t *testing.T, a, b *diffWorld) {
	t.Helper()
	for i := range a.devs {
		if !bytes.Equal(deviceBytes(t, a.devs[i], a.devInj), deviceBytes(t, b.devs[i], b.devInj)) {
			t.Fatalf("device %d contents differ from the reference", i)
		}
	}
}

// deviceBytes reads all of d with its injector detached, so the read does
// not advance the plan's counters, then reattaches inj.
func deviceBytes(t *testing.T, d *simmem.Device, inj fault.Injector) []byte {
	t.Helper()
	d.SetInjector(nil)
	defer d.SetInjector(inj)
	buf := make([]byte, d.Size())
	if err := d.WholeRegion().ReadRaw(0, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestRunFillCases steps the cache and the reference through the edge
// cases of a run fill on an eight-line cache in a run world, with another
// host's traffic queued ahead on the link and the device bandwidth: a write
// run whose third dirty victim's write-back fails (the two lines filled
// before it are written, charged and counted, and only they as device
// reads), the same write again, whose runs are longer than the cache and
// evict a dirty line at every line, and a read of 21 absent lines, filled
// as runs of 8, 8 and 5. After each step the bytes, error, clock, stats,
// both resources' stats, device counters, LRU order and device contents
// must agree; the last run must have come from one device read.
func TestRunFillCases(t *testing.T) {
	const lines = 8
	dc := &diffCase{t: t, seed: 1, wg: newDiffWorld(t, 1, true), wr: newDiffWorld(t, 1, true)}
	wg, wr := dc.wg, dc.wr
	got := New("runs", lines*LineSize, 5)
	got.SetInterconnect(wg.link)
	got.SetInjector(fault.NewPlan(1).FailAt(fault.OpWriteBack, 3, fault.ErrInjected))
	ref := newRefCache(lines*LineSize, 5)
	ref.link = wr.link
	ref.inj = fault.NewPlan(1).FailAt(fault.OpWriteBack, 3, fault.ErrInjected)
	dc.got, dc.ref = []*Cache{got}, []*refCache{ref}
	rng := rand.New(rand.NewSource(1))
	step := func(what string, off int64, n int, store bool) error {
		t.Helper()
		dc.op++
		dc.start(what)
		for _, w := range []*diffWorld{wg, wr} {
			w.link.UseAt(w.clk.Now()+300, 2*blockSize)
			w.bw.UseAt(w.clk.Now()+300, 2*blockSize)
		}
		rg, rr := wg.regions[0], wr.regions[0]
		gb, rb := make([]byte, n), make([]byte, n)
		var gerr, rerr error
		if store {
			rng.Read(gb)
			copy(rb, gb)
			gerr, rerr = write(got, wg.clk, rg, off, gb), ref.access(wr.clk, rr, off, rb, true)
		} else {
			gerr, rerr = read(got, wg.clk, rg, off, gb), ref.access(wr.clk, rr, off, rb, false)
			if !bytes.Equal(gb, rb) {
				t.Fatalf("%s: returned different bytes", what)
			}
		}
		dc.check(gerr, rerr)
		dc.checkMembers()
		compareDevices(t, wg, wr)
		return gerr
	}

	if err := step("dirty the cache", 0, lines*LineSize, true); err != nil {
		t.Fatal(err)
	}
	if err := step("write run, failing write-back", 2*blockSize, 12*LineSize, true); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("write run: error %v, want the injected write-back failure", err)
	}
	if st := got.Stats(); st.Misses != lines+2 || st.WriteBacks != 2 {
		t.Fatalf("after the failed write run: %+v, want %d misses and 2 write-backs", st, lines+2)
	}
	if err := step("write run over dirty victims", 2*blockSize, 12*LineSize, true); err != nil {
		t.Fatal(err)
	}
	clear(got.runBuf[:])
	off := int64(5*blockSize + 100)
	if err := step("read run longer than the cache", off, 20*LineSize, false); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 5*LineSize)
	if err := wg.regions[0].ReadRaw(5*blockSize+17*LineSize, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.runBuf[:len(want)], want) {
		t.Fatal("the last run of the read did not come from one device read")
	}
	if st := got.Stats(); st.WriteBacks < 2+lines {
		t.Fatalf("the runs wrote back %d lines, want dirty victims mid-run", st.WriteBacks-2)
	}
}

// TestMaskFlushCases steps a cache with no injector, whose flushes let
// clean lines go by their block's mask, and the reference through the
// mask flush's edges on the paged device, with a 320-line cache that holds
// a whole page: LinesInRange before and after a page-wide flush of a page
// with dirty lines in three of its five blocks; misses that then evict, so
// the eviction order built before the flush must skip the entries it
// freed; a renumber of the stamps while a flush's entries sit freed with
// their stamps; and a Drop after a flush. After each step the bytes,
// error, clock, stats, link and bandwidth stats, device counters, LRU
// order and device contents must agree.
func TestMaskFlushCases(t *testing.T) {
	const lines = 320
	dc := &diffCase{t: t, seed: 1, wg: newDiffWorld(t, 1, true), wr: newDiffWorld(t, 1, true)}
	wg, wr := dc.wg, dc.wr
	got := New("mask", lines*LineSize, 5)
	got.SetInterconnect(wg.link)
	ref := newRefCache(lines*LineSize, 5)
	ref.link = wr.link
	dc.got, dc.ref = []*Cache{got}, []*refCache{ref}
	rng := rand.New(rand.NewSource(1))
	rg, rr := wg.regions[pagedRegion], wr.regions[pagedRegion]
	page := func(k int) int64 { return corePageBase + int64(k)*coreStride }
	step := func(what string, off int64, n int) {
		t.Helper()
		dc.op++
		dc.start(what)
		var gerr, rerr error
		switch what {
		case "read":
			gb, rb := make([]byte, n), make([]byte, n)
			gerr, rerr = read(got, wg.clk, rg, off, gb), ref.access(wr.clk, rr, off, rb, false)
			if !bytes.Equal(gb, rb) {
				t.Fatalf("op %d: read [%d,+%d) returned different bytes", dc.op, off, n)
			}
		case "write":
			data := make([]byte, n)
			rng.Read(data)
			gerr, rerr = write(got, wg.clk, rg, off, data), ref.access(wr.clk, rr, off, data, true)
		case "flush":
			gerr, rerr = got.Flush(wg.clk, rg, off, n), ref.Flush(wr.clk, rr, off, n)
		case "lines":
			gres, gdirty := got.LinesInRange(rg, off, n)
			if rres, rdirty := ref.LinesInRange(rr, off, n); gres != rres || gdirty != rdirty {
				t.Fatalf("op %d: LinesInRange(%d, %d) = %d/%d, reference %d/%d", dc.op, off, n, gres, gdirty, rres, rdirty)
			}
		case "drop":
			got.Drop()
			ref.Drop()
		}
		dc.check(gerr, rerr)
		dc.checkMembers()
		compareDevices(t, wg, wr)
	}

	step("read", page(1), corePageSize)
	for _, off := range []int64{10, 8000, corePageSize - 90} { // blocks 0, 2 and 4 of the page's 5
		step("write", page(1)+off, 8)
	}
	step("read", page(2), 100*LineSize) // 36 evictions: the eviction order is built
	step("lines", page(1), corePageSize)
	if res, dirty := got.LinesInRange(rg, page(1), corePageSize); res != 220 || dirty != 3 {
		t.Fatalf("before the flush the page has %d lines, %d dirty; want 220, 3", res, dirty)
	}
	step("lines", page(1)+3000, 6000) // a part of three blocks
	st := got.Stats()
	step("flush", page(1), corePageSize)
	if d := got.Stats(); d.Flushed-st.Flushed != 220 || d.WriteBacks-st.WriteBacks != 3 {
		t.Fatalf("the flush flushed %d lines and wrote back %d, want 220 and 3", d.Flushed-st.Flushed, d.WriteBacks-st.WriteBacks)
	}
	step("lines", page(1), corePageSize)
	step("lines", page(1)+3000, 6000)
	step("read", page(3), corePageSize) // 36 more evictions, past the flushed page's entries

	step("write", page(3)+5000, 300)
	step("flush", page(3), corePageSize)
	defer func(m uint64) { maxStamp = m }(maxStamp)
	maxStamp = got.tick + 8
	step("read", page(4), 20*LineSize)    // renumbers at its ninth line
	if got.tick != uint64(got.resident) { // the read's 20 lines all missed
		t.Fatalf("tick %d after the renumber, want %d: the renumber restamps the resident lines alone", got.tick, got.resident)
	}
	step("read", page(5), corePageSize)

	step("write", page(5)+100, 200)
	step("flush", page(5), corePageSize/2)
	step("drop", 0, 0)
	step("lines", page(5), corePageSize)
	step("read", page(5), corePageSize)
	step("flush", page(5), corePageSize)
}
