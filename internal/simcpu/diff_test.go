package simcpu

import (
	"bytes"
	"math/rand"
	"testing"

	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simmem"
)

// The third diffWorld device is laid out like a core CXL pool: page images
// of corePageSize bytes at corePageBase + k*coreStride, so each spans five
// 4 KiB blocks and the device spans twenty, more than the block memo has
// entries.
const (
	corePageBase = 192
	corePageSize = 16 << 10
	coreStride   = corePageSize + 64
	corePages    = 5
	pagedRegion  = 2 // index of that device's region in diffWorld.regions
)

// diffWorld is one side of the differential test: three devices, the
// regions the operations address, a clock, a link, and the fault plan both
// the cache and the devices consult.
type diffWorld struct {
	devs    []*simmem.Device
	regions []*simmem.Region
	clk     *simclock.Clock
	link    *simclock.Resource
	plan    *fault.Plan
}

func newDiffWorld(t *testing.T, seed int64) *diffWorld {
	t.Helper()
	w := &diffWorld{clk: simclock.New(), link: simclock.NewResource("link", 2e9), plan: diffPlan(seed)}
	for i, size := range []int64{11 * blockSize, 13*blockSize + 1000, corePageBase + corePages*coreStride} {
		d := simmem.NewDevice("cxl", size, prof, nil)
		raw := make([]byte, size)
		rand.New(rand.NewSource(seed + int64(i))).Read(raw)
		if err := d.WholeRegion().WriteRaw(0, raw); err != nil {
			t.Fatal(err)
		}
		d.SetInjector(w.plan)
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

// diffPlan drops some flush lines, eviction write-backs, whole flush ranges
// and device reads, and reverses some flushes. Both sides get an identical
// plan, so their fault points fire at the same operations.
func diffPlan(seed int64) *fault.Plan {
	p := fault.NewPlan(seed)
	for k := int64(3); k < 4000; k += 37 {
		p.DropAt(fault.OpFlushLine, k)
		p.DropAt(fault.OpWriteBack, k+5)
		p.DropAt(fault.OpMemRead, 11*k)
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
// and errors, the clock advance, Stats, ResidentLines, DirtyLines, and the
// device contents. Every device spans more 4 KiB blocks than the block memo
// has entries, so resident blocks share memo entries and memoized blocks
// are released; the paged device makes page code's access pattern.
func TestCacheMatchesReference(t *testing.T) {
	const capLines = 24
	for seed := int64(1); seed <= 6; seed++ {
		wg, wr := newDiffWorld(t, seed), newDiffWorld(t, seed)
		got := New("slab", capLines*LineSize, 5)
		got.SetInterconnect(wg.link)
		got.SetInjector(wg.plan)
		ref := newRefCache(capLines*LineSize, 5)
		ref.link = wr.link
		ref.inj = wr.plan

		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 3000; op++ {
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
			g0, r0 := wg.clk.Now(), wr.clk.Now()
			var what string
			var gerr, rerr error
			switch {
			case k < 8:
				what = "read"
				gb, rb := make([]byte, n), make([]byte, n)
				gerr, rerr = got.Read(wg.clk, rg, off, gb), ref.access(wr.clk, rr, off, rb, false)
				if !bytes.Equal(gb, rb) {
					t.Fatalf("seed %d op %d: read [%d,+%d) of region %d returned different bytes", seed, op, off, n, ri)
				}
			case k < 15:
				what = "write"
				data := make([]byte, n)
				rng.Read(data)
				gerr, rerr = got.Write(wg.clk, rg, off, data), ref.access(wr.clk, rr, off, data, true)
			case k < 18:
				what = "flush"
				gerr, rerr = got.Flush(wg.clk, rg, off, n), ref.Flush(wr.clk, rr, off, n)
			case k < 19:
				what = "lines-in-range"
				gres, gdirty := got.LinesInRange(rg, off, n)
				rres, rdirty := ref.LinesInRange(rr, off, n)
				if gres != rres || gdirty != rdirty {
					t.Fatalf("seed %d op %d: LinesInRange = %d/%d, reference %d/%d", seed, op, gres, gdirty, rres, rdirty)
				}
			default:
				if rng.Intn(4) == 0 {
					what = "drop"
					got.Drop()
					ref.Drop()
				}
			}
			if (gerr == nil) != (rerr == nil) {
				t.Fatalf("seed %d op %d %s: error %v, reference %v", seed, op, what, gerr, rerr)
			}
			if dg, dr := wg.clk.Now()-g0, wr.clk.Now()-r0; dg != dr {
				t.Fatalf("seed %d op %d %s: clock advanced %d ns, reference %d ns", seed, op, what, dg, dr)
			}
			if got.Stats() != ref.stats {
				t.Fatalf("seed %d op %d %s: stats %+v, reference %+v", seed, op, what, got.Stats(), ref.stats)
			}
			if got.ResidentLines() != len(ref.lines) || got.DirtyLines() != ref.DirtyLines() {
				t.Fatalf("seed %d op %d %s: resident/dirty %d/%d, reference %d/%d", seed, op, what,
					got.ResidentLines(), got.DirtyLines(), len(ref.lines), ref.DirtyLines())
			}
			if op%100 == 99 {
				compareDevices(t, wg, wr)
			}
		}
		compareDevices(t, wg, wr)
		if len(wg.plan.Firings()) == 0 || len(wg.plan.Firings()) != len(wr.plan.Firings()) {
			t.Fatalf("seed %d: %d faults fired, reference %d", seed, len(wg.plan.Firings()), len(wr.plan.Firings()))
		}
	}
}

func compareDevices(t *testing.T, a, b *diffWorld) {
	t.Helper()
	for i := range a.devs {
		if !bytes.Equal(deviceBytes(t, a.devs[i], a.plan), deviceBytes(t, b.devs[i], b.plan)) {
			t.Fatalf("device %d contents differ from the reference", i)
		}
	}
}

// deviceBytes reads all of d with its injector detached, so the read does
// not advance plan's counters, then reattaches plan.
func deviceBytes(t *testing.T, d *simmem.Device, plan *fault.Plan) []byte {
	t.Helper()
	d.SetInjector(nil)
	defer d.SetInjector(plan)
	buf := make([]byte, d.Size())
	if err := d.WholeRegion().ReadRaw(0, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}
