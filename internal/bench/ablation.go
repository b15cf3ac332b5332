package bench

import (
	"container/list"
	"fmt"
	"math/rand"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/frametab"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/perf"
	"polarcxlmem/internal/recovery"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/wal"
	"polarcxlmem/internal/workload"
)

func init() {
	register(Experiment{ID: "ablate-tier", Title: "Ablation: tiered CXL pool vs direct (no-tiering claim, §3.1)", Run: runAblateTier})
	register(Experiment{ID: "ablate-meta", Title: "Ablation: metadata in CXL vs in DRAM (PolarRecv precondition, §3.2)", Run: runAblateMeta})
	register(Experiment{ID: "ablate-sync", Title: "Ablation: cache-line vs page-granularity sync (§3.3)", Run: runAblateSync})
}

// --- ablate-tier -------------------------------------------------------------

// cxlTieredPool is the design the paper argues AGAINST building (§3.1
// "Avoiding Tiered Memory"): CXL used like RDMA — a local DRAM buffer tier
// in front of it, whole pages copied across on every miss and dirty
// eviction. Implemented here purely to quantify what the tier costs.
type cxlTieredPool struct {
	store *storage.Store
	host  *cxl.HostPort
	// remote page images live in the CXL region at pageID-indexed offsets.
	region simmemRegion

	capacity int
	frames   map[uint64]*abFrame
	lru      *list.List
	barrier  buffer.FlushBarrier
	stats    buffer.Stats
}

// simmemRegion narrows the import surface (we only need raw copies).
type simmemRegion interface {
	ReadRaw(off int64, buf []byte) error
	WriteRaw(off int64, data []byte) error
	Size() int64
}

// abFrame is one DRAM-tier page; its visits read and write img in place.
type abFrame struct {
	id    uint64
	img   *buffer.Image
	dirty bool
	pins  int
	elem  *list.Element
	inCXL bool
	fr    *frametab.Frame // what the pool's frame handles hold
}

// abDRAM is what a DRAM-tier access costs.
var abDRAM = cxl.BufferDRAMProfile()

// newABFrame returns a pinned frame for page id with a zeroed image.
func newABFrame(id uint64) *abFrame {
	f := &abFrame{id: id, img: buffer.NewImage(&abDRAM), pins: 1}
	f.fr = frametab.NewFrame(id, f)
	return f
}

func newCXLTieredPool(store *storage.Store, host *cxl.HostPort, region simmemRegion, capacity int) *cxlTieredPool {
	return &cxlTieredPool{store: store, host: host, region: region,
		capacity: capacity, frames: make(map[uint64]*abFrame), lru: list.New()}
}

func (p *cxlTieredPool) SetFlushBarrier(fb buffer.FlushBarrier) { p.barrier = fb }
func (p *cxlTieredPool) Stats() buffer.Stats                    { return p.stats }
func (p *cxlTieredPool) Resident() int                          { return len(p.frames) }

// cxlOffsets: page id -> region offset (ids are small and dense here).
func (p *cxlTieredPool) off(id uint64) int64 { return int64(id) * page.Size }

func (p *cxlTieredPool) evictOne(clk *simclock.Clock) error {
	for e := p.lru.Back(); e != nil; e = e.Prev() {
		f := e.Value.(*abFrame)
		if f.pins > 0 {
			continue
		}
		p.lru.Remove(e)
		delete(p.frames, f.id)
		p.stats.Evictions++
		if f.dirty || !f.inCXL {
			// Full-page copy DRAM -> CXL: the write amplification a tier
			// reintroduces even on CXL.
			if f.dirty && p.barrier != nil {
				p.barrier(clk, page.RawLSN(f.img.Buf))
			}
			if err := p.region.WriteRaw(p.off(f.id), f.img.Buf); err != nil {
				return err
			}
			if err := p.host.TransferWrite(clk, page.Size); err != nil {
				return err
			}
			p.stats.RemoteWrites++
		}
		return nil
	}
	return fmt.Errorf("ablate-tier: all frames pinned")
}

func (p *cxlTieredPool) Get(clk *simclock.Clock, id uint64, mode buffer.Mode) (buffer.Frame, error) {
	if f, ok := p.frames[id]; ok {
		f.pins++
		p.lru.MoveToFront(f.elem)
		p.stats.Hits++
		return buffer.NewFrame(p, f.fr, clk, mode), nil
	}
	p.stats.Misses++
	for len(p.frames) >= p.capacity {
		if err := p.evictOne(clk); err != nil {
			return buffer.Frame{}, err
		}
	}
	f := newABFrame(id)
	if p.off(id)+page.Size <= p.region.Size() {
		// Full-page copy CXL -> DRAM on every miss: read amplification.
		if err := p.region.ReadRaw(p.off(id), f.img.Buf); err != nil {
			return buffer.Frame{}, err
		}
		if page.RawID(f.img.Buf) == id {
			if err := p.host.TransferRead(clk, page.Size); err != nil {
				return buffer.Frame{}, err
			}
			p.stats.RemoteReads++
			f.inCXL = true
		}
	}
	if !f.inCXL {
		if err := p.store.ReadPage(clk, id, f.img.Buf); err != nil {
			return buffer.Frame{}, err
		}
		p.stats.StorageReads++
	}
	f.elem = p.lru.PushFront(f)
	p.frames[id] = f
	return buffer.NewFrame(p, f.fr, clk, mode), nil
}

func (p *cxlTieredPool) NewPage(clk *simclock.Clock) (buffer.Frame, error) {
	id := p.store.AllocPageID()
	for len(p.frames) >= p.capacity {
		if err := p.evictOne(clk); err != nil {
			return buffer.Frame{}, err
		}
	}
	f := newABFrame(id)
	f.dirty = true
	f.elem = p.lru.PushFront(f)
	p.frames[id] = f
	return buffer.NewFrame(p, f.fr, clk, buffer.Write), nil
}

func (p *cxlTieredPool) FlushAll(clk *simclock.Clock) error {
	for _, f := range p.frames {
		if !f.dirty {
			continue
		}
		if p.barrier != nil {
			p.barrier(clk, page.RawLSN(f.img.Buf))
		}
		if err := p.store.WritePage(clk, f.id, f.img.Buf); err != nil {
			return err
		}
		f.dirty = false
		p.stats.StorageWrites++
	}
	return nil
}

// Open, Close, MarkDirty and Release make the pool its own buffer.Medium:
// a visit reads and writes the DRAM-tier image in place.
func (p *cxlTieredPool) Open(f buffer.Frame) page.Accessor { return f.Entry().Slot().(*abFrame).img }
func (p *cxlTieredPool) Close(buffer.Frame, page.Accessor) {}
func (p *cxlTieredPool) MarkDirty(f buffer.Frame)          { f.Entry().Slot().(*abFrame).dirty = true }
func (p *cxlTieredPool) Release(f buffer.Frame) error {
	f.Entry().Slot().(*abFrame).pins--
	return nil
}

// runAblateTier quantifies the §3.1 design choice: the same CXL hardware,
// with and without a local buffer tier.
func runAblateTier(cfg Config) ([]*Table, error) {
	rows := int64(cfg.ops(2500, 16000))
	warm := cfg.ops(800, 5000)
	meas := cfg.ops(1200, 8000)
	t := &Table{ID: "ablate-tier", Title: "Tiered CXL (LBP-30%) vs direct PolarCXLMem, point-select",
		Headers: []string{"design", "CXL bytes/op", "per-op virtual us", "K-QPS @12 inst (48 thr)"}}

	// Direct (PolarCXLMem).
	direct, err := newPoolingRig(cfg, PoolCXL, 1, rows, 0)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(41))
	dDemand, err := direct.measure(pointSelectMix(direct, rng), warm, meas)
	if err != nil {
		return nil, err
	}

	// Tiered over the same CXL substrate.
	clk := simclock.New()
	store := storage.New(storage.Config{})
	pages := estimatePages(1, rows)
	host, err := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: int64(pages*4+64) * page.Size}, nil).AttachHost("h0", 0)
	if err != nil {
		return nil, err
	}
	region, err := host.Allocate(clk, "tier", int64(pages*4+64)*page.Size)
	if err != nil {
		return nil, err
	}
	tp := newCXLTieredPool(store, host, region, max(8, pages*30/100))
	eng, err := txn.Bootstrap(clk, tp, wal.Attach(wal.NewStore(0, 0)), store)
	if err != nil {
		return nil, err
	}
	sb, err := workload.NewSysbench(clk, eng, 1, rows, 1)
	if err != nil {
		return nil, err
	}
	for i := 0; i < warm; i++ {
		if err := sb.PointSelect(clk, rng); err != nil {
			return nil, err
		}
	}
	sClk, sQ, sLink := clk.Now(), sb.Queries, host.Link().Stats().Units
	for i := 0; i < meas; i++ {
		if err := sb.PointSelect(clk, rng); err != nil {
			return nil, err
		}
	}
	q := float64(sb.Queries - sQ)
	tDemand := perf.Demands{
		CPUNs:        float64(clk.Now()-sClk) / q,
		CXLLinkBytes: float64(host.Link().Stats().Units-sLink) / q,
	}

	for _, row := range []struct {
		name string
		d    perf.Demands
	}{{"tiered-CXL (LBP-30%)", tDemand}, {"PolarCXLMem (direct)", dDemand}} {
		res := perf.MVA(perf.PoolingStations(row.d, perf.DefaultRates(), 12, vCPUsPerInstance), 12*threadsPointSelect)
		t.AddRow(row.name, fmt.Sprintf("%.0f", row.d.CXLLinkBytes),
			f1(row.d.CPUNs/1000), kqps(res.Throughput))
	}
	amp := tDemand.CXLLinkBytes / maxf(dDemand.CXLLinkBytes, 1)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"the tier reintroduces %.0fx interconnect amplification on identical CXL hardware — the §3.1 claim", amp))
	return []*Table{t}, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// --- ablate-meta -------------------------------------------------------------

// runAblateMeta measures what storing buffer-pool metadata in CXL buys at
// recovery time: PolarRecv (metadata survives, trusted pages reused) vs the
// same crashed dataset recovered with full redo into a fresh pool
// (metadata was in DRAM, so nothing in CXL can be trusted).
func runAblateMeta(cfg Config) ([]*Table, error) {
	rows := int64(cfg.ops(2500, 16000))
	updates := cfg.ops(300, 3000)
	t := &Table{ID: "ablate-meta", Title: "Recovery with vs without CXL-resident metadata",
		Headers: []string{"variant", "recovery virtual ms", "pages reused", "pages rebuilt", "warm pages after"}}

	build := func() (*poolingRig, error) { return newPoolingRig(cfg, PoolCXL, 1, rows, 0) }

	// Variant A: PolarRecv (metadata in CXL).
	{
		rig, err := build()
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(42))
		tbl := rig.sb.Tables()[0]
		tx := rig.eng.Begin(rig.clk)
		for i := 0; i < updates; i++ {
			if err := tx.Update(tbl, 1+rng.Int63n(rows), []byte(fmt.Sprintf("upd-%06d-------------------", i))); err != nil {
				return nil, err
			}
		}
		tx.Commit()
		rig.cpool.Crash()
		clk2 := simclock.NewAt(rig.clk.Now())
		host2 := rig.host // the restarted process reconnects the surviving port
		region2, err := host2.Reattach(clk2, "db0")
		if err != nil {
			return nil, err
		}
		_, _, res, err := recovery.PolarRecv(clk2, host2, region2, host2.NewCache("db0", 2<<20), rig.ws, rig.store, nil)
		if err != nil {
			return nil, err
		}
		res.Publish(cfg.Registry)
		t.AddRow("metadata in CXL (PolarRecv)", f2(float64(res.Nanos())/1e6),
			fmt.Sprintf("%d", res.PagesTrusted), fmt.Sprintf("%d", res.PagesRebuilt),
			fmt.Sprintf("%d", res.WarmPages))
	}

	// Variant B: metadata in DRAM — after the crash nothing identifies the
	// surviving page images, so recovery is a full redo into a fresh pool.
	{
		rig, err := build()
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(42))
		tbl := rig.sb.Tables()[0]
		tx := rig.eng.Begin(rig.clk)
		for i := 0; i < updates; i++ {
			if err := tx.Update(tbl, 1+rng.Int63n(rows), []byte(fmt.Sprintf("upd-%06d-------------------", i))); err != nil {
				return nil, err
			}
		}
		tx.Commit()
		rig.cpool.Crash()
		clk2 := simclock.NewAt(rig.clk.Now())
		pool2 := buffer.NewDRAMPool(rig.store, rig.datasetPages*2+64, cxl.BufferDRAMProfile(), cfg.Registry)
		_, res, err := recovery.Recover(clk2, "dram-metadata", pool2, rig.ws, rig.store)
		if err != nil {
			return nil, err
		}
		res.Publish(cfg.Registry)
		t.AddRow("metadata in DRAM (full redo)", f2(float64(res.Nanos())/1e6),
			"0", fmt.Sprintf("%d", res.PagesRebuilt), fmt.Sprintf("%d", res.WarmPages))
	}
	t.Notes = append(t.Notes,
		"identical crash state; only the durable metadata differs. Without it, every post-checkpoint page is redo work")
	return []*Table{t}, nil
}

// --- ablate-sync -------------------------------------------------------------

// runAblateSync sweeps how much of a shared page a transaction dirties and
// compares per-update synchronization traffic: the CXL protocol moves only
// the dirty lines; the RDMA baseline always moves the whole page.
func runAblateSync(cfg Config) ([]*Table, error) {
	t := &Table{ID: "ablate-sync", Title: "Sync granularity: bytes moved per shared update vs dirtied span",
		Headers: []string{"dirtied bytes", "CXL sync B/op", "RDMA sync B/op", "amplification", "CXL hold us", "RDMA hold us"}}
	spans := []int{64, 256, 1024, 4096, 16384 - page.HeaderSize}
	for _, span := range spans {
		// CXL side.
		clk := simclock.New()
		store := storage.New(storage.Config{})
		layout, err := workload.NewLayout(clk, store, 1, 4)
		if err != nil {
			return nil, err
		}
		rig, err := newCXLSharingRig(cfg.Registry, store, clk, 16, 2, false)
		if err != nil {
			return nil, err
		}
		pid := layout.GroupPage(1, 0)
		buf := make([]byte, span)
		// Warm both nodes on the page.
		if err := rig.cnodes[0].Read(clk, pid, page.HeaderSize, buf[:8]); err != nil {
			return nil, err
		}
		if err := rig.cnodes[1].Read(clk, pid, page.HeaderSize, buf[:8]); err != nil {
			return nil, err
		}
		const reps = 8
		startFabric := rig.fabricBytes()
		startClk := clk.Now()
		for i := 0; i < reps; i++ {
			if err := rig.cnodes[0].Write(clk, pid, page.HeaderSize, buf); err != nil {
				return nil, err
			}
		}
		cxlBytes := float64(rig.fabricBytes()-startFabric) / reps
		cxlHold := float64(clk.Now()-startClk) / reps

		// RDMA side.
		clkR := simclock.New()
		storeR := storage.New(storage.Config{})
		layoutR, err := workload.NewLayout(clkR, storeR, 1, 4)
		if err != nil {
			return nil, err
		}
		rigR, err := newRDMASharingRig(storeR, clkR, 16, 2, 8)
		if err != nil {
			return nil, err
		}
		pidR := layoutR.GroupPage(1, 0)
		rigR.rnodes[0].Read(clkR, pidR, page.HeaderSize, buf[:8])
		rigR.rnodes[1].Read(clkR, pidR, page.HeaderSize, buf[:8])
		startNIC := rigR.nicBytes()
		startClkR := clkR.Now()
		for i := 0; i < reps; i++ {
			if err := rigR.rnodes[0].Write(clkR, pidR, page.HeaderSize, buf); err != nil {
				return nil, err
			}
		}
		rdmaBytes := float64(rigR.nicBytes()-startNIC) / reps
		rdmaHold := float64(clkR.Now()-startClkR) / reps

		t.AddRow(fmt.Sprintf("%d", span),
			fmt.Sprintf("%.0f", cxlBytes), fmt.Sprintf("%.0f", rdmaBytes),
			fmt.Sprintf("%.1fx", rdmaBytes/maxf(cxlBytes, 1)),
			f1(cxlHold/1000), f1(rdmaHold/1000))
	}
	t.Notes = append(t.Notes,
		"the RDMA baseline pushes the full 16 KB page regardless of span; CXL flushes only dirty lines,",
		"so the amplification gap closes as the dirtied span approaches the page size — the §3.3 'Benefits' claim")
	return []*Table{t}, nil
}
