package bench

import (
	"fmt"
	"math/rand"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/perf"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/recovery"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/workload"
)

func init() {
	register(Experiment{ID: "fig10", Title: "Recovery: vanilla vs RDMA-based vs PolarRecv timelines", Run: runFig10})
}

// fig10 reproduces the paper's recovery timelines (§4.3): run a sysbench
// workload, kill the database at the crash mark, recover with each scheme,
// and plot throughput per time bucket. Virtual-time durations are
// compressed ~10x relative to the paper's 60-second pre-crash phase to
// keep the functional simulation tractable; the shape — recovery gap
// ordering (PolarRecv << RDMA-based << vanilla) and warm-up slopes — is
// the reproduced artifact.
const fig10Threads = 32

type timelinePoint struct {
	t float64 // bucket end, virtual seconds from run start
	x float64 // K-QPS
}

type fig10Run struct {
	scheme      string
	points      []timelinePoint
	recoverySec float64
	warmupSec   float64 // time from process restart to 90% of pre-crash X
	preCrashX   float64
	firstBucket float64 // first post-recovery bucket's fraction of pre-crash X
}

// runTimeline executes one scheme x workload timeline.
func runTimeline(cfg Config, kind PoolKind, wl string) (*fig10Run, error) {
	rows := int64(cfg.ops(2500, 12000))
	bucketNs := int64(cfg.ops(100, 250)) * simclock.Millisecond
	preBuckets := cfg.ops(4, 12)
	postBuckets := cfg.ops(6, 16)
	checkpointAfter := preBuckets / 2

	rig, err := newPoolingRig(cfg, kind, 1, rows, 0.30)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(21))
	mix := func(sb *workload.Sysbench, clk *simclock.Clock) func() error {
		switch wl {
		case "read-only":
			return func() error { return sb.ReadOnlyTxn(clk, rng) }
		case "read-write":
			return func() error { return sb.ReadWriteTxn(clk, rng) }
		default: // write-only
			return func() error { return sb.WriteOnlyTxn(clk, rng) }
		}
	}

	run := &fig10Run{scheme: kind.String()}
	if kind == PoolCXL {
		run.scheme = "PolarRecv"
	} else if kind == PoolDRAM {
		run.scheme = "Vanilla"
	}

	// Pre-crash phase.
	start := rig.clk.Now()
	op := mix(rig.sb, rig.clk)
	var preXs []float64
	last := rig.snap()
	for b := 1; b <= preBuckets; b++ {
		edge := start + int64(b)*bucketNs
		for rig.clk.Now() < edge {
			if err := op(); err != nil {
				return nil, fmt.Errorf("fig10 %s pre-crash: %w", kind, err)
			}
		}
		cur := rig.snap()
		d, err := demandsBetween(last, cur)
		if err != nil {
			return nil, err
		}
		last = cur
		res := perf.MVA(perf.PoolingStations(d, perf.DefaultRates(), 1, vCPUsPerInstance), fig10Threads)
		run.points = append(run.points, timelinePoint{t: float64(rig.clk.Now()-start) / 1e9, x: res.Throughput})
		preXs = append(preXs, res.Throughput)
		if b == checkpointAfter {
			if err := rig.eng.Checkpoint(rig.clk); err != nil {
				return nil, err
			}
		}
	}
	for _, x := range preXs[checkpointAfter:] {
		run.preCrashX += x
	}
	run.preCrashX /= float64(len(preXs) - checkpointAfter)

	// Crash. Virtual time continues; the crash instant is the clock now.
	crashAt := rig.clk.Now()
	clk2 := simclock.NewAt(crashAt)
	var eng2 *txn.Engine
	var res *recovery.Result
	switch kind {
	case PoolCXL:
		rig.cpool.Crash()
		host2 := rig.host // the restarted process reconnects the surviving port
		region2, rerr := host2.Reattach(clk2, "db0")
		if rerr != nil {
			return nil, rerr
		}
		cache2 := host2.NewCache("db0", 2<<20)
		_, e, r, rerr2 := recovery.PolarRecv(clk2, host2, region2, cache2, rig.ws, rig.store, nil)
		if rerr2 != nil {
			return nil, rerr2
		}
		eng2, res = e, r
	case PoolTiered:
		nic2 := rdma.NewNIC("host0-restart", 0, 0)
		lbp := int(float64(rig.datasetPages) * 0.30)
		if lbp < 8 {
			lbp = 8
		}
		pool2 := buffer.NewTieredPool(rig.store, rig.rem, nic2, lbp, cxl.BufferDRAMProfile(), cfg.Registry)
		e, r, rerr := recovery.Recover(clk2, "rdma", pool2, rig.ws, rig.store)
		if rerr != nil {
			return nil, rerr
		}
		rig.pool, rig.nic = pool2, nic2
		eng2, res = e, r
	default: // vanilla
		pool2 := buffer.NewDRAMPool(rig.store, rig.datasetPages*2+64, cxl.BufferDRAMProfile(), cfg.Registry)
		e, r, rerr := recovery.Recover(clk2, "vanilla", pool2, rig.ws, rig.store)
		if rerr != nil {
			return nil, rerr
		}
		rig.pool = pool2
		eng2, res = e, r
	}
	res.Publish(cfg.Registry)
	run.recoverySec = float64(res.Nanos()) / 1e9
	run.points = append(run.points, timelinePoint{t: float64(clk2.Now()-start) / 1e9, x: 0})

	// Post-recovery phase: resume the workload on the recovered engine.
	sb2, err := workload.AttachSysbench(clk2, eng2, 1, rows)
	if err != nil {
		return nil, err
	}
	rig.eng, rig.sb, rig.clk = eng2, sb2, clk2
	op2 := mix(sb2, clk2)
	resumeAt := clk2.Now()
	last = rig.snap()
	warmed := false
	// The first buckets after restart are fine-grained so cold-buffer
	// warm-up is visible before it averages out.
	const fine = 5
	edges := make([]int64, 0, fine+postBuckets)
	for i := 1; i <= fine; i++ {
		edges = append(edges, resumeAt+int64(i)*bucketNs/fine)
	}
	for b := 2; b <= postBuckets; b++ {
		edges = append(edges, resumeAt+int64(b)*bucketNs)
	}
	for _, edge := range edges {
		for clk2.Now() < edge {
			if err := op2(); err != nil {
				return nil, fmt.Errorf("fig10 %s post-crash: %w", kind, err)
			}
		}
		cur := rig.snap()
		d, derr := demandsBetween(last, cur)
		if derr != nil {
			return nil, derr
		}
		last = cur
		mres := perf.MVA(perf.PoolingStations(d, perf.DefaultRates(), 1, vCPUsPerInstance), fig10Threads)
		run.points = append(run.points, timelinePoint{t: float64(clk2.Now()-start) / 1e9, x: mres.Throughput})
		if run.firstBucket == 0 && run.preCrashX > 0 {
			run.firstBucket = mres.Throughput / run.preCrashX
		}
		if !warmed && mres.Throughput >= 0.9*run.preCrashX {
			run.warmupSec = float64(clk2.Now()-crashAt)/1e9 - run.recoverySec
			warmed = true
		}
	}
	if !warmed {
		run.warmupSec = float64(clk2.Now()-crashAt)/1e9 - run.recoverySec
	}
	return run, nil
}

func runFig10(cfg Config) ([]*Table, error) {
	var out []*Table
	for _, wl := range []string{"read-only", "read-write", "write-only"} {
		runs := make([]*fig10Run, 0, 3)
		for _, kind := range []PoolKind{PoolDRAM, PoolTiered, PoolCXL} {
			r, err := runTimeline(cfg, kind, wl)
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
		}
		t := &Table{ID: "fig10", Title: "Recovery timeline, Sysbench " + wl + " (throughput K-QPS per bucket)",
			Headers: []string{"t (s)", "Vanilla", "RDMA-based", "PolarRecv"}}
		// Align buckets by index (all runs share bucket geometry).
		n := len(runs[0].points)
		for _, r := range runs {
			if len(r.points) < n {
				n = len(r.points)
			}
		}
		for i := 0; i < n; i++ {
			t.AddRow(f2(runs[0].points[i].t),
				kqps(runs[0].points[i].x*1e0),
				kqps(runs[1].points[i].x*1e0),
				kqps(runs[2].points[i].x*1e0))
		}
		s := &Table{ID: "fig10", Title: "Recovery summary, Sysbench " + wl,
			Headers: []string{"scheme", "recovery (s)", "warm-up to 90% (s)", "restart throughput", "pre-crash K-QPS"}}
		for _, r := range runs {
			s.AddRow(r.scheme, fmt.Sprintf("%.3f", r.recoverySec), fmt.Sprintf("%.3f", r.warmupSec),
				fmt.Sprintf("%.0f%% of pre-crash", r.firstBucket*100), kqps(r.preCrashX))
		}
		s.Notes = append(s.Notes,
			"time axis compressed ~10x vs the paper's 60 s pre-crash phase; compare ratios:",
			"paper read-write: recovery 110 s vanilla / 33 s RDMA / 8 s PolarRecv (13.75x / 4.13x speedup)",
			"paper read-only: warm-up 30 s vanilla / 10 s RDMA / ~2 s PolarRecv")
		out = append(out, t, s)
	}
	return out, nil
}
