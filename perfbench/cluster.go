package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"

	polar "polarcxlmem"
	"polarcxlmem/internal/btree"
	"polarcxlmem/internal/dataplane"
	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/recovery"
	"polarcxlmem/internal/txn"
)

// rowBytes is the size of every value the routed workloads write.
const rowBytes = 188

// encodeRow builds key's value at version: the key and version in the
// first 16 bytes, then filler derived from both, so a read can be checked
// against the version it should see.
func encodeRow(key int64, version uint64) []byte {
	b := make([]byte, rowBytes)
	binary.LittleEndian.PutUint64(b, uint64(key))
	binary.LittleEndian.PutUint64(b[8:], version)
	f := byte(uint64(key)*31 + version*7)
	for i := 16; i < rowBytes; i++ {
		b[i] = f + byte(i)
	}
	return b
}

// checkRow reports whether val is key's value at version.
func checkRow(val []byte, key int64, version uint64) error {
	if len(val) != rowBytes {
		return fmt.Errorf("key %d: value of %d bytes, want %d", key, len(val), rowBytes)
	}
	gk, gv := int64(binary.LittleEndian.Uint64(val)), binary.LittleEndian.Uint64(val[8:])
	if gk != key || gv != version {
		return fmt.Errorf("key %d: read (key %d, version %d), want version %d", key, gk, gv, version)
	}
	f := byte(uint64(key)*31 + version*7)
	if val[rowBytes-1] != f+byte(rowBytes-1) {
		return fmt.Errorf("key %d: filler corrupt", key)
	}
	return nil
}

// rigConfig sizes one routed workload's cluster.
type rigConfig struct {
	rows       int64 // preloaded rows, keys 1..rows
	instance   polar.InstanceConfig
	shards     int
	batch      int
	warmupReqs int
}

// rig is one facade-built cluster with a single instance, fronted by a
// Step-mode router the benchmark drives.
type rig struct {
	cluster *polar.Cluster
	inst    *polar.Instance
	table   *btree.Tree
	dpCfg   dataplane.Config
	loop    *loop
	rng     *rand.Rand // request stream
	wl      routedWL
	o       *observed // nil when untraced
	led     *ledger   // nil when untraced
}

// newRig builds the cluster, preloads rows, and warms up.
func newRig(spec routedSpec, seed int64, o *observed) (*rig, error) {
	cfg := spec.rig
	var opts []polar.Option
	if o != nil {
		opts = append(opts, polar.WithObserver(o.reg), polar.WithInjector(o.inj))
	}
	// The box holds the pool plus a checkpoint area.
	cluster, err := polar.NewCluster(polar.ClusterConfig{PoolPages: cfg.instance.PoolPages + 64}, opts...)
	if err != nil {
		return nil, err
	}
	inst, err := cluster.Start(cfg.instance)
	if err != nil {
		return nil, err
	}
	tbl, err := inst.CreateTable("t")
	if err != nil {
		return nil, err
	}
	tx := inst.Begin()
	for k := int64(1); k <= cfg.rows; k++ {
		if err := tx.Insert(tbl, k, encodeRow(k, 0)); err != nil {
			return nil, fmt.Errorf("preload key %d: %w", k, err)
		}
		if k%512 == 0 {
			if err := tx.Commit(); err != nil {
				return nil, err
			}
			tx = inst.Begin()
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	rg := &rig{
		cluster: cluster,
		inst:    inst,
		table:   tbl.Tree(),
		dpCfg:   dataplane.Config{Workers: cfg.shards, BatchSize: cfg.batch, QueueDepth: dataplane.DefaultQueueDepth},
		rng:     rand.New(rand.NewSource(seed)),
		o:       o,
	}
	rg.newRouter()
	if o != nil {
		rg.led = newLedger(rg.snapshot)
	}
	rg.wl = spec.newWL(rg)
	warm := rg.loop.run(cfg.warmupReqs, spec.rate, inst.Clock().Now(), rg.wl.gen)
	if out := summarize(warm); out.failed > 0 {
		return nil, fmt.Errorf("warm-up: %w", out.first)
	}
	return rg, nil
}

// newRouter fronts the current instance's engine with a fresh Step-mode
// router. Its worker clocks start at 0; every arrival is stamped at or
// after the instance clock, so the first batch of each shard starts there.
func (rg *rig) newRouter() {
	cfg := rg.dpCfg
	if rg.o != nil {
		cfg.Registry = rg.o.reg
		cfg.Actor = "dp-" + rg.inst.Name()
		rg.inst.Pool().Cache().SetInjector(rg.o.inj)
	}
	router := dataplane.New(rg.inst.Engine(), cfg)
	if rg.loop == nil {
		rg.loop = newLoop(router, rg.dpCfg, rg.rng)
	} else {
		rg.loop.router = router
	}
}

// op is a request body: it charges the statement's CPU, then runs call
// inside a txn.<kind> span.
func (rg *rig) op(r *request, cpu int64, call func(tx *txn.Txn) error) func(tx *txn.Txn) error {
	return func(tx *txn.Txn) error {
		clk := tx.Clock()
		clk.Advance(cpu)
		tr := rg.loop.tr
		sp := tr.begin("txn."+r.kind, tr.opOf(r.id), r.id, clk.Now())
		err := call(tx)
		tr.end(sp, clk.Now())
		return err
	}
}

// now is the virtual time the next arrivals may start at: the instance
// clock, brought up to the furthest shard so set-up, recovery and oracle
// time never leak into request latency.
func (rg *rig) now() int64 {
	rg.inst.Clock().AdvanceTo(rg.loop.maxClock())
	return rg.inst.Clock().Now()
}

// crashRecover crashes the instance (open is run first, inside the doomed
// incarnation) and restarts it with PolarRecv, returning the recovery
// report and its wall time.
func (rg *rig) crashRecover(open func() error) (*recovery.Result, float64, error) {
	v := rg.now()
	if open != nil {
		if err := open(); err != nil {
			return nil, 0, err
		}
	}
	tr := rg.loop.tr
	sp := tr.begin("facade.crash", -1, 0, v)
	rg.inst.Crash()
	tr.end(sp, rg.inst.Clock().Now())
	// Collect first, so the timed recovery does not pay for collecting the
	// measured rounds' garbage.
	runtime.GC()
	sp = tr.begin("facade.recover", -1, 0, rg.inst.Clock().Now())
	var inst *polar.Instance
	var res *recovery.Result
	wall, _, err := host.timed(func() (err error) {
		inst, res, err = rg.cluster.Recover(rg.inst.Name())
		return err
	})
	if err != nil {
		return nil, 0, fmt.Errorf("recover: %w", err)
	}
	tr.end(sp, inst.Clock().Now())
	rg.inst = inst
	tbl, err := inst.OpenTable("t")
	if err != nil {
		return nil, 0, err
	}
	rg.table = tbl.Tree()
	rg.newRouter()
	return res, wall, nil
}

// readBack reads keys through a facade transaction on the live instance,
// checks each against want, and reports how many were wrong or missing.
func (rg *rig) readBack(keys []int64, want func(int64) uint64) (int64, error) {
	tbl, err := rg.inst.OpenTable("t")
	if err != nil {
		return int64(len(keys)), err
	}
	var bad int64
	var first error
	tx := rg.inst.Begin()
	for _, k := range keys {
		v, err := tx.Get(tbl, k)
		if err == nil {
			err = checkRow(v, k, want(k))
		}
		if err != nil {
			bad++
			if first == nil {
				first = fmt.Errorf("read back key %d: %w", k, err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		return int64(len(keys)), err
	}
	return bad, first
}

// snapshot reads every layer counter the traced pass reports. Counters of
// the buffer pool, CPU cache, engine daemons and router restart with each
// recovered instance; the ledger only ever subtracts within one
// incarnation.
func (rg *rig) snapshot() counts {
	c := counts{}
	regCounts(rg.o.reg, c)
	p := rg.inst.Pool().Stats()
	c["pool.hits"], c["pool.misses"] = float64(p.Hits), float64(p.Misses)
	c["pool.evictions"] = float64(p.Evictions)
	c["pool.storage_reads"], c["pool.storage_writes"] = float64(p.StorageReads), float64(p.StorageWrites)
	cs := rg.inst.Pool().Cache().Stats()
	c["cache.hits"], c["cache.misses"] = float64(cs.Hits), float64(cs.Misses)
	c["cache.writebacks"], c["cache.bytes_fetched"] = float64(cs.WriteBacks), float64(cs.BytesFetched)
	c["inj.flush_line"] = float64(rg.o.inj.count(fault.OpFlushLine))
	eng := rg.inst.Engine()
	if f := eng.Flusher(); f != nil {
		c["flush.runs"], c["flush.pages"] = float64(f.Runs()), float64(f.PagesFlushed())
	}
	if cp := eng.Checkpointer(); cp != nil {
		c["ckpt.published"], c["ckpt.deferred"] = float64(cp.Published()), float64(cp.Deferred())
	}
	w := eng.Log().Store().Device().Stats()
	c["wal.requests"], c["wal.bytes"], c["wal.busy"] = float64(w.Requests), float64(w.Units), float64(w.BusyNanos)
	s := rg.cluster.Storage(rg.inst.Name()).Device().Stats()
	c["storage.busy"], c["storage.queue"] = float64(s.BusyNanos), float64(s.QueueNanos)
	d := rg.loop.router.Stats()
	c["dp.requests"], c["dp.batches"], c["dp.overhead"] = float64(d.Requests), float64(d.Batches), float64(d.OverheadNanos)
	return c
}

// routedLayers turns a routed workload's traced pass into the per-layer
// metrics: counter totals over the measured intervals, span sums, queue
// waits, and the per-crash recovery reports.
func routedLayers(rg *rig, reqs float64, waits []int64, recs []*recovery.Result) map[string]metric {
	c := rg.led.total
	agg := rg.o.tr.aggregate()
	m := baseLayers(c, agg, reqs)
	m["dataplane.mean_batch"] = metric{c.per("dp.requests", c["dp.batches"]), "req/batch"}
	m["dataplane.overhead_vus"] = metric{c.per("dp.overhead", reqs) / 1000, "us"}
	m["dataplane.wait_vus_p50"] = metric{quantile(waits, 0.5) / 1000, "us"}
	m["dataplane.wait_vus_p999"] = metric{quantile(waits, 0.999) / 1000, "us"}
	if a := agg["dataplane.step"]; a != nil {
		m["dataplane.step_self_wall_us"] = metric{float64(a.selfWall) / reqs / 1000, "us"}
	}
	m["btree.pages_per_req"] = metric{(c["pool.hits"] + c["pool.misses"]) / reqs, "1/req"}
	m["frametab.hit_ratio"] = metric{c.ratio("pool.hits", "pool.misses"), "ratio"}
	m["frametab.misses_per_req"] = metric{c.per("pool.misses", reqs), "1/req"}
	m["frametab.evictions_per_req"] = metric{c.per("pool.evictions", reqs), "1/req"}
	m["frametab.storage_writes_per_req"] = metric{c.per("pool.storage_writes", reqs), "1/req"}
	m["simcpu.miss_ratio"] = metric{c.ratio("cache.misses", "cache.hits"), "ratio"}
	m["simcpu.bytes_fetched_per_req"] = metric{c.per("cache.bytes_fetched", reqs), "B/req"}
	m["simcpu.writebacks_per_req"] = metric{c.per("cache.writebacks", reqs), "1/req"}
	m["simcpu.flush_lines_per_req"] = metric{c.per("inj.flush_line", reqs), "1/req"}
	// Each log force occupies the log device once for the fsync and once
	// for the bytes.
	m["wal.forces_per_req"] = metric{c.per("wal.requests", reqs) / 2, "1/req"}
	m["wal.bytes_per_req"] = metric{c.per("wal.bytes", reqs), "B/req"}
	m["wal.busy_vus"] = metric{c.per("wal.busy", reqs) / 1000, "us"}
	m["flush.pages_per_req"] = metric{c.per("flush.pages", reqs), "1/req"}
	m["flush.runs_per_kreq"] = metric{c.per("flush.runs", reqs) * 1000, "1/kreq"}
	m["checkpoint.published"] = metric{c["ckpt.published"], "count"}
	m["checkpoint.deferred"] = metric{c["ckpt.deferred"], "count"}
	m["checkpoint.drain_pages_mean"] = metric{c.per("checkpoint.drain_pages.sum", c["checkpoint.drain_pages.count"]), "pages"}
	m["storage.reads_per_req"] = metric{c.per("pool.storage_reads", reqs), "1/req"}
	m["storage.writes_per_req"] = metric{c.per("pool.storage_writes", reqs), "1/req"}
	m["storage.busy_vus"] = metric{c.per("storage.busy", reqs) / 1000, "us"}
	m["storage.queue_vus"] = metric{c.per("storage.queue", reqs) / 1000, "us"}
	recoveryLayers(m, recs)
	return m
}

// recoveryLayers reports the median of each recovery counter per crash.
func recoveryLayers(m map[string]metric, recs []*recovery.Result) {
	med := func(f func(r *recovery.Result) int64) float64 {
		xs := make([]int64, len(recs))
		for i, r := range recs {
			xs[i] = f(r)
		}
		return medianInt(xs)
	}
	m["recovery.pages_trusted"] = metric{med(func(r *recovery.Result) int64 { return int64(r.PagesTrusted) }), "pages"}
	m["recovery.pages_rebuilt"] = metric{med(func(r *recovery.Result) int64 { return int64(r.PagesRebuilt) }), "pages"}
	m["recovery.redo_records"] = metric{med(func(r *recovery.Result) int64 { return int64(r.RedoRecords) }), "records"}
	m["recovery.redo_applied"] = metric{med(func(r *recovery.Result) int64 { return int64(r.RedoApplied) }), "records"}
	m["recovery.log_scan_kb"] = metric{med(func(r *recovery.Result) int64 { return r.LogScanBytes }) / 1024, "KB"}
	m["recovery.undone_txns"] = metric{med(func(r *recovery.Result) int64 { return int64(r.UndoneTxns) }), "txns"}
}
