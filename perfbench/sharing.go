package main

import (
	"fmt"
	"math/rand"
	"runtime"

	polar "polarcxlmem"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/workload"
)

// sharingSpec: a 4-primary SharingCluster over the paper's N+1-group layout
// (64 pages per group, 30% of queries on the shared group), running the
// sysbench read-write transaction in a closed loop with one client per
// node, each on its own clock; the lowest clock always goes next. Every
// round ends with one primary crashing and rejoining.
type sharingSpec struct {
	nodes, pagesPerGroup, sharedPct int
	warmupTxns, roundTxns           int
	fixedRounds                     int
}

func sharingSpecFor(small bool) sharingSpec {
	if small {
		return sharingSpec{nodes: 4, pagesPerGroup: 16, sharedPct: 30, warmupTxns: 20, roundTxns: 100, fixedRounds: 3}
	}
	return sharingSpec{nodes: 4, pagesPerGroup: 64, sharedPct: 30, warmupTxns: 200, roundTxns: 1_000, fixedRounds: 10}
}

// shRig is one facade-built sharing cluster and its clients.
type shRig struct {
	sc     *polar.SharingCluster
	wl     *workload.SharedSysbench
	clocks []*simclock.Clock
	rngs   []*rand.Rand
	nextID int64
	tr     *tracer
	o      *observed
	led    *ledger
}

func newShRig(spec sharingSpec, seed int64, o *observed) (*shRig, error) {
	var opts []polar.Option
	if o != nil {
		opts = append(opts, polar.WithObserver(o.reg), polar.WithInjector(o.inj))
	}
	sc, err := polar.NewSharingCluster(polar.SharingConfig{Nodes: spec.nodes, DBPPages: 512}, opts...)
	if err != nil {
		return nil, err
	}
	layout, err := workload.NewLayout(sc.Clock(), sc.Storage(), spec.nodes, spec.pagesPerGroup)
	if err != nil {
		return nil, err
	}
	sh := &shRig{sc: sc, wl: &workload.SharedSysbench{Layout: layout, SharedPct: spec.sharedPct}, o: o}
	for i := 0; i < spec.nodes; i++ {
		sh.clocks = append(sh.clocks, simclock.NewAt(sc.Clock().Now()))
		sh.rngs = append(sh.rngs, workload.WorkerRNG(seed, i))
	}
	if o != nil {
		sh.led = newLedger(sh.snapshot)
	}
	for i := 0; i < spec.warmupTxns; i++ {
		if _, err := sh.txn(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return sh, nil
}

// next is the client with the lowest clock.
func (sh *shRig) next() int {
	best := 0
	for i, c := range sh.clocks {
		if c.Now() < sh.clocks[best].Now() {
			best = i
		}
	}
	return best
}

func (sh *shRig) maxClock() int64 {
	var m int64
	for _, c := range sh.clocks {
		m = max(m, c.Now())
	}
	return m
}

// txn runs one read-write transaction on the lowest-clock client and
// returns its virtual latency.
func (sh *shRig) txn() (int64, error) {
	i := sh.next()
	clk := sh.clocks[i]
	sh.nextID++
	t0 := clk.Now()
	sp := sh.tr.begin("sharing.txn", -1, sh.nextID, t0)
	err := sh.wl.ReadWriteTxn(clk, sh.sc.Node(i), i, sh.rngs[i])
	sh.tr.end(sp, clk.Now())
	if err != nil {
		return 0, fmt.Errorf("node %d txn %d: %w", i, sh.nextID, err)
	}
	return clk.Now() - t0, nil
}

// snapshot reads the sharing protocol's counters for the traced pass.
func (sh *shRig) snapshot() counts {
	c := counts{}
	regCounts(sh.o.reg, c)
	for i := 0; i < sh.sc.Nodes(); i++ {
		s := sh.sc.Node(i).Stats()
		c["node.get_page_rpcs"] += float64(s.GetPageRPCs)
		c["node.invalidations"] += float64(s.Invalidations)
		c["node.removals"] += float64(s.Removals)
	}
	s := sh.sc.Storage().Device().Stats()
	c["storage.busy"], c["storage.queue"] = float64(s.BusyNanos), float64(s.QueueNanos)
	return c
}

func runSharing(cfg runConfig) (*report, error) {
	spec := sharingSpecFor(cfg.small)
	rep := &report{}
	var o *observed
	if cfg.traced {
		o = newObserved()
		rep.tr = o.tr
	}
	sh, err := build(rep, cfg, func() (*shRig, error) { return newShRig(spec, cfg.seed, o) })
	if err != nil {
		return nil, err
	}
	sh.tr = rep.tr
	var vtxns, vspan int64
	round := func(fixed bool) (int64, error) {
		sh.led.start()
		start := sh.maxClock()
		var failed int64
		var first error
		for i := 0; i < spec.roundTxns; i++ {
			lat, err := sh.txn()
			if err != nil {
				failed++
				if first == nil {
					first = err
				}
				continue
			}
			if fixed {
				rep.lat = append(rep.lat, lat)
			}
		}
		sh.led.stop()
		rep.account(int64(spec.roundTxns), failed, first)
		if fixed {
			vtxns += int64(spec.roundTxns) - failed
			vspan += sh.maxClock() - start
		}
		return int64(spec.roundTxns), nil
	}
	crashes := 0
	between := func(rep *report, fixed bool) error {
		crashes++
		return sh.crashRejoin(crashes%spec.nodes, rep, fixed)
	}
	after := func() error {
		// Virtual capacity of a closed loop at a fixed client count is the
		// throughput it runs at.
		rep.vtputKops = float64(vtxns) / float64(vspan) * 1e6
		rep.vcapKops = rep.vtputKops
		return nil
	}
	if err := rep.measure(cfg, spec.fixedRounds, round, between, after); err != nil {
		return nil, err
	}
	if o != nil {
		if err := o.violations(); err != nil {
			return nil, err
		}
		rep.layers = baseLayers(sh.led.total, o.tr.aggregate(), float64(rep.fixedReqs))
		rep.layers["storage.busy_vus"] = metric{sh.led.total.per("storage.busy", float64(rep.fixedReqs)) / 1000, "us"}
		rep.layers["storage.queue_vus"] = metric{sh.led.total.per("storage.queue", float64(rep.fixedReqs)) / 1000, "us"}
	}
	return rep, nil
}

// crashRejoin crashes primary i and brings it back: the fusion server
// evicts the dead incarnation's locks, flags and suspect frames, a fresh
// node takes its name, and the node runs its first transaction on an empty
// cache. The virtual and wall time from the rejoin to the end of that
// transaction are the sharing workload's recovery time.
func (sh *shRig) crashRejoin(i int, rep *report, fixed bool) error {
	if err := sh.sc.CrashPrimary(i); err != nil {
		return err
	}
	clk, node := sh.sc.Clock(), sh.clocks[i]
	clk.AdvanceTo(sh.maxClock())
	v0 := clk.Now()
	runtime.GC() // as in rig.crashRecover
	sp := sh.tr.begin("facade.recover", -1, 0, v0)
	var txnErr error
	wall, _, err := host.timed(func() error {
		if err := sh.sc.RejoinPrimary(i); err != nil {
			return fmt.Errorf("rejoin node %d: %w", i, err)
		}
		node.AdvanceTo(clk.Now())
		txnErr = sh.wl.ReadWriteTxn(node, sh.sc.Node(i), i, sh.rngs[i])
		return nil
	})
	if err != nil {
		return err
	}
	sh.tr.end(sp, node.Now())
	var failed int64
	if txnErr != nil {
		failed = 1
		txnErr = fmt.Errorf("node %d first txn after rejoin: %w", i, txnErr)
	}
	rep.account(1, failed, txnErr)
	rep.recoverW = append(rep.recoverW, wall)
	if fixed {
		rep.recoverV = append(rep.recoverV, node.Now()-v0)
	}
	return nil
}
