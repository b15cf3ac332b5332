package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"

	polar "polarcxlmem"
	"polarcxlmem/internal/checkpoint"
	"polarcxlmem/internal/flusher"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/wal"
	"polarcxlmem/internal/workload"
)

// sessions is how many client sessions issue the routed requests; a
// request's session picks its router shard.
const sessions = 10_000

// routedWL is one open-loop workload's request mix and oracle.
type routedWL interface {
	// gen fills in a request's session, kind and checked body.
	gen(r *request)
	// endRound runs after each measured round, outside its timing: a crash,
	// a recovery, and a check of what must have survived.
	endRound(rep *report, fixed bool) error
}

// routedSpec sizes an open-loop workload.
type routedSpec struct {
	rig         rigConfig
	rate        float64 // nominal offered load, requests per virtual second
	limit       int64   // latency limit on the p99.9, virtual nanos
	roundReqs   int
	fixedRounds int // rounds whose virtual numbers are reported
	probeReqs   int // requests per capacity probe
	newWL       func(rg *rig) routedWL
}

// runRouted builds the rig, runs the fixed rounds and the capacity search,
// then fills the wall budget.
func runRouted(cfg runConfig, spec routedSpec) (*report, error) {
	rep := &report{}
	var o *observed
	if cfg.traced {
		o = newObserved()
		rep.tr = o.tr
	}
	rg, err := build(rep, cfg, func() (*rig, error) { return newRig(spec, cfg.seed, o) })
	if err != nil {
		return nil, err
	}
	rg.loop.tr = rep.tr
	var waits []int64
	var vreqs, vspan int64
	round := func(fixed bool) (int64, error) {
		rg.led.start()
		start := rg.now()
		reqs := rg.loop.run(spec.roundReqs, spec.rate, start, rg.wl.gen)
		vend := rg.loop.maxClock()
		rg.led.stop()
		out := summarize(reqs)
		rep.account(int64(len(reqs)), out.failed, out.first)
		if fixed {
			rep.lat = append(rep.lat, out.lat...)
			vreqs += int64(len(reqs))
			vspan += vend - start
			if o != nil {
				for _, r := range reqs {
					waits = append(waits, r.start-r.arrival)
				}
			}
		}
		return int64(len(reqs)), nil
	}
	after := func() error {
		rg.loop.tr = nil // probes are not part of the traced rounds
		rate := rg.loop.capacity(spec.rate, 4*spec.rate, spec.probeReqs, spec.limit, rg.wl.gen, func(reqs []*request) {
			var bad int64
			var first error
			for _, r := range reqs {
				if r.err != nil {
					bad++
					if first == nil {
						first = r.err
					}
				}
			}
			rep.account(int64(len(reqs)), bad, first)
		})
		rep.vcapKops = rate / 1000
		rg.loop.tr = rep.tr
		return nil
	}
	if err := rep.measure(cfg, spec.fixedRounds, round, rg.wl.endRound, after); err != nil {
		return nil, err
	}
	rep.vtputKops = float64(vreqs) / float64(vspan) * 1e6
	if o != nil {
		if rg.loop.failure != nil {
			return nil, rg.loop.failure
		}
		if err := o.violations(); err != nil {
			return nil, err
		}
		rep.layers = routedLayers(rg, float64(rep.fixedReqs), waits, rep.recs)
	}
	return rep, nil
}

// account adds a batch of attempted requests and their failures.
func (r *report) account(attempted, failed int64, first error) {
	r.attempted += attempted
	r.failed += failed
	if first != nil && !r.logged {
		r.logged = true
		fmt.Fprintf(os.Stderr, "perfbench: first failure: %v\n", first)
	}
}

// scatter spreads Zipf ranks over the key space, so hot keys do not share
// leaf pages just because their ranks are adjacent.
func scatter(rank uint64, rows int64) int64 {
	return int64(rank*2654435761%uint64(rows)) + 1
}

// --- read-fit --------------------------------------------------------------

// readFitSpec: point selects, Zipf s=1.1 over 50k rows of 188 B that fit a
// 2048-page CXL pool, open-loop Poisson at 20k req/s over 2 shards, batch
// 16, p99.9 limit 1 ms. The hit path does nearly all the work. Checkpoints
// are on because read-only batches still append commit markers: without
// log truncation, each restart would scan back to the preload and grow
// slower the longer the run lasted.
func readFitSpec(small bool) routedSpec {
	s := routedSpec{
		rig: rigConfig{
			rows:       50_000,
			instance:   polar.InstanceConfig{Name: "db", PoolPages: 2048, Checkpoint: &checkpoint.Policy{}},
			shards:     2,
			batch:      16,
			warmupReqs: 5_000,
		},
		rate:        20_000,
		limit:       simclock.Millisecond,
		roundReqs:   20_000,
		fixedRounds: 10,
		probeReqs:   20_000,
	}
	if small {
		s.rig.rows, s.rig.instance.PoolPages = 5_000, 256
		s.rig.warmupReqs, s.roundReqs, s.fixedRounds, s.probeReqs = 500, 2_000, 5, 2_000
	}
	s.newWL = func(rg *rig) routedWL {
		return &readFit{rg: rg, rows: s.rig.rows, zipf: rand.NewZipf(rg.rng, 1.1, 1, uint64(s.rig.rows-1))}
	}
	return s
}

func runReadFit(cfg runConfig) (*report, error) { return runRouted(cfg, readFitSpec(cfg.small)) }

type readFit struct {
	rg   *rig
	rows int64
	zipf *rand.Zipf
}

func (w *readFit) gen(r *request) {
	rg := w.rg
	r.session = rg.rng.Intn(sessions)
	key := scatter(w.zipf.Uint64(), w.rows)
	r.kind = "get"
	r.body = rg.op(r, workload.PointSelectCPU, func(tx *txn.Txn) error {
		v, err := tx.Get(rg.table, key)
		if err == nil {
			if cerr := checkRow(v, key, 0); cerr != nil {
				r.err = cerr
			}
		}
		return err
	})
}

// endRound crashes and recovers the instance, then reads back a key
// sample: restart time with a warm CXL pool.
func (w *readFit) endRound(rep *report, fixed bool) error {
	res, wall, err := w.rg.crashRecover(nil)
	if err != nil {
		return err
	}
	rep.recovered(res, wall, fixed)
	keys := make([]int64, 200)
	for j := range keys {
		keys[j] = 1 + w.rg.rng.Int63n(w.rows)
	}
	bad, first := w.rg.readBack(keys, func(int64) uint64 { return 0 })
	rep.account(0, bad, first)
	return nil
}

// --- write-crash -----------------------------------------------------------

// writeCrashSpec: 60% get / 25% update / 10% insert / 5% 20-row scan over
// 100k rows in a 400-page pool (about 6x too small), group commit,
// background flush and checkpoints on, open-loop Poisson at 2k req/s,
// p99.9 limit 5 ms. Every measured round ends in a crash and recovery.
func writeCrashSpec(small bool) routedSpec {
	s := routedSpec{
		rig: rigConfig{
			rows: 100_000,
			instance: polar.InstanceConfig{
				Name:            "db",
				PoolPages:       400,
				GroupCommit:     &wal.GroupPolicy{},
				BackgroundFlush: &flusher.Policy{},
				Checkpoint:      &checkpoint.Policy{},
			},
			shards:     2,
			batch:      16,
			warmupReqs: 1_000,
		},
		rate:        2_000,
		limit:       5 * simclock.Millisecond,
		roundReqs:   5_000,
		fixedRounds: 20,
		probeReqs:   10_000,
	}
	if small {
		s.rig.rows, s.rig.instance.PoolPages = 10_000, 48
		s.rig.warmupReqs, s.roundReqs, s.fixedRounds, s.probeReqs = 200, 500, 4, 1_000
	}
	s.newWL = func(rg *rig) routedWL {
		return &writeCrash{rg: rg, rows: s.rig.rows, nextKey: s.rig.rows + 1,
			cur: map[int64]uint64{}, acked: map[int64]uint64{}, written: map[int64]bool{}}
	}
	return s
}

func runWriteCrash(cfg runConfig) (*report, error) { return runRouted(cfg, writeCrashSpec(cfg.small)) }

// writeCrash keeps a shadow of the table: cur is what executed ops wrote,
// acked what Done(nil) acknowledged; written lists keys to check after the
// next recovery.
type writeCrash struct {
	rg       *rig
	rows     int64
	nextKey  int64   // next fresh key to insert
	inserted []int64 // acknowledged inserts
	seq      uint64  // last version handed out
	cur      map[int64]uint64
	acked    map[int64]uint64
	written  map[int64]bool
}

// existing picks a key that is durably present: preloaded or an
// acknowledged insert.
func (w *writeCrash) existing() int64 {
	i := w.rg.rng.Int63n(w.rows + int64(len(w.inserted)))
	if i < w.rows {
		return i + 1
	}
	return w.inserted[i-w.rows]
}

func (w *writeCrash) gen(r *request) {
	rg := w.rg
	r.session = rg.rng.Intn(sessions)
	p := rg.rng.Intn(100)
	switch {
	case p < 60:
		key := w.existing()
		r.kind = "get"
		r.body = rg.op(r, workload.PointSelectCPU, func(tx *txn.Txn) error {
			v, err := tx.Get(rg.table, key)
			if err == nil {
				if cerr := checkRow(v, key, w.cur[key]); cerr != nil {
					r.err = cerr
				}
			}
			return err
		})
	case p < 95:
		key, cpu := w.existing(), int64(workload.UpdateCPU)
		r.kind = "update"
		if p >= 85 {
			key, cpu = w.nextKey, workload.InsertCPU
			w.nextKey++
			r.kind = "insert"
		}
		w.seq++
		ver := w.seq
		r.body = rg.op(r, cpu, func(tx *txn.Txn) error {
			var err error
			if r.kind == "insert" {
				err = tx.Insert(rg.table, key, encodeRow(key, ver))
			} else {
				err = tx.Update(rg.table, key, encodeRow(key, ver))
			}
			if err == nil {
				w.cur[key] = ver
			}
			return err
		})
		r.acked = func() {
			w.acked[key] = ver
			w.written[key] = true
			if r.kind == "insert" {
				w.inserted = append(w.inserted, key)
			}
		}
	default:
		from := w.existing()
		r.kind = "scan"
		r.body = rg.op(r, workload.RangeSelectCPU, func(tx *txn.Txn) error {
			kvs, err := tx.Scan(rg.table, from, 20)
			if err == nil && len(kvs) == 0 {
				r.err = fmt.Errorf("scan from key %d returned nothing", from)
			}
			for _, kv := range kvs {
				if cerr := checkRow(kv.Val, kv.Key, w.cur[kv.Key]); cerr != nil && r.err == nil {
					r.err = cerr
				}
			}
			return err
		})
	}
}

// openUpdates is how many uncommitted updates the doomed transaction holds
// when the instance crashes.
const openUpdates = 8

// endRound ends a segment: an open facade transaction with uncommitted
// updates, Instance.Crash, Cluster.Recover, then a durability check of
// every key written since the last check and of the doomed updates.
func (w *writeCrash) endRound(rep *report, fixed bool) error {
	open := func() error {
		tbl, err := w.rg.inst.OpenTable("t")
		if err != nil {
			return err
		}
		tx := w.rg.inst.Begin()
		for i := 0; i < openUpdates; i++ {
			key := w.existing()
			if err := tx.Update(tbl, key, encodeRow(key, 1<<63|uint64(i))); err != nil {
				return fmt.Errorf("open txn update key %d: %w", key, err)
			}
			w.written[key] = true
		}
		return nil // left open: the crash comes next
	}
	res, wall, err := w.rg.crashRecover(open)
	if err != nil {
		return err
	}
	rep.recovered(res, wall, fixed)
	keys := make([]int64, 0, len(w.written))
	for k := range w.written {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	bad, first := w.rg.readBack(keys, func(k int64) uint64 { return w.acked[k] })
	rep.account(0, bad, first)
	w.written = map[int64]bool{}
	return nil
}
