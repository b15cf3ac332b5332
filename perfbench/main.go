// Command perfbench is the repository's benchmark. It builds each system
// through the public facade, drives one of three workloads, checks every
// output against an oracle, and prints one JSON object as the last line of
// standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (virtual latency and
// capacity from the model, wall throughput and allocations from the Go
// code, set-up and recovery time). With -trace 1 the benchmark runs the
// workload's deterministic part twice, once plain and once with an
// observer, checkers, a counting fault injector and in-memory spans, checks
// that observing did not change a single virtual number, and prints the
// per-layer metrics instead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"

	"polarcxlmem/internal/recovery"
)

// metric is one named number in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps a -workload name to its runner.
var workloads = map[string]func(cfg runConfig) (*report, error){
	"read-fit":    runReadFit,
	"write-crash": runWriteCrash,
	"sharing-rmw": runSharing,
}

// runConfig is what one pass of a workload is given.
type runConfig struct {
	seed    int64
	seconds float64 // wall budget of the measured phase; 0 = the fixed part only
	setups  int     // how many times the system is built (set-up median)
	traced  bool    // attach observer, checkers, injector and spans
	small   bool    // test-sized inputs
}

func main() {
	wl := flag.String("workload", "", "workload: read-fit, write-crash or sharing-rmw")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "wall seconds the measured phase lasts")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for the traced run's span file")
	flag.Parse()
	// One driving goroutine: with a single P the collector's work runs on
	// the measured core too, so wall numbers do not depend on whether a
	// second core happens to be free.
	runtime.GOMAXPROCS(1)
	run, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		os.Exit(2)
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedResult(*wl, run, *seed, *out)
	} else {
		res, err = plainResult(run, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// plainResult runs the untraced pass and reports the end-to-end metrics.
func plainResult(run func(runConfig) (*report, error), seed int64, seconds float64) (*result, error) {
	rep, err := run(runConfig{seed: seed, seconds: seconds, setups: 3})
	if err != nil {
		return nil, err
	}
	return &result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.endToEnd(),
	}, nil
}

// tracedResult runs the fixed part plainly, then again traced, and reports
// the per-layer metrics. The traced pass must reproduce every virtual
// end-to-end number of the plain pass exactly.
func tracedResult(name string, run func(runConfig) (*report, error), seed int64, out string) (*result, error) {
	plain, err := run(runConfig{seed: seed, setups: 1})
	if err != nil {
		return nil, err
	}
	traced, err := run(runConfig{seed: seed, setups: 1, traced: true})
	if err != nil {
		return nil, err
	}
	if err := sameVirtual(plain, traced); err != nil {
		return nil, err
	}
	if err := traced.tr.write(fmt.Sprintf("%s/spans-%s.csv.gz", out, name)); err != nil {
		return nil, err
	}
	layers := traced.layers
	layers["go.gc_cycles_per_kreq"] = metric{plain.gcCycles * 1000 / float64(plain.fixedReqs), "1/kreq"}
	layers["go.gc_cpu_frac"] = metric{plain.gcCPUFrac, "ratio"}
	layers["obs.trace_overhead"] = metric{1 - traced.fixedKops()/plain.fixedKops(), "ratio"}
	failed := plain.failed + traced.failed
	return &result{
		Correct:   failed == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    failed,
		Metrics:   layers,
	}, nil
}

// sameVirtual reports where two passes' virtual metrics differ.
func sameVirtual(a, b *report) error {
	va, vb := a.virtual(), b.virtual()
	for k, x := range va {
		if vb[k] != x {
			return fmt.Errorf("observing changed %s: %v untraced, %v traced", k, x, vb[k])
		}
	}
	return nil
}

// report is what a workload pass measured.
type report struct {
	attempted, failed int64

	setupS []float64 // normalized wall seconds of each build

	// Per measured round: normalized wall seconds (see calib.go), requests,
	// heap allocations and bytes per request.
	roundWall   []float64
	roundReqs   []int64
	roundAllocs []float64
	roundBytes  []float64
	roundRaw    []float64 // raw wall seconds

	fixedReqs  int64   // requests of the fixed (deterministic) rounds
	fixedWall  float64 // their wall seconds
	lat        []int64 // virtual latency of each fixed-round request, in order
	vcapKops   float64
	vtputKops  float64
	recoverV   []int64            // virtual nanos of each recovery
	recoverW   []float64          // wall seconds of each recovery
	recs       []*recovery.Result // recovery reports of the fixed part
	heapLiveMB float64

	gcCycles  float64 // GC cycles during the fixed rounds
	gcCPUFrac float64 // GC share of CPU during the fixed rounds

	logged bool // the first failure has been printed

	tr     *tracer           // traced pass only
	layers map[string]metric // traced pass only
}

// round measures one measured round: its wall time and heap allocations.
func (r *report) round(fixed bool, fn func() (int64, error)) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var n int64
	wall, raw, err := host.timed(func() (err error) {
		n, err = fn()
		return err
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("round completed no requests")
	}
	r.roundWall = append(r.roundWall, wall)
	r.roundRaw = append(r.roundRaw, raw)
	r.roundReqs = append(r.roundReqs, n)
	r.roundAllocs = append(r.roundAllocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	r.roundBytes = append(r.roundBytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
	if fixed {
		r.fixedReqs += n
		r.fixedWall += wall
	}
	return nil
}

// measure runs the fixed rounds, then the after-phase (probes, recoveries),
// then more rounds until the measured rounds have lasted cfg.seconds.
// between runs after every round, outside its timing.
func (r *report) measure(cfg runConfig, fixedRounds int, round func(fixed bool) (int64, error), between func(rep *report, fixed bool) error, after func() error) error {
	var gc, cpu float64
	for i := 0; i < fixedRounds; i++ {
		// GC counters are read around the round only: the collections
		// forced before each recovery are not the rounds' doing.
		g0 := readGC()
		if err := r.round(true, func() (int64, error) { return round(true) }); err != nil {
			return err
		}
		g1 := readGC()
		r.gcCycles += g1.cycles - g0.cycles
		gc, cpu = gc+g1.gcCPU-g0.gcCPU, cpu+g1.totalCPU-g0.totalCPU
		if err := between(r, true); err != nil {
			return err
		}
	}
	if cpu > 0 {
		r.gcCPUFrac = gc / cpu
	}
	r.heapLiveMB = liveHeapMB()
	if err := after(); err != nil {
		return err
	}
	for sum(r.roundRaw) < cfg.seconds {
		if err := r.round(false, func() (int64, error) { return round(false) }); err != nil {
			return err
		}
		if err := between(r, false); err != nil {
			return err
		}
	}
	return nil
}

// recovered records one crash recovery. Only recoveries in the fixed part
// count toward the virtual median; every one counts toward the wall median.
func (r *report) recovered(res *recovery.Result, wall float64, fixed bool) {
	r.recoverW = append(r.recoverW, wall)
	if fixed {
		r.recoverV = append(r.recoverV, res.Nanos())
		r.recs = append(r.recs, res)
	}
}

// build times cfg.setups builds and keeps the last system.
func build[S any](r *report, cfg runConfig, fn func() (S, error)) (S, error) {
	var sys S
	for i := 0; i < max(cfg.setups, 1); i++ {
		var zero S
		sys = zero
		runtime.GC()
		var s S
		wall, _, err := host.timed(func() (err error) {
			s, err = fn()
			return err
		})
		if err != nil {
			return sys, err
		}
		r.setupS = append(r.setupS, wall)
		sys = s
	}
	return sys, nil
}

// liveHeapMB is the live heap after a forced collection, less the speed
// kernel's buffer. Taken at the end of the fixed rounds, it measures the
// same work on every run.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc-calibWords*8) / (1 << 20)
}

func (r *report) fixedKops() float64 { return float64(r.fixedReqs) / r.fixedWall / 1000 }

// virtual is the set of model answers: identical for identical seeds, and
// untouched by observing.
func (r *report) virtual() map[string]float64 {
	return map[string]float64{
		"vlat_p50_us":     quantile(r.lat, 0.50) / 1000,
		"vlat_p999_us":    quantile(r.lat, 0.999) / 1000,
		"vcap_kops":       r.vcapKops,
		"vtput_kops":      r.vtputKops,
		"recover_vms_p50": medianInt(r.recoverV) / 1e6,
		"requests":        float64(r.fixedReqs),
	}
}

// endToEnd is the untraced pass's result metrics.
func (r *report) endToEnd() map[string]metric {
	v := r.virtual()
	// Wall throughput and allocations are totals over every measured round:
	// the host's speed drifts over seconds, and a rate over the whole
	// phase averages that drift where a median of short rounds would pick
	// one side of it.
	var wall, reqs, allocs, bytes float64
	for i, w := range r.roundWall {
		n := float64(r.roundReqs[i])
		wall, reqs = wall+w, reqs+n
		allocs, bytes = allocs+r.roundAllocs[i]*n, bytes+r.roundBytes[i]*n
	}
	return map[string]metric{
		"setup_s":             {median(r.setupS), "s"},
		"sim_kops_per_s":      {reqs / wall / 1000, "kops/s"},
		"allocs_per_req":      {allocs / reqs, "1/req"},
		"bytes_per_req":       {bytes / reqs, "B/req"},
		"heap_live_mb":        {r.heapLiveMB, "MB"},
		"vlat_p50_us":         {v["vlat_p50_us"], "us"},
		"vlat_p999_us":        {v["vlat_p999_us"], "us"},
		"vcap_kops":           {v["vcap_kops"], "kops"},
		"vtput_kops":          {v["vtput_kops"], "kops"},
		"recover_vms_p50":     {v["recover_vms_p50"], "ms"},
		"recover_wall_ms_p50": {median(r.recoverW) * 1000, "ms"},
	}
}

// --- small statistics helpers ---------------------------------------------

// quantile is the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func medianInt(xs []int64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return median(f)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
