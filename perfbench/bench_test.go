package main

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func runSmall(t *testing.T, name string, seed int64, traced bool) *report {
	t.Helper()
	rep, err := workloads[name](runConfig{seed: seed, setups: 1, traced: traced, small: true})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%s seed %d: %d of %d failed", name, seed, rep.failed, rep.attempted)
	}
	return rep
}

// TestClockDiscipline guards against set-up or recovery time leaking into
// request latency: on read-fit, the first tenth of the requests must see a
// p99.9 within 2x the last tenth's.
func TestClockDiscipline(t *testing.T) {
	rep := runSmall(t, "read-fit", 1, false)
	n := len(rep.lat) / 10
	first, last := quantile(rep.lat[:n], 0.999), quantile(rep.lat[len(rep.lat)-n:], 0.999)
	if first > 2*last {
		t.Fatalf("first tenth p99.9 %.0f ns > 2x last tenth's %.0f ns", first, last)
	}
}

// layerCounts is the per-layer metrics that come from virtual time or
// counters, leaving out wall-clock and Go-runtime ones.
func layerCounts(m map[string]metric) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range m {
		if strings.Contains(k, "wall") || strings.HasPrefix(k, "go.") || strings.HasPrefix(k, "obs.") {
			continue
		}
		out[k] = v.Value
	}
	return out
}

// TestDeterminism: the same seed twice gives identical virtual metrics and
// per-layer counts; another seed gives another request stream and passes
// every oracle.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"read-fit", "write-crash", "sharing-rmw"} {
		t.Run(name, func(t *testing.T) {
			a := runSmall(t, name, 7, true)
			b := runSmall(t, name, 7, true)
			if !reflect.DeepEqual(a.virtual(), b.virtual()) {
				t.Fatalf("same seed, different virtual metrics:\n%v\n%v", a.virtual(), b.virtual())
			}
			if !reflect.DeepEqual(a.lat, b.lat) {
				t.Fatal("same seed, different latency sequences")
			}
			if ca, cb := layerCounts(a.layers), layerCounts(b.layers); !reflect.DeepEqual(ca, cb) {
				t.Fatalf("same seed, different per-layer counts:\n%v\n%v", ca, cb)
			}
			c := runSmall(t, name, 8, false)
			if reflect.DeepEqual(a.lat, c.lat) {
				t.Fatal("seeds 7 and 8 gave the same request stream")
			}
		})
	}
}

// TestTracedRun runs each workload's traced mode: observer neutrality,
// batch attribution and the checkers are enforced inside; every per-layer
// metric must be reported and the span file written.
func TestTracedRun(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"read-fit", "write-crash", "sharing-rmw"} {
		t.Run(name, func(t *testing.T) {
			small := func(cfg runConfig) (*report, error) {
				cfg.small = true
				return workloads[name](cfg)
			}
			res, err := tracedResult(name, small, 3, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("%d of %d failed", res.Failed, res.Attempted)
			}
			for k := range layerUnits {
				if _, ok := res.Metrics[k]; !ok {
					t.Errorf("missing per-layer metric %s", k)
				}
			}
			if len(res.Metrics) != len(layerUnits) {
				t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(layerUnits))
			}
			if _, err := os.Stat(filepath.Join(dir, "spans-"+name+".csv.gz")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEndToEndMetricsNonZero: every end-to-end metric is reported, and none
// reads 0 on a correct run.
func TestEndToEndMetricsNonZero(t *testing.T) {
	for _, name := range []string{"read-fit", "write-crash", "sharing-rmw"} {
		rep := runSmall(t, name, 5, false)
		for k, m := range rep.endToEnd() {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v", name, k, m.Value)
			}
		}
	}
}

// TestCalibrationKernel checks that a normalized interval is the raw one
// scaled by the host's measured speed, and logs the kernel's rate on this
// host (refKernelsPerSec is that rate on the reference host).
func TestCalibrationKernel(t *testing.T) {
	speeds := make([]float64, 50)
	for i := range speeds {
		speeds[i] = host.speed()
	}
	sort.Float64s(speeds)
	t.Logf("kernel runs per second: %.1f (reference %.1f)", speeds[len(speeds)/2]*refKernelsPerSec, refKernelsPerSec)
	norm, raw, err := host.timed(func() error {
		host.kernel()
		return nil
	})
	if err != nil || raw <= 0 || norm <= 0 {
		t.Fatalf("timed: norm %v raw %v err %v", norm, raw, err)
	}
	if lo, hi := raw*speeds[0]/2, raw*speeds[len(speeds)-1]*2; norm < lo || norm > hi {
		t.Fatalf("normalized %v s outside [%v, %v] for raw %v s", norm, lo, hi, raw)
	}
}
