package main

import "time"

// A shared host can change speed by ±25% over seconds to
// minutes (other tenants, frequency), and process CPU time drifts with it,
// so a wall-clock number alone mostly measures the host. Each wall interval
// is therefore normalized by the host's speed at that moment: a fixed
// reference kernel is timed right before and right after the interval, and
// the interval is scaled to what it would have taken at the reference
// speed. The kernel mixes integer work with scattered loads and stores over
// a buffer larger than the last-level cache of small hosts, as the
// simulator's pointer-heavy code does. (A variant that also streamed
// megabyte copies tracked the host worse.)

const (
	calibWords = 1 << 21 // 16 MiB of uint64
	calibSteps = 100_000 // one kernel run: about 1 ms at the reference speed
	calibRuns  = 3       // kernel runs per speed sample; the fastest counts

	// refKernelsPerSec is the kernel's rate on the reference host, a 2-vCPU
	// x86-64 VM (the median of 200 samples on an idle run). Normalized wall
	// times read as seconds on that host.
	refKernelsPerSec = 940.0
)

// calibrator times the reference kernel.
type calibrator struct {
	buf  []uint64
	sink uint64
}

func newCalibrator() *calibrator { return &calibrator{buf: make([]uint64, calibWords)} }

// kernel is one run of the reference work.
func (c *calibrator) kernel() {
	x := uint64(88172645463325252)
	var sum uint64
	for i := 0; i < calibSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (calibWords - 1)
		c.buf[j] += x
		sum += c.buf[(j*7+1)&(calibWords-1)]
	}
	c.sink += sum
}

// speed is the host's current kernel rate relative to the reference host.
// The fastest of a few runs counts, so a collection cycle still running on
// the single P does not pass for a slow host.
func (c *calibrator) speed() float64 {
	best := time.Duration(1 << 62)
	for i := 0; i < calibRuns; i++ {
		t0 := time.Now()
		c.kernel()
		best = min(best, time.Since(t0))
	}
	return 1 / best.Seconds() / refKernelsPerSec
}

// host is the process's calibrator.
var host = newCalibrator()

// timed runs fn and returns its wall time normalized to the reference
// host, the raw wall time times the host's mean relative speed over the
// samples taken just before and just after, and the raw wall time.
func (c *calibrator) timed(fn func() error) (norm, raw float64, err error) {
	before := c.speed()
	t0 := time.Now()
	err = fn()
	raw = time.Since(t0).Seconds()
	after := c.speed()
	return raw * (before + after) / 2, raw, err
}
