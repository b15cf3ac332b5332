package simmem

import (
	"testing"

	"polarcxlmem/internal/simclock"
)

func TestLatencyTableCalibrationPoints(t *testing.T) {
	tab := NewLatencyTable([]int64{64, 512, 1024}, []int64{100, 200, 400})
	for _, c := range []struct{ n, want int64 }{
		{64, 100}, {512, 200}, {1024, 400},
	} {
		if got := tab.Cost(c.n); got != c.want {
			t.Errorf("Cost(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestLatencyTableInterpolation(t *testing.T) {
	tab := NewLatencyTable([]int64{100, 200}, []int64{1000, 2000})
	if got := tab.Cost(150); got != 1500 {
		t.Fatalf("midpoint = %d, want 1500", got)
	}
	// Below the first point: charge the first point (fixed overhead).
	if got := tab.Cost(10); got != 1000 {
		t.Fatalf("below-first = %d, want 1000", got)
	}
	// Beyond the last: extrapolate along the final slope (10 ns/B).
	if got := tab.Cost(300); got != 3000 {
		t.Fatalf("extrapolated = %d, want 3000", got)
	}
	if tab.Cost(0) != 0 || tab.Cost(-5) != 0 {
		t.Fatal("non-positive sizes must cost 0")
	}
}

func TestLatencyTableSinglePoint(t *testing.T) {
	tab := NewLatencyTable([]int64{64}, []int64{500})
	if tab.Cost(64) != 500 || tab.Cost(1) != 500 || tab.Cost(100000) != 500 {
		t.Fatal("single-point table must be constant")
	}
}

func TestLatencyTableCharge(t *testing.T) {
	tab := NewLatencyTable([]int64{64}, []int64{750})
	clk := simclock.New()
	tab.Charge(clk, 64)
	if clk.Now() != 750 {
		t.Fatalf("charged %d", clk.Now())
	}
}

func TestLatencyTablePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewLatencyTable(nil, nil) },
		func() { NewLatencyTable([]int64{1, 2}, []int64{1}) },
		func() { NewLatencyTable([]int64{2, 1}, []int64{1, 2}) },
		func() { NewLatencyTable([]int64{1, 1}, []int64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("malformed table accepted")
				}
			}()
			f()
		}()
	}
}

func TestRegionDeviceAccessor(t *testing.T) {
	d := NewDevice("x", 128, Profile{}, nil, nil)
	if d.WholeRegion().Device() != d {
		t.Fatal("Device accessor broken")
	}
}
