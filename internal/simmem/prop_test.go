package simmem

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// Property tests for the Region/SubRegion window arithmetic. The bounds
// predicates are written subtraction-form precisely so that off+size on two
// huge int64 operands cannot wrap negative and slip past the check — these
// tests pin the edges and then fuzz the predicate against a model.

func propDevice(t *testing.T, size int64) *Device {
	t.Helper()
	return NewDevice("prop", size, Profile{}, nil, nil)
}

func TestRegionBoundsEdges(t *testing.T) {
	const S = 4096
	d := propDevice(t, S)
	cases := []struct {
		name      string
		off, size int64
		ok        bool
	}{
		{"whole", 0, S, true},
		{"empty-at-start", 0, 0, true},
		{"empty-at-end", S, 0, true},
		{"last-byte", S - 1, 1, true},
		{"one-past-end", S, 1, false},
		{"size-overrun", 0, S + 1, false},
		{"off-overrun", S + 1, 0, false},
		{"negative-off", -1, 1, false},
		{"negative-size", 1, -1, false},
		{"both-huge-overflow", 1 << 62, 1 << 62, false},
		{"sum-wraps-negative", math.MaxInt64, math.MaxInt64, false},
		{"huge-size-alone", 0, math.MaxInt64, false},
		{"huge-off-alone", math.MaxInt64, 0, false},
	}
	for _, tc := range cases {
		t.Run("region/"+tc.name, func(t *testing.T) {
			_, err := d.Region(tc.off, tc.size)
			if (err == nil) != tc.ok {
				t.Fatalf("Region(%d, %d): err=%v, want ok=%v", tc.off, tc.size, err, tc.ok)
			}
		})
	}
	// The same table must hold for SubRegion of a whole-device view (the
	// region size equals the device size, so validity is identical).
	whole := d.WholeRegion()
	for _, tc := range cases {
		t.Run("subregion/"+tc.name, func(t *testing.T) {
			_, err := whole.SubRegion(tc.off, tc.size)
			if (err == nil) != tc.ok {
				t.Fatalf("SubRegion(%d, %d): err=%v, want ok=%v", tc.off, tc.size, err, tc.ok)
			}
		})
	}
	// And for raw access checks (n is an int length, so only the reachable
	// subset applies).
	buf1 := []byte{0xFF}
	if err := whole.WriteRaw(S-1, buf1); err != nil {
		t.Fatalf("write of last byte: %v", err)
	}
	if err := whole.WriteRaw(S, buf1); err == nil {
		t.Fatal("write one past end must fail")
	}
	if err := whole.ReadRaw(0, make([]byte, S)); err != nil {
		t.Fatalf("full-size read: %v", err)
	}
	if err := whole.ReadRaw(1, make([]byte, S)); err == nil {
		t.Fatal("full-size read at off 1 must fail")
	}
	if err := whole.ReadRaw(1<<62, buf1); err == nil {
		t.Fatal("huge-offset read must fail")
	}
}

// TestSubRegionAliasing verifies that overlapping views are views — writes
// through one window are visible through every other window (and the raw
// device) at the correct translated offsets.
func TestSubRegionAliasing(t *testing.T) {
	d := propDevice(t, 1<<16)
	parent, err := d.Region(100, 200)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := parent.SubRegion(50, 100) // device [150, 250)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Base() != 150 || sub.Size() != 100 {
		t.Fatalf("sub base=%d size=%d, want 150/100", sub.Base(), sub.Size())
	}
	overlap, err := parent.SubRegion(120, 60) // device [220, 280): overlaps sub's tail
	if err != nil {
		t.Fatal(err)
	}

	pat := bytes.Repeat([]byte{0xAB}, 100)
	if err := sub.WriteRaw(0, pat); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 100)
	if err := parent.ReadRaw(50, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pat) {
		t.Fatal("write through sub not visible through parent")
	}
	if err := d.WholeRegion().ReadRaw(150, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pat) {
		t.Fatal("write through sub not visible at device offset 150")
	}
	// Overlap window: its first 30 bytes alias sub's [70,100).
	got30 := make([]byte, 30)
	if err := overlap.ReadRaw(0, got30); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got30, pat[:30]) {
		t.Fatal("overlapping view does not alias the shared bytes")
	}
	// And a write through the overlap window reflects back into sub.
	if err := overlap.WriteRaw(10, []byte{0xCD}); err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	if err := sub.ReadRaw(80, one); err != nil {
		t.Fatal(err)
	}
	if one[0] != 0xCD {
		t.Fatalf("aliased write lost: %#x", one[0])
	}
}

// TestSubRegionBoundsProperty fuzzes (off, size) pairs — small, edge-
// straddling, and enormous — against the model predicate, and round-trips
// data through every valid window.
func TestSubRegionBoundsProperty(t *testing.T) {
	const S = 1 << 12
	d := propDevice(t, 1<<13)
	region, err := d.Region(512, S) // non-zero base: translation must compose
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20250805))
	genInt := func() int64 {
		switch rng.Intn(6) {
		case 0:
			return rng.Int63n(2*S) - S // around the valid range, incl. negatives
		case 1:
			return []int64{0, 1, S - 1, S, S + 1, -1}[rng.Intn(6)]
		case 2:
			return math.MaxInt64 - rng.Int63n(4)
		case 3:
			return int64(1)<<62 + rng.Int63n(1<<20)
		default:
			return rng.Int63n(S + 1)
		}
	}
	valid, invalid := 0, 0
	for i := 0; i < 5000; i++ {
		off, size := genInt(), genInt()
		want := off >= 0 && size >= 0 && off <= S && size <= S-off
		sub, err := region.SubRegion(off, size)
		if (err == nil) != want {
			t.Fatalf("SubRegion(%d, %d): err=%v, model says valid=%v", off, size, err, want)
		}
		if !want {
			invalid++
			continue
		}
		valid++
		if sub.Base() != region.Base()+off || sub.Size() != size {
			t.Fatalf("SubRegion(%d, %d): base=%d size=%d, want base=%d size=%d",
				off, size, sub.Base(), sub.Size(), region.Base()+off, size)
		}
		if size == 0 || size > 4096 {
			continue
		}
		// Round-trip: bytes written through the window appear at the
		// translated parent offset, and vice versa.
		n := 1 + rng.Intn(int(size))
		woff := rng.Int63n(size - int64(n) + 1)
		pat := make([]byte, n)
		rng.Read(pat)
		if err := sub.WriteRaw(woff, pat); err != nil {
			t.Fatalf("valid window write [%d,+%d) in SubRegion(%d,%d): %v", woff, n, off, size, err)
		}
		got := make([]byte, n)
		if err := region.ReadRaw(off+woff, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pat) {
			t.Fatalf("window write not visible through parent at %d", off+woff)
		}
	}
	if valid < 500 || invalid < 500 {
		t.Fatalf("generator imbalance: %d valid / %d invalid cases — property coverage too thin", valid, invalid)
	}
}
