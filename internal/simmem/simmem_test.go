package simmem

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
)

var testProf = Profile{Name: "test", ReadLatency: 100, WriteLatency: 150, ReadStream: 1e9, WriteStream: 1e9}

func TestDeviceBasics(t *testing.T) {
	d := NewDevice("dram", 4096, testProf, nil, nil)
	if d.Size() != 4096 || d.Name() != "dram" {
		t.Fatalf("size=%d name=%q", d.Size(), d.Name())
	}
	if d.Profile().ReadLatency != 100 {
		t.Fatal("profile not stored")
	}
}

func TestDevicePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDevice(size=0) did not panic")
		}
	}()
	NewDevice("bad", 0, testProf, nil, nil)
}

func TestRegionBounds(t *testing.T) {
	d := NewDevice("d", 1024, testProf, nil, nil)
	if _, err := d.Region(512, 1024); err == nil {
		t.Fatal("overflowing region accepted")
	}
	if _, err := d.Region(-1, 10); err == nil {
		t.Fatal("negative offset accepted")
	}
	r, err := d.Region(256, 512)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 512 || r.Base() != 256 {
		t.Fatalf("size=%d base=%d", r.Size(), r.Base())
	}
	if err := r.WriteRaw(500, make([]byte, 20)); err == nil {
		t.Fatal("write past region end accepted")
	}
	if err := r.ReadRaw(-1, make([]byte, 1)); err == nil {
		t.Fatal("negative read offset accepted")
	}
}

func TestRegionIsolation(t *testing.T) {
	// Two disjoint regions must not observe each other's writes, and a write
	// through one region lands at the right absolute device offset.
	d := NewDevice("cxl", 1024, testProf, nil, nil)
	a, _ := d.Region(0, 512)
	b, _ := d.Region(512, 512)
	if err := a.WriteRaw(0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if err := b.ReadRaw(0, buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, []byte("hello")) {
		t.Fatal("disjoint region observed neighbour's write")
	}
	whole := d.WholeRegion()
	if err := whole.ReadRaw(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("hello")) {
		t.Fatalf("device offset 0 = %q, want hello", buf)
	}
}

func TestSubRegion(t *testing.T) {
	d := NewDevice("d", 1024, testProf, nil, nil)
	r, _ := d.Region(100, 800)
	s, err := r.SubRegion(50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s.Base() != 150 {
		t.Fatalf("subregion base %d, want 150", s.Base())
	}
	if _, err := r.SubRegion(700, 200); err == nil {
		t.Fatal("overflowing subregion accepted")
	}
	if err := s.WriteRaw(0, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if err := d.WholeRegion().ReadRaw(150, b[:]); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0xAB {
		t.Fatal("subregion write landed at wrong device offset")
	}
}

func TestCostedReadWriteChargesClock(t *testing.T) {
	d := NewDevice("d", 4096, testProf, nil, nil)
	r := d.WholeRegion()
	clk := simclock.New()
	data := make([]byte, 1000)
	if err := r.WriteAt(clk, 0, data); err != nil {
		t.Fatal(err)
	}
	// write: 150 ns latency + 1000 B at 1 GB/s = 1000 ns -> 1150.
	if clk.Now() != 1150 {
		t.Fatalf("write cost %d ns, want 1150", clk.Now())
	}
	if err := r.ReadAt(clk, 0, data); err != nil {
		t.Fatal(err)
	}
	if clk.Now() != 1150+1100 {
		t.Fatalf("after read clock %d, want 2250", clk.Now())
	}
}

func TestCostedAccessQueuesOnBandwidth(t *testing.T) {
	bw := simclock.NewResource("link", 1e9)
	d := NewDevice("d", 4096, Profile{ReadLatency: 0, WriteLatency: 0}, bw, nil)
	r := d.WholeRegion()
	a, b := simclock.New(), simclock.New()
	if err := r.WriteAt(a, 0, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteAt(b, 0, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if b.Now() != 2000 {
		t.Fatalf("second writer finished at %d, want 2000 (queued)", b.Now())
	}
}

func TestLoadStore64(t *testing.T) {
	d := NewDevice("d", 128, testProf, nil, nil)
	r := d.WholeRegion()
	clk := simclock.New()
	if err := r.Store64(clk, 8, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := r.Load64(clk, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEF {
		t.Fatalf("load64 = %#x", v)
	}
	if clk.Now() == 0 {
		t.Fatal("flag-word access charged nothing")
	}
	// Raw variants: no cost.
	before := clk.Now()
	if err := r.Store64Raw(16, 7); err != nil {
		t.Fatal(err)
	}
	v2, err := r.Load64Raw(16)
	if err != nil || v2 != 7 {
		t.Fatalf("raw roundtrip = %d, %v", v2, err)
	}
	if clk.Now() != before {
		t.Fatal("raw access charged the clock")
	}
	if _, err := r.Load64(clk, 124); err == nil {
		t.Fatal("load64 past end accepted")
	}
}

func TestProfileCosts(t *testing.T) {
	p := Profile{ReadLatency: 549, WriteLatency: 549, ReadStream: 10e9, WriteStream: 10e9}
	if got := p.ReadCost(0); got != 549 {
		t.Fatalf("ReadCost(0) = %d", got)
	}
	// 10000 bytes at 10 GB/s = 1000 ns.
	if got := p.WriteCost(10000); got != 1549 {
		t.Fatalf("WriteCost(10000) = %d", got)
	}
	lat := Profile{ReadLatency: 100}
	if got := lat.ReadCost(1 << 20); got != 100 {
		t.Fatalf("latency-only profile charged %d for 1MB", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: any write within bounds reads back identically.
	d := NewDevice("p", 1<<16, testProf, nil, nil)
	r := d.WholeRegion()
	f := func(off uint16, data []byte) bool {
		o := int64(off)
		if o+int64(len(data)) > r.Size() {
			o = r.Size() - int64(len(data))
			if o < 0 {
				return true // larger than device; skip
			}
		}
		if err := r.WriteRaw(o, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := r.ReadRaw(o, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDataSurvivesRegionDrop(t *testing.T) {
	// The crash-survival property: contents belong to the device, not to the
	// view a host held.
	d := NewDevice("cxlbox", 256, testProf, nil, nil)
	{
		host, _ := d.Region(64, 64)
		if err := host.WriteRaw(0, []byte("durable")); err != nil {
			t.Fatal(err)
		}
	} // host view dropped: simulated crash
	fresh, _ := d.Region(64, 64)
	buf := make([]byte, 7)
	if err := fresh.ReadRaw(0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "durable" {
		t.Fatalf("post-crash contents %q", buf)
	}
}

func TestPowerLossFailsEveryAccess(t *testing.T) {
	d := NewDevice("box", 256, testProf, nil, nil)
	r := d.WholeRegion()
	if err := r.WriteRaw(0, []byte("live")); err != nil {
		t.Fatal(err)
	}
	d.PowerOff()
	if !d.PoweredOff() {
		t.Fatal("PoweredOff false after PowerOff")
	}
	clk := simclock.New()
	buf := make([]byte, 4)
	for name, err := range map[string]error{
		"ReadRaw":  r.ReadRaw(0, buf),
		"WriteRaw": r.WriteRaw(0, buf),
		"ReadAt":   r.ReadAt(clk, 0, buf),
		"WriteAt":  r.WriteAt(clk, 0, buf),
		"Store64":  r.Store64(clk, 0, 1),
	} {
		if !errors.Is(err, ErrPoweredOff) {
			t.Fatalf("%s on dead device: got %v, want ErrPoweredOff", name, err)
		}
	}
	if _, err := r.Load64(clk, 0); !errors.Is(err, ErrPoweredOff) {
		t.Fatalf("Load64 on dead device: %v", err)
	}
	if _, err := r.Load64Raw(0); !errors.Is(err, ErrPoweredOff) {
		t.Fatalf("Load64Raw on dead device: %v", err)
	}
	if clk.Now() != 0 {
		t.Fatalf("failed accesses must not charge cost, clock at %d", clk.Now())
	}
}

func TestPowerOnIsReplacementHardware(t *testing.T) {
	d := NewDevice("box", 64, testProf, nil, nil)
	r := d.WholeRegion()
	if err := r.WriteRaw(0, []byte("gone")); err != nil {
		t.Fatal(err)
	}
	d.PowerOff()
	d.PowerOn()
	if d.PoweredOff() {
		t.Fatal("still powered off after PowerOn")
	}
	buf := make([]byte, 4)
	if err := r.ReadRaw(0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) == "gone" {
		t.Fatal("PowerOn must zero contents (replacement hardware), old bytes survived")
	}
}

func TestPowerLossDoesNotAdvanceFaultCounters(t *testing.T) {
	// A dead device receives no operations, so fault-plan op indices must
	// not move while it is off — (seed, index) repro pairs stay stable.
	d := NewDevice("box", 64, testProf, nil, nil)
	p := fault.NewPlan(1)
	p.FailAt(fault.OpMemWrite, 2, fault.ErrInjected)
	d.SetInjector(p)
	r := d.WholeRegion()
	if err := r.WriteRaw(0, []byte{1}); err != nil {
		t.Fatal(err) // index 1
	}
	d.PowerOff()
	for i := 0; i < 5; i++ {
		if err := r.WriteRaw(0, []byte{1}); !errors.Is(err, ErrPoweredOff) {
			t.Fatalf("dead write %d: %v", i, err)
		}
	}
	d.PowerOn()
	if err := r.WriteRaw(0, []byte{1}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("write after PowerOn should be op index 2 and fire: %v", err)
	}
}

// TestReadLines checks that a run read returns the device bytes and counts
// nothing, that CountLineReads counts as that many line ReadRaw calls do,
// and that a run read refuses, reading nothing, where a line-by-line read
// could fail or stop at a fault point: out of bounds, with an injector, and
// powered off.
func TestReadLines(t *testing.T) {
	reg := obs.New(obs.Options{})
	d := NewDevice("box", 8*LineSize, testProf, nil, reg)
	want := make([]byte, 8*LineSize)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if err := d.WholeRegion().WriteRaw(0, want); err != nil {
		t.Fatal(err)
	}
	r, err := d.Region(LineSize, 6*LineSize)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3*LineSize)
	if !r.ReadLines(2*LineSize, buf) || !bytes.Equal(buf, want[3*LineSize:6*LineSize]) {
		t.Fatalf("ReadLines returned % x, want % x", buf[:8], want[3*LineSize:3*LineSize+8])
	}
	reads, bytesRead := reg.Counter("mem.box.reads"), reg.Counter("mem.box.read_bytes")
	if reads.Value() != 0 || bytesRead.Value() != 0 {
		t.Fatalf("ReadLines counted %d reads of %d bytes", reads.Value(), bytesRead.Value())
	}
	r.CountLineReads(3)
	if reads.Value() != 3 || bytesRead.Value() != 3*LineSize {
		t.Fatalf("counted %d reads of %d bytes, want 3 of %d", reads.Value(), bytesRead.Value(), 3*LineSize)
	}
	clear(buf)
	if r.ReadLines(4*LineSize, buf) {
		t.Fatal("ReadLines past the region end succeeded")
	}
	d.SetInjector(fault.NewPlan(1))
	if r.ReadLines(0, buf) {
		t.Fatal("ReadLines on a device with an injector succeeded")
	}
	d.SetInjector(nil)
	d.PowerOff()
	if r.ReadLines(0, buf) {
		t.Fatal("ReadLines on a powered-off device succeeded")
	}
	if reads.Value() != 3 || bytesRead.Value() != 3*LineSize || !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatal("a refused ReadLines read or counted something")
	}
}

// TestPowerCycleRacesAccesses runs readers and writers against a device
// that is powered off and on underneath them, with and without a fault
// injector (the injector path drops the device lock across the injection
// point). Two readers use ReadRaw and a fifth worker ReadLines, which
// refuses while the device is off or has the injector. Every access must
// either succeed or fail with ErrPoweredOff, and no read may see a torn
// line: writers store whole lines of one byte value, and PowerOn zeroes
// under the same lock.
func TestPowerCycleRacesAccesses(t *testing.T) {
	for _, withInjector := range []bool{false, true} {
		d := NewDevice("box", 16*LineSize, testProf, nil, nil)
		if withInjector {
			d.SetInjector(fault.NewPlan(1)) // armed with nothing: every point passes
		}
		r := d.WholeRegion()
		const accesses = 2000
		var wg sync.WaitGroup
		check := func(op string, err error) bool {
			if err != nil && !errors.Is(err, ErrPoweredOff) {
				t.Errorf("injector %v: %s: %v", withInjector, op, err)
				return false
			}
			return true
		}
		for w := 0; w < 5; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				line := make([]byte, LineSize)
				for i := 0; i < accesses; i++ {
					off := int64((w+i)%16) * LineSize
					if w == 4 {
						if r.ReadLines(off, line) && !bytes.Equal(line, bytes.Repeat(line[:1], LineSize)) {
							t.Errorf("injector %v: torn ReadLines at %d: % x", withInjector, off, line)
							return
						}
						continue
					}
					if w%2 == 0 {
						for j := range line {
							line[j] = byte(w + i)
						}
						if !check("WriteRaw", r.WriteRaw(off, line)) {
							return
						}
						continue
					}
					err := r.ReadRaw(off, line)
					if !check("ReadRaw", err) {
						return
					}
					if err == nil && !bytes.Equal(line, bytes.Repeat(line[:1], LineSize)) {
						t.Errorf("injector %v: torn line read at %d: % x", withInjector, off, line)
						return
					}
				}
			}()
		}
		for i := 0; i < 200; i++ {
			d.PowerOff()
			d.PowerOn()
		}
		wg.Wait()
	}
}
