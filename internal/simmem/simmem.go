// Package simmem models raw memory devices for the PolarCXLMem simulator.
//
// A Device is a byte-addressable memory (local DRAM, a DDR5 module behind the
// CXL switch, an RDMA-exposed remote pool) backed by an ordinary byte slice.
// The slice belongs to the Device object, not to any host object, so memory
// contents survive a simulated host crash exactly as CXL memory behind an
// independently-powered switch does in the paper (§3.2).
//
// Access goes through bounds-checked Region views. A Region is the unit of
// multi-tenant isolation: the CXL memory manager hands each database node a
// Region and no two writable Regions overlap, reproducing the paper's
// offset-based allocation discipline (§3.1, "CXL Memory allocation").
//
// Costed accessors (ReadAt/WriteAt/Load64/Store64) charge a calibrated
// latency + pipelined-bandwidth cost to the caller's virtual clock and, when
// the device has a shared bandwidth resource attached, queue on it. Raw
// accessors exist for substrates (the simulated CPU cache) that implement
// their own cost accounting on top of the device.
package simmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
)

// ErrPoweredOff is returned by every access to a device that has lost power
// (Device.PowerOff). Unlike an injected transient fault, it persists until
// PowerOn, which models swapping in REPLACEMENT hardware: contents are
// zeroed, not restored.
var ErrPoweredOff = errors.New("simmem: device is powered off")

// LineSize is the coherence granularity: one CPU cache line.
const LineSize = 64

// Profile describes the timing behaviour of a memory device as seen from a
// host: a fixed per-access latency plus a pipelined streaming rate for the
// body of a larger access. Calibration constants live with the device
// packages (internal/cxl, internal/rdma), sourced from the paper's Tables 1-2.
type Profile struct {
	Name         string
	ReadLatency  int64   // ns charged once per read access
	WriteLatency int64   // ns charged once per write access
	ReadStream   float64 // bytes per second for a read body; 0 = latency only
	WriteStream  float64 // bytes per second for a write body; 0 = latency only
}

// accessCost reports the virtual nanoseconds a single access of n bytes
// costs under the profile, excluding shared-resource queueing.
func accessCost(latency int64, stream float64, n int) int64 {
	c := latency
	if stream > 0 && n > 0 {
		c += int64(float64(n) / stream * float64(simclock.Second))
	}
	return c
}

// ReadCost reports the uncontended cost of reading n bytes.
func (p Profile) ReadCost(n int) int64 { return accessCost(p.ReadLatency, p.ReadStream, n) }

// WriteCost reports the uncontended cost of writing n bytes.
func (p Profile) WriteCost(n int) int64 { return accessCost(p.WriteLatency, p.WriteStream, n) }

// Device is a raw memory device. A single mutex serializes data access so
// that concurrent simulated hosts can touch shared CXL memory safely; the
// timing of concurrent access is governed by the virtual-time resources, not
// by this lock.
type Device struct {
	name string
	mu   sync.RWMutex
	data []byte
	prof Profile
	off  bool               // powered off: every access fails
	bw   *simclock.Resource // optional shared bandwidth; may be nil
	inj  fault.Injector     // optional fault injector; may be nil

	// Registry handles, fixed at construction; nil (a no-op) without one.
	reads, writes         *obs.Counter
	readBytes, writeBytes *obs.Counter
}

// NewDevice allocates a device of size bytes with the given timing profile.
// bw, if non-nil, is a shared bandwidth resource every costed access queues
// on (e.g., the per-host CXL link). reg (nil for none) receives the access
// counters mem.<name>.reads / writes / read_bytes / write_bytes: every
// accessor — costed or raw, including CPU-cache fills and write-backs —
// funnels through the raw paths, so they see all device traffic. It panics
// on non-positive size, because a memory device without capacity is always
// a configuration bug.
func NewDevice(name string, size int64, prof Profile, bw *simclock.Resource, reg *obs.Registry) *Device {
	if size <= 0 {
		panic(fmt.Sprintf("simmem: device %q must have positive size, got %d", name, size))
	}
	p := "mem." + name + "."
	return &Device{
		name:       name,
		data:       make([]byte, size),
		prof:       prof,
		bw:         bw,
		reads:      reg.Counter(p + "reads"),
		writes:     reg.Counter(p + "writes"),
		readBytes:  reg.Counter(p + "read_bytes"),
		writeBytes: reg.Counter(p + "write_bytes"),
	}
}

// Name reports the device name.
func (d *Device) Name() string { return d.name }

// Size reports the device capacity in bytes.
func (d *Device) Size() int64 { return int64(len(d.data)) }

// Profile reports the device timing profile.
func (d *Device) Profile() Profile { return d.prof }

// SetInjector installs (or, with nil, removes) the fault injector consulted
// on every raw access to this device. Every costed accessor funnels through
// the raw paths, so one injector covers WriteAt, Store64, and CPU-cache
// write-backs alike.
func (d *Device) SetInjector(inj fault.Injector) {
	d.mu.Lock()
	d.inj = inj
	d.mu.Unlock()
}

// PowerOff kills the device: every subsequent access, raw or costed, fails
// with ErrPoweredOff. Contents are retained in the struct but unreachable —
// the failure-domain model for whole-memory-box power loss.
func (d *Device) PowerOff() {
	d.mu.Lock()
	d.off = true
	d.mu.Unlock()
}

// PowerOn restores the device as REPLACEMENT hardware: accesses succeed
// again, but the contents are zeroed. A memory box that loses power loses
// its data; anything durable must be rebuilt from another domain (WAL,
// checkpoint area, surviving replicas).
func (d *Device) PowerOn() {
	d.mu.Lock()
	d.off = false
	for i := range d.data {
		d.data[i] = 0
	}
	d.mu.Unlock()
}

// PoweredOff reports whether the device has lost power.
func (d *Device) PoweredOff() bool {
	d.mu.RLock()
	off := d.off
	d.mu.RUnlock()
	return off
}

// Region returns a bounds-checked view of [off, off+size).
// The bounds test is written subtraction-form so a huge off+size cannot
// overflow int64 and pass.
func (d *Device) Region(off, size int64) (*Region, error) {
	if off < 0 || size < 0 || off > int64(len(d.data)) || size > int64(len(d.data))-off {
		return nil, fmt.Errorf("simmem: region [%d,+%d) out of device %q bounds [0,%d)", off, size, d.name, len(d.data))
	}
	return &Region{dev: d, off: off, size: size}, nil
}

// WholeRegion returns a view of the entire device.
func (d *Device) WholeRegion() *Region {
	return &Region{dev: d, off: 0, size: int64(len(d.data))}
}

// Region is a bounds-checked window onto a Device. Offsets passed to Region
// methods are relative to the region start.
type Region struct {
	dev       *Device
	off, size int64
}

// Size reports the region length in bytes.
func (r *Region) Size() int64 { return r.size }

// Base reports the region's absolute offset within its device. The CXL
// memory manager uses this to hand out device-global addresses.
func (r *Region) Base() int64 { return r.off }

// Device reports the underlying device.
func (r *Region) Device() *Device { return r.dev }

// SubRegion returns a narrower view of [off, off+size) within r.
// Subtraction-form bounds test: off+size on two huge operands must not
// overflow into a passing value.
func (r *Region) SubRegion(off, size int64) (*Region, error) {
	if off < 0 || size < 0 || off > r.size || size > r.size-off {
		return nil, fmt.Errorf("simmem: subregion [%d,+%d) out of region bounds [0,%d)", off, size, r.size)
	}
	return &Region{dev: r.dev, off: r.off + off, size: size}, nil
}

func (r *Region) check(off int64, n int) error {
	if off < 0 || int64(n) < 0 || off > r.size || int64(n) > r.size-off {
		return fmt.Errorf("simmem: access [%d,+%d) out of region bounds [0,%d) on %q", off, n, r.size, r.dev.name)
	}
	return nil
}

// ReadRaw copies region bytes into buf without charging any cost. It is for
// substrates (the CPU cache) that do their own accounting.
//
// Power loss precedes injection: a dead device receives no operations, so
// its fault-plan op counters must not advance. A powered device with no
// injector checks power and copies under one read lock; with an injector,
// the lock is dropped across the injection point and retaken for the copy.
func (r *Region) ReadRaw(off int64, buf []byte) error {
	if err := r.check(off, len(buf)); err != nil {
		return err
	}
	d := r.dev
	d.mu.RLock()
	if d.off {
		d.mu.RUnlock()
		return fmt.Errorf("simmem: read %q: %w", d.name, ErrPoweredOff)
	}
	if inj := d.inj; inj != nil {
		d.mu.RUnlock()
		if err := inj.Point(fault.OpMemRead, int64(len(buf))); err != nil {
			if fault.IsDrop(err) {
				return nil // dropped read: buf keeps whatever it held
			}
			return err
		}
		d.mu.RLock()
	}
	copy(buf, d.data[r.off+off:])
	d.mu.RUnlock()
	d.reads.Inc()
	d.readBytes.Add(int64(len(buf)))
	return nil
}

// ReadLines copies a run of whole lines at off into buf, whose length is a
// multiple of LineSize, without charging any cost or counting a read: the
// caller counts the lines it keeps with CountLineReads. It copies under one
// read lock, and so refuses — returning false, having read nothing — when a
// line-by-line read could fail or stop at a fault point: the device is
// powered off or has an injector, or the run leaves the region. The caller
// then reads the lines one at a time.
func (r *Region) ReadLines(off int64, buf []byte) bool {
	if r.check(off, len(buf)) != nil {
		return false
	}
	d := r.dev
	d.mu.RLock()
	if d.off || d.inj != nil {
		d.mu.RUnlock()
		return false
	}
	copy(buf, d.data[r.off+off:])
	d.mu.RUnlock()
	return true
}

// CountLineReads counts n reads of LineSize bytes, as n line-sized ReadRaw
// calls would: the lines of a ReadLines run that the caller kept.
func (r *Region) CountLineReads(n int) {
	if n > 0 {
		r.dev.reads.Add(int64(n))
		r.dev.readBytes.Add(int64(n) * LineSize)
	}
}

// WriteRaw copies data into the region without charging any cost. It
// takes the device lock the way ReadRaw does: once when powered with no
// injector, and never across the injection point.
func (r *Region) WriteRaw(off int64, data []byte) error {
	if err := r.check(off, len(data)); err != nil {
		return err
	}
	d := r.dev
	d.mu.Lock()
	if d.off {
		d.mu.Unlock()
		return fmt.Errorf("simmem: write %q: %w", d.name, ErrPoweredOff)
	}
	if inj := d.inj; inj != nil {
		d.mu.Unlock()
		if err := inj.Point(fault.OpMemWrite, int64(len(data))); err != nil {
			if fault.IsDrop(err) {
				return nil // silently lost write: device keeps the old bytes
			}
			return err
		}
		d.mu.Lock()
	}
	copy(d.data[r.off+off:], data)
	d.mu.Unlock()
	d.writes.Inc()
	d.writeBytes.Add(int64(len(data)))
	return nil
}

// charge applies the device cost for an access of n bytes to clk and queues
// on the shared bandwidth resource when one is attached.
func (r *Region) charge(clk *simclock.Clock, cost int64, n int) {
	clk.Advance(cost)
	if r.dev.bw != nil && n > 0 {
		r.dev.bw.Use(clk, int64(n))
	}
}

// ReadAt reads len(buf) bytes at off, charging the device read cost to clk.
func (r *Region) ReadAt(clk *simclock.Clock, off int64, buf []byte) error {
	if err := r.ReadRaw(off, buf); err != nil {
		return err
	}
	r.charge(clk, r.dev.prof.ReadCost(len(buf)), len(buf))
	return nil
}

// WriteAt writes data at off, charging the device write cost to clk.
func (r *Region) WriteAt(clk *simclock.Clock, off int64, data []byte) error {
	if err := r.WriteRaw(off, data); err != nil {
		return err
	}
	r.charge(clk, r.dev.prof.WriteCost(len(data)), len(data))
	return nil
}

// Load64 reads a little-endian uint64 flag word at off with a single-line
// access cost. The paper's coherency protocol reads invalid/removal flags
// this way (§3.3).
func (r *Region) Load64(clk *simclock.Clock, off int64) (uint64, error) {
	var b [8]byte
	if err := r.ReadRaw(off, b[:]); err != nil {
		return 0, err
	}
	r.charge(clk, r.dev.prof.ReadCost(8), 8)
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Store64 writes a little-endian uint64 flag word at off with a single-line
// access cost — the "single memory store operation on CXL memory" the paper
// says completes within a few hundred nanoseconds (§3.3).
func (r *Region) Store64(clk *simclock.Clock, off int64, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	if err := r.WriteRaw(off, b[:]); err != nil {
		return err
	}
	r.charge(clk, r.dev.prof.WriteCost(8), 8)
	return nil
}

// Load64Raw reads a flag word without cost (crash-recovery scans that are
// costed in bulk by the caller).
func (r *Region) Load64Raw(off int64) (uint64, error) {
	var b [8]byte
	if err := r.ReadRaw(off, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Store64Raw writes a flag word without cost.
func (r *Region) Store64Raw(off int64, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return r.WriteRaw(off, b[:])
}
