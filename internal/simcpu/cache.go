// Package simcpu models a per-node CPU cache over simulated memory devices.
//
// The paper's CXL 2.0 coherency protocol (§3.3) is software-managed: hardware
// provides no cross-host invalidation, so a node that cached lines of a page
// will read stale data after another node updates the page in CXL memory,
// unless the database-level protocol flushes/invalidates at the right
// moments. To make that protocol falsifiable in simulation, this cache is
// functional: it stores actual copies of line data. Reads served from the
// cache return the cached copy — which is stale if the underlying device
// changed — and dirty lines are invisible to other nodes until written back
// (by eviction or clflush).
//
// The cache is write-back, write-allocate (read-for-ownership on a write
// miss), with LRU replacement and 64-byte lines. Costs: a per-access hit
// latency, a device-profile line fetch on miss, and a device-profile line
// write on write-back. Flush models clflush: write back dirty lines and
// invalidate the range. Drop models power loss: cached dirty data is gone.
package simcpu

import (
	"container/list"
	"fmt"

	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simmem"
)

// LineSize is the cache-line size in bytes.
const LineSize = simmem.LineSize

type lineKey struct {
	dev  *simmem.Device
	addr int64 // absolute line-aligned device offset
}

type line struct {
	key   lineKey
	data  [LineSize]byte
	dirty bool
	elem  *list.Element
}

// Stats counts cache events and traffic since the last reset.
type Stats struct {
	Hits         int64
	Misses       int64
	WriteBacks   int64 // dirty-line evictions + flushed dirty lines
	Flushed      int64 // lines invalidated by Flush
	BytesFetched int64 // device bytes read on misses
	BytesWritten int64 // device bytes written on write-backs
}

// Cache is one node's CPU cache. Safe for concurrent use by the node's
// worker threads.
type Cache struct {
	name       string
	capacity   int // max lines
	hitLatency int64

	mu    chan struct{} // 1-slot semaphore: avoids lock-order issues with device mutexes
	lines map[lineKey]*line
	lru   *list.List // front = most recent
	stats Stats
	link  Interconnect   // optional per-host interconnect charged per fill/write-back
	inj   fault.Injector // optional fault injector; may be nil
	// domain, when set, provides CXL 3.0 hardware coherency across the
	// domain's caches (see domain.go). Nil = CXL 2.0 behaviour: no
	// inter-host coherency, software protocol required.
	domain *Domain
}

// New returns a cache holding capacityBytes of line data with the given
// per-access hit latency in virtual nanoseconds. It panics if capacityBytes
// is smaller than one line.
func New(name string, capacityBytes int64, hitLatency int64) *Cache {
	if capacityBytes < LineSize {
		panic(fmt.Sprintf("simcpu: cache %q capacity %d smaller than one line", name, capacityBytes))
	}
	c := &Cache{
		name:       name,
		capacity:   int(capacityBytes / LineSize),
		hitLatency: hitLatency,
		mu:         make(chan struct{}, 1),
		lines:      make(map[lineKey]*line),
		lru:        list.New(),
	}
	return c
}

func (c *Cache) lock()   { c.mu <- struct{}{} }
func (c *Cache) unlock() { <-c.mu }

// Interconnect is a charged transport between the CPU and a memory device:
// a single queueing resource (*simclock.Resource) or a composed multi-hop
// route (a cxl topology path). It is charged one line of traffic on every
// fill and write-back.
type Interconnect interface {
	Use(clk *simclock.Clock, units int64)
}

// SetInterconnect attaches the host's interconnect (e.g., its CXL link plus
// any cross-switch route), charged one line of traffic on every fill and
// write-back. ic must not be a typed nil. Must be called before the cache is
// shared across goroutines.
func (c *Cache) SetInterconnect(ic Interconnect) { c.link = ic }

// SetInjector installs (or, with nil, removes) the fault injector consulted
// at the cache's clflush and eviction write-back points. If the injector
// also implements fault.Orderer, each Flush call asks it whether to process
// its lines in reverse address order.
func (c *Cache) SetInjector(inj fault.Injector) {
	c.lock()
	c.inj = inj
	c.unlock()
}

// Name reports the cache name.
func (c *Cache) Name() string { return c.name }

// Stats returns a snapshot of the event counters.
func (c *Cache) Stats() Stats {
	c.lock()
	defer c.unlock()
	return c.stats
}

// ResetStats zeroes the event counters without touching cached data.
func (c *Cache) ResetStats() {
	c.lock()
	c.stats = Stats{}
	c.unlock()
}

// touch moves ln to the MRU position.
func (c *Cache) touch(ln *line) { c.lru.MoveToFront(ln.elem) }

// writeBack writes a dirty line to its device, charging clk.
func (c *Cache) writeBack(clk *simclock.Clock, ln *line) error {
	r := ln.key.dev.WholeRegion()
	if err := r.WriteAt(clk, ln.key.addr, ln.data[:]); err != nil {
		return err
	}
	if c.link != nil {
		c.link.Use(clk, LineSize)
	}
	ln.dirty = false
	c.stats.WriteBacks++
	c.stats.BytesWritten += LineSize
	return nil
}

// evictIfFull makes room for one more line.
func (c *Cache) evictIfFull(clk *simclock.Clock) error {
	for len(c.lines) >= c.capacity {
		e := c.lru.Back()
		if e == nil {
			return fmt.Errorf("simcpu: cache %q full with empty LRU", c.name)
		}
		victim := e.Value.(*line)
		if victim.dirty {
			skip := false
			if c.inj != nil {
				if err := c.inj.Point(fault.OpWriteBack, LineSize); err != nil {
					if !fault.IsDrop(err) {
						return err
					}
					skip = true // dropped write-back: the dirty data is lost
				}
			}
			if !skip {
				if err := c.writeBack(clk, victim); err != nil {
					return err
				}
			}
		}
		c.lru.Remove(e)
		delete(c.lines, victim.key)
	}
	return nil
}

// fill fetches the line containing addr from dev, charging clk the device
// read cost, and installs it. When streamed is set — the immediately
// preceding line of the same access also missed — the hardware prefetcher
// has the line in flight, so only the streaming-rate portion of the cost is
// charged, not the full access latency. This is what lets a sequential
// range scan over CXL run at the device's streaming bandwidth instead of
// one serialized miss per 64 B (the paper's range-select workloads depend
// on it, §2.3/§4.2).
func (c *Cache) fill(clk *simclock.Clock, k lineKey, streamed bool) (*line, error) {
	if err := c.evictIfFull(clk); err != nil {
		return nil, err
	}
	ln := &line{key: k}
	if c.domain != nil {
		// CXL 3.0 mode: a dirty peer copy is written back by hardware
		// before the fill, so the device read below returns fresh data.
		if err := c.domain.supplyLatest(clk, c, k); err != nil {
			return nil, err
		}
	}
	r := k.dev.WholeRegion()
	if streamed {
		if err := r.ReadRaw(k.addr, ln.data[:]); err != nil {
			return nil, err
		}
		prof := k.dev.Profile()
		streamCost := prof.ReadCost(LineSize) - prof.ReadLatency
		if streamCost < 2 {
			streamCost = 2
		}
		clk.Advance(streamCost)
	} else if err := r.ReadAt(clk, k.addr, ln.data[:]); err != nil {
		return nil, err
	}
	if c.link != nil {
		c.link.Use(clk, LineSize)
	}
	ln.elem = c.lru.PushFront(ln)
	c.lines[k] = ln
	c.stats.Misses++
	c.stats.BytesFetched += LineSize
	return ln, nil
}

// get returns the line for k, filling on miss. missed reports whether a
// fill happened (prefetch-chain tracking).
func (c *Cache) get(clk *simclock.Clock, k lineKey, streamed bool) (*line, bool, error) {
	if ln, ok := c.lines[k]; ok {
		c.touch(ln)
		c.stats.Hits++
		clk.Advance(c.hitLatency)
		return ln, false, nil
	}
	ln, err := c.fill(clk, k, streamed)
	return ln, true, err
}

// lineRange iterates the line-aligned addresses covering [addr, addr+n).
func lineRange(addr int64, n int) (first, last int64) {
	first = addr &^ (LineSize - 1)
	last = (addr + int64(n) - 1) &^ (LineSize - 1)
	return first, last
}

// Read reads len(buf) bytes at off within region, through the cache.
func (c *Cache) Read(clk *simclock.Clock, region *simmem.Region, off int64, buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	if off < 0 || off+int64(len(buf)) > region.Size() {
		return fmt.Errorf("simcpu: cached read [%d,%d) out of region bounds [0,%d)", off, off+int64(len(buf)), region.Size())
	}
	c.lock()
	defer c.unlock()
	dev := region.Device()
	addr := region.Base() + off
	first, last := lineRange(addr, len(buf))
	prevMiss := false
	for la := first; la <= last; la += LineSize {
		ln, missed, err := c.get(clk, lineKey{dev, la}, prevMiss)
		if err != nil {
			return err
		}
		prevMiss = missed
		// Intersect [addr, addr+len) with [la, la+LineSize).
		lo, hi := addr, addr+int64(len(buf))
		if la > lo {
			lo = la
		}
		if la+LineSize < hi {
			hi = la + LineSize
		}
		copy(buf[lo-addr:hi-addr], ln.data[lo-la:hi-la])
	}
	return nil
}

// Write writes data at off within region, through the cache (write-back,
// write-allocate). The device is NOT updated until eviction or Flush.
func (c *Cache) Write(clk *simclock.Clock, region *simmem.Region, off int64, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if off < 0 || off+int64(len(data)) > region.Size() {
		return fmt.Errorf("simcpu: cached write [%d,%d) out of region bounds [0,%d)", off, off+int64(len(data)), region.Size())
	}
	c.lock()
	dev := region.Device()
	addr := region.Base() + off
	first, last := lineRange(addr, len(data))
	var written []lineKey
	prevMiss := false
	for la := first; la <= last; la += LineSize {
		k := lineKey{dev, la}
		ln, missed, err := c.get(clk, k, prevMiss)
		if err != nil {
			c.unlock()
			return err
		}
		prevMiss = missed
		lo, hi := addr, addr+int64(len(data))
		if la > lo {
			lo = la
		}
		if la+LineSize < hi {
			hi = la + LineSize
		}
		copy(ln.data[lo-la:hi-la], data[lo-addr:hi-addr])
		ln.dirty = true
		if c.domain != nil {
			written = append(written, k)
		}
	}
	c.unlock()
	// CXL 3.0 mode: every store back-invalidates peer copies of the line.
	for _, k := range written {
		if err := c.domain.invalidatePeers(clk, c, k); err != nil {
			return err
		}
	}
	return nil
}

// Flush models clflush over [off, off+n) within region: dirty lines are
// written back to the device, then all lines in the range are invalidated.
// Subsequent reads fetch fresh data from the device. This is the primitive
// the paper's protocol issues on write-lock release (publish) and on
// observing a set invalid flag (discard possibly-stale lines).
func (c *Cache) Flush(clk *simclock.Clock, region *simmem.Region, off int64, n int) error {
	if n <= 0 {
		return nil
	}
	if off < 0 || off+int64(n) > region.Size() {
		return fmt.Errorf("simcpu: flush [%d,%d) out of region bounds [0,%d)", off, off+int64(n), region.Size())
	}
	c.lock()
	defer c.unlock()
	dev := region.Device()
	addr := region.Base() + off
	first, last := lineRange(addr, n)
	rev := false
	if c.inj != nil {
		if err := c.inj.Point(fault.OpFlushRange, int64(n)); err != nil {
			if fault.IsDrop(err) {
				return nil // the whole clflush range is silently lost
			}
			return err
		}
		if ord, ok := c.inj.(fault.Orderer); ok {
			rev = ord.ReverseFlush()
		}
	}
	la, end, step := first, last+LineSize, int64(LineSize)
	if rev {
		la, end, step = last, first-LineSize, -LineSize
	}
	for ; la != end; la += step {
		k := lineKey{dev, la}
		ln, ok := c.lines[k]
		if !ok {
			continue
		}
		if c.inj != nil {
			if err := c.inj.Point(fault.OpFlushLine, LineSize); err != nil {
				if fault.IsDrop(err) {
					continue // lost clflush: the line stays cached and dirty
				}
				return err
			}
		}
		if ln.dirty {
			if err := c.writeBack(clk, ln); err != nil {
				return err
			}
		}
		c.lru.Remove(ln.elem)
		delete(c.lines, k)
		c.stats.Flushed++
		clk.Advance(c.hitLatency) // clflush issue cost per resident line
	}
	return nil
}

// Drop discards every cached line without write-back: the power-loss path.
// Dirty data that was never flushed is lost, exactly as on a host crash.
func (c *Cache) Drop() {
	c.lock()
	c.lines = make(map[lineKey]*line)
	c.lru.Init()
	c.unlock()
}

// LinesInRange reports how many cache lines intersecting [off, off+n) of
// region are resident, and how many of those are dirty. The sharing
// protocol's instrumentation uses this to judge publication/invalidation
// flushes: dirty lines surviving a publish flush mean the write is torn,
// resident lines surviving an invalidation flush mean the copy is stale.
func (c *Cache) LinesInRange(region *simmem.Region, off int64, n int) (resident, dirty int) {
	if n <= 0 {
		return 0, 0
	}
	c.lock()
	defer c.unlock()
	dev := region.Device()
	addr := region.Base() + off
	first, last := lineRange(addr, n)
	for la := first; la <= last; la += LineSize {
		if ln, ok := c.lines[lineKey{dev, la}]; ok {
			resident++
			if ln.dirty {
				dirty++
			}
		}
	}
	return resident, dirty
}

// DirtyLines reports how many cached lines are dirty (test/diagnostic hook).
func (c *Cache) DirtyLines() int {
	c.lock()
	defer c.unlock()
	n := 0
	for _, ln := range c.lines {
		if ln.dirty {
			n++
		}
	}
	return n
}

// ResidentLines reports how many lines are currently cached.
func (c *Cache) ResidentLines() int {
	c.lock()
	defer c.unlock()
	return len(c.lines)
}
