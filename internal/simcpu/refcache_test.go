package simcpu

import (
	"container/list"
	"fmt"

	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simmem"
)

// refCache is the straightforward cache model the slab-backed Cache must
// agree with: a map from line address to a heap-allocated line, and a
// container/list LRU. The differential test drives both with the same
// operations and compares every observable.
type refCache struct {
	capacity   int
	hitLatency int64
	lines      map[refKey]*refLine
	lru        *list.List // front = most recent
	stats      Stats
	link       Interconnect
	inj        fault.Injector
	// domain, when set, lists every cache of a coherency domain, c
	// included, in attach order; snoopNs is its per-peer snoop cost.
	domain  []*refCache
	snoopNs int64
}

type refKey struct {
	dev  *simmem.Device
	addr int64
}

type refLine struct {
	key   refKey
	data  [LineSize]byte
	dirty bool
	elem  *list.Element
}

func newRefCache(capacityBytes, hitLatency int64) *refCache {
	return &refCache{
		capacity:   int(capacityBytes / LineSize),
		hitLatency: hitLatency,
		lines:      make(map[refKey]*refLine),
		lru:        list.New(),
	}
}

func (c *refCache) writeBack(clk *simclock.Clock, ln *refLine) error {
	if err := ln.key.dev.WholeRegion().WriteAt(clk, ln.key.addr, ln.data[:]); err != nil {
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

func (c *refCache) evictIfFull(clk *simclock.Clock) error {
	for len(c.lines) >= c.capacity {
		victim := c.lru.Back().Value.(*refLine)
		if victim.dirty {
			skip := false
			if c.inj != nil {
				if err := c.inj.Point(fault.OpWriteBack, LineSize); err != nil {
					if !fault.IsDrop(err) {
						return err
					}
					skip = true
				}
			}
			if !skip {
				if err := c.writeBack(clk, victim); err != nil {
					return err
				}
			}
		}
		c.lru.Remove(victim.elem)
		delete(c.lines, victim.key)
	}
	return nil
}

func (c *refCache) get(clk *simclock.Clock, k refKey, streamed bool) (*refLine, bool, error) {
	if ln, ok := c.lines[k]; ok {
		c.lru.MoveToFront(ln.elem)
		c.stats.Hits++
		clk.Advance(c.hitLatency)
		return ln, false, nil
	}
	if err := c.evictIfFull(clk); err != nil {
		return nil, true, err
	}
	if err := c.supplyLatest(clk, k); err != nil {
		return nil, true, err
	}
	ln := &refLine{key: k}
	r := k.dev.WholeRegion()
	if streamed {
		if err := r.ReadRaw(k.addr, ln.data[:]); err != nil {
			return nil, true, err
		}
		prof := k.dev.Profile()
		streamCost := prof.ReadCost(LineSize) - prof.ReadLatency
		if streamCost < 2 {
			streamCost = 2
		}
		clk.Advance(streamCost)
	} else if err := r.ReadAt(clk, k.addr, ln.data[:]); err != nil {
		return nil, true, err
	}
	if c.link != nil {
		c.link.Use(clk, LineSize)
	}
	ln.elem = c.lru.PushFront(ln)
	c.lines[k] = ln
	c.stats.Misses++
	c.stats.BytesFetched += LineSize
	return ln, true, nil
}

// supplyLatest writes back the first peer's dirty copy of k before a fill,
// charging one snoop.
func (c *refCache) supplyLatest(clk *simclock.Clock, k refKey) error {
	for _, peer := range c.domain {
		if ln, ok := peer.lines[k]; ok && peer != c && ln.dirty {
			if err := peer.writeBack(clk, ln); err != nil {
				return err
			}
			clk.Advance(c.snoopNs)
			return nil
		}
	}
	return nil
}

// invalidatePeers drops every peer's copy of k after a store, writing a
// dirty one back first, and charges one snoop per copy dropped.
func (c *refCache) invalidatePeers(clk *simclock.Clock, k refKey) error {
	for _, peer := range c.domain {
		ln, ok := peer.lines[k]
		if !ok || peer == c {
			continue
		}
		if ln.dirty {
			if err := peer.writeBack(clk, ln); err != nil {
				return err
			}
		}
		peer.lru.Remove(ln.elem)
		delete(peer.lines, k)
		clk.Advance(c.snoopNs)
	}
	return nil
}

// access runs a Read (store == false) or a Write through the reference.
func (c *refCache) access(clk *simclock.Clock, region *simmem.Region, off int64, buf []byte, store bool) error {
	if len(buf) == 0 {
		return nil
	}
	if off < 0 || off+int64(len(buf)) > region.Size() {
		return fmt.Errorf("reference: access [%d,%d) out of bounds", off, off+int64(len(buf)))
	}
	addr := region.Base() + off
	first, last := lineRange(addr, len(buf))
	prevMiss := false
	for la := first; la <= last; la += LineSize {
		ln, missed, err := c.get(clk, refKey{region.Device(), la}, prevMiss)
		if err != nil {
			return err
		}
		prevMiss = missed
		lo, hi := max(addr, la), min(addr+int64(len(buf)), la+LineSize)
		if store {
			copy(ln.data[lo-la:hi-la], buf[lo-addr:hi-addr])
			ln.dirty = true
		} else {
			copy(buf[lo-addr:hi-addr], ln.data[lo-la:hi-la])
		}
	}
	if store {
		for la := first; la <= last; la += LineSize {
			if err := c.invalidatePeers(clk, refKey{region.Device(), la}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *refCache) Flush(clk *simclock.Clock, region *simmem.Region, off int64, n int) error {
	if n <= 0 {
		return nil
	}
	if off < 0 || off+int64(n) > region.Size() {
		return fmt.Errorf("reference: flush [%d,%d) out of bounds", off, off+int64(n))
	}
	first, last := lineRange(region.Base()+off, n)
	rev := false
	if c.inj != nil {
		if err := c.inj.Point(fault.OpFlushRange, int64(n)); err != nil {
			if fault.IsDrop(err) {
				return nil
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
		k := refKey{region.Device(), la}
		ln, ok := c.lines[k]
		if !ok {
			continue
		}
		if c.inj != nil {
			if err := c.inj.Point(fault.OpFlushLine, LineSize); err != nil {
				if fault.IsDrop(err) {
					continue
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
		clk.Advance(c.hitLatency)
	}
	return nil
}

func (c *refCache) Drop() {
	c.lines = make(map[refKey]*refLine)
	c.lru.Init()
}

func (c *refCache) LinesInRange(region *simmem.Region, off int64, n int) (resident, dirty int) {
	if n <= 0 {
		return 0, 0
	}
	first, last := lineRange(region.Base()+off, n)
	for la := first; la <= last; la += LineSize {
		if ln, ok := c.lines[refKey{region.Device(), la}]; ok {
			resident++
			if ln.dirty {
				dirty++
			}
		}
	}
	return resident, dirty
}

// lruOrder lists the resident lines, least recently used first.
func (c *refCache) lruOrder() []refKey {
	keys := make([]refKey, 0, c.lru.Len())
	for e := c.lru.Back(); e != nil; e = e.Prev() {
		keys = append(keys, e.Value.(*refLine).key)
	}
	return keys
}

func (c *refCache) DirtyLines() int {
	n := 0
	for _, ln := range c.lines {
		if ln.dirty {
			n++
		}
	}
	return n
}
