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
// miss), with exact LRU replacement and 64-byte lines. Costs: a per-access hit
// latency, a device-profile line fetch on miss, and a device-profile line
// write on write-back. Flush models clflush: write back dirty lines and
// invalidate the range. Drop models power loss: cached dirty data is gone.
//
// Representation: lines live by value in a slab that grows in fixed-size
// chunks and recycles freed lines; a block index maps each (device, 4
// KiB-aligned offset) to a residency mask, a dirty mask and the slab index of
// each of its 64 lines; Flush walks the masks, so clean lines leave unloaded
// while charges stay per line. The LRU is kept lazily: a hit or fill stamps
// its line from a per-cache counter, and only an eviction orders lines, from
// a sorted snapshot of (stamp, slab index) keys built when the previous one
// runs out. A steady-state hit, miss or flush allocates nothing.
//
// A span walks its lines one block at a time: one block probe gives the
// residency of the block's lines, resident lines are hits, and each run of
// absent lines is filled in address order by one fill call. The lines of a
// run after its first are read in one device access when nothing can fail
// or fire a fault point (the device is powered on with no injector, and the
// interconnect is quiet), and the link bookings they owe are made by one
// Interconnect.UseRun call; charges, counters and their order are exactly
// those of filling the lines one at a time.
//
// Accesses run inside a hold: a caller takes the cache's lock once with
// Hold, makes any number of ReadHeld / WriteHeld / LoadHeld / StoreHeld
// calls (a page visit reading slotted-page fields makes many small ones),
// and Unholds. Flush and the diagnostics take the lock on their own.
package simcpu

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simmem"
)

// LineSize is the cache-line size in bytes.
const LineSize = simmem.LineSize

const (
	// blockLines is the number of lines one block-index entry covers: one
	// uint64 residency mask, 4 KiB of device address space.
	blockLines = 64
	blockSize  = blockLines * LineSize
	// nilIdx is the absent slab index: no such line.
	nilIdx int32 = -1
	// memoSize is the number of direct-mapped block memo entries, indexed
	// by the block's 4 KiB number modulo memoSize. A 16 KiB page image
	// that is not 4 KiB-aligned spans five blocks, and a binary search
	// over it alternates between the slot directory at its end and
	// records near its start; 64 entries keep a dozen neighbouring pages
	// memoized — a B+tree descent's meta, root and inner pages among them.
	memoSize = 64
)

// line is one resident cache line, held by value in the line slab.
type line struct {
	data  [LineSize]byte
	stamp uint64 // counter value of the last use; 0: not installed since allocated
	blk   int32  // owning block's slab index
	slot  uint8  // line number within the block
}

// maxStamp is the largest stamp an eviction key packs above a 32-bit slab
// index; the counter renumbers before passing it (a variable for tests).
var maxStamp uint64 = 1<<32 - 1

// blockKey names a 4 KiB-aligned span of a device.
type blockKey struct {
	dev  *simmem.Device
	base int64 // absolute device offset, 4 KiB-aligned
}

// memoEntry remembers the block slab index of one recently probed key.
type memoEntry struct {
	key blockKey
	blk int32
}

// memoSlot is the memo entry a block at the 4 KiB-aligned base maps to.
func memoSlot(base int64) int { return int(base/blockSize) & (memoSize - 1) }

// block is one block-index entry: which of the span's 64 lines are
// resident and dirty, and where each resident line lives in the line slab.
type block struct {
	key   blockKey
	mask  uint64            // bit s set: line s is resident
	dirty uint64            // bit s set: line s is resident and dirty
	slots [blockLines]int32 // slab index of each resident line
}

// slabChunkShift sizes slab chunks at 64 entries (4.5 KiB of lines), so a
// freshly built cache allocates in step with what it fills.
const (
	slabChunkShift = 6
	slabChunk      = 1 << slabChunkShift
)

// slab is an index-addressed arena. It grows one fixed-size chunk at a
// time, so entries never move, and reuses released entries first.
type slab[T any] struct {
	chunks []*[slabChunk]T
	used   int32   // entries handed out since the last reset
	free   []int32 // released entries
}

func (s *slab[T]) at(i int32) *T { return &s.chunks[i>>slabChunkShift][i&(slabChunk-1)] }

// alloc returns the index of an unused entry, which holds whatever its
// previous user left in it.
func (s *slab[T]) alloc() int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		return i
	}
	i := s.used
	if int(i>>slabChunkShift) == len(s.chunks) {
		s.chunks = append(s.chunks, new([slabChunk]T))
	}
	s.used++
	return i
}

func (s *slab[T]) release(i int32) { s.free = append(s.free, i) }

// reset releases every entry, keeping the chunks for reuse.
func (s *slab[T]) reset() {
	s.used = 0
	s.free = s.free[:0]
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

	mu       sync.Mutex
	index    map[blockKey]int32 // block slab index of every block with a resident line
	blocks   slab[block]
	lines    slab[line]
	resident int    // resident lines
	tick     uint64 // the last stamp handed out
	// order[next:] is the eviction order, stamp<<32 | slab index of the
	// lines resident when it was built, oldest first; an entry whose line
	// was used or removed since is stale, and every line used since is
	// younger than every valid entry. fresh logs the keys of lines
	// installed since, up to its capacity; built is the counter then.
	order []uint64
	next  int
	fresh []uint64
	built uint64
	stats Stats
	// memo caches recent index hits, direct-mapped by block number: the
	// accesses of one page operation touch a handful of neighbouring
	// blocks, and the memo spares their map probes. A released block's
	// key is never memoized.
	memo [memoSize]memoEntry
	// runBuf stages a run of streamed lines read in one device access, and
	// filled the slab indices of the lines the last fill installed.
	runBuf [blockSize]byte
	filled [blockLines]int32
	link   Interconnect   // optional per-host interconnect charged per fill/write-back
	route  routed         // link, when its bookings can fire fault points
	inj    fault.Injector // optional fault injector; may be nil
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
	return &Cache{
		name:       name,
		capacity:   int(capacityBytes / LineSize),
		hitLatency: hitLatency,
		index:      make(map[blockKey]int32),
	}
}

// Interconnect is a charged transport between the CPU and a memory device:
// a single queueing resource (*simclock.Resource) or a composed multi-hop
// route (a cxl topology path). It is charged one line of traffic on every
// fill and write-back.
type Interconnect interface {
	Use(clk *simclock.Clock, units int64)
	// UseRun is n times clk.Advance(gap) then Use(clk, units): the
	// bookings of a run of streamed line fills.
	UseRun(clk *simclock.Clock, units int64, n int, gap int64)
}

// routed is an Interconnect whose route has fault points (a cxl host path
// once chaos is armed): a booking can fire one that powers off the memory
// a fill reads. Quiet reports whether a booking made now would only charge
// time. A fill reads a run's streamed lines ahead of their bookings only
// while its interconnect is quiet: any other interconnect always is.
type routed interface{ Quiet() bool }

// SetInterconnect attaches the host's interconnect (e.g., its CXL link plus
// any cross-switch route), charged one line of traffic on every fill and
// write-back. ic must not be a typed nil. Must be called before the cache is
// shared across goroutines.
func (c *Cache) SetInterconnect(ic Interconnect) {
	c.link = ic
	c.route, _ = ic.(routed)
}

// SetInjector installs (or, with nil, removes) the fault injector consulted
// at the cache's clflush and eviction write-back points. If the injector
// also implements fault.Orderer, each Flush call asks it whether to process
// its lines in reverse address order.
func (c *Cache) SetInjector(inj fault.Injector) {
	c.mu.Lock()
	c.inj = inj
	c.mu.Unlock()
}

// Name reports the cache name.
func (c *Cache) Name() string { return c.name }

// Domain reports the coherency domain c is attached to, or nil when the
// cache has no inter-host coherency (CXL 2.0).
func (c *Cache) Domain() *Domain { return c.domain }

// Stats returns a snapshot of the event counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats zeroes the event counters without touching cached data.
func (c *Cache) ResetStats() {
	c.mu.Lock()
	c.stats = Stats{}
	c.mu.Unlock()
}

// block returns the slab index of the block for key, if it has a resident
// line.
func (c *Cache) block(key blockKey) (int32, bool) {
	m := &c.memo[memoSlot(key.base)]
	if m.key == key {
		return m.blk, true
	}
	bi, ok := c.index[key]
	if ok {
		m.key, m.blk = key, bi
	}
	return bi, ok
}

// lookup returns the slab index of the resident line at the line-aligned
// device offset addr of dev, or nilIdx.
func (c *Cache) lookup(dev *simmem.Device, addr int64) int32 {
	bi, ok := c.block(blockKey{dev, addr &^ (blockSize - 1)})
	if !ok {
		return nilIdx
	}
	b := c.blocks.at(bi)
	s := (addr & (blockSize - 1)) / LineSize
	if b.mask&(1<<s) == 0 {
		return nilIdx
	}
	return b.slots[s]
}

// holds reports whether slab entry i, whose stamp is nonzero, is resident:
// a freed entry keeps its stamp, so residency is read from its block.
func (c *Cache) holds(i int32) bool {
	ln := c.lines.at(i)
	b := c.blocks.at(ln.blk)
	return b.mask&(1<<ln.slot) != 0 && b.slots[ln.slot] == i
}

// dirty reports whether the resident line i is dirty.
func (c *Cache) dirty(i int32) bool {
	ln := c.lines.at(i)
	return c.blocks.at(ln.blk).dirty&(1<<ln.slot) != 0
}

// markDirty records a store into the resident line ln.
func (c *Cache) markDirty(ln *line) { c.blocks.at(ln.blk).dirty |= 1 << ln.slot }

// touch makes ln the most recently used line.
func (c *Cache) touch(ln *line) {
	if c.tick == maxStamp {
		c.renumber()
	}
	c.tick++
	ln.stamp = c.tick
}

// buildOrder makes order the eviction order of the resident lines (and of
// freed entries, which keep their stamps, while any is free).
func (c *Cache) buildOrder() {
	if c.next == len(c.order) && c.tick-c.built == uint64(len(c.fresh)) {
		// No entry of the last order is left, and every stamp since went
		// to a logged install: the lines installed since, in install
		// order, are all that is resident.
		c.order, c.fresh = c.fresh, c.order
	} else {
		c.order = c.order[:0]
		for i := range c.lines.used {
			if s := c.lines.at(i).stamp; s != 0 {
				c.order = append(c.order, s<<32|uint64(i))
			}
		}
		slices.Sort(c.order)
	}
	c.fresh, c.next, c.built = slices.Grow(c.fresh[:0], c.capacity), 0, c.tick
}

// renumber restamps the resident lines 1, 2, ... in LRU order, so the
// counter restarts below every stamp to come, and rekeys order to match.
func (c *Cache) renumber() {
	c.buildOrder()
	n := uint64(0)
	for _, k := range c.order {
		if i := int32(uint32(k)); c.lines.at(i).stamp == k>>32 && c.holds(i) {
			n++
			c.lines.at(i).stamp = n
			c.order[n-1] = n<<32 | uint64(i)
		}
	}
	c.order, c.tick, c.built = c.order[:n], n, n
}

// lru returns the least recently used line without taking it out of the
// eviction order, rebuilding the order when no valid entry is left. The cache
// is full, so every freed entry has been reused and restamped since.
func (c *Cache) lru() int32 {
	for {
		for ; c.next < len(c.order); c.next++ {
			k := c.order[c.next]
			if i := int32(uint32(k)); c.lines.at(i).stamp == k>>32 {
				return i
			}
		}
		c.buildOrder()
	}
}

// install indexes the freshly filled line i as the line at addr of dev and
// makes it the most recently used line.
func (c *Cache) install(i int32, dev *simmem.Device, addr int64) {
	key := blockKey{dev, addr &^ (blockSize - 1)}
	bi, ok := c.block(key)
	if !ok {
		bi = c.blocks.alloc()
		nb := c.blocks.at(bi)
		nb.key, nb.mask, nb.dirty = key, 0, 0
		c.index[key] = bi
		c.memo[memoSlot(key.base)] = memoEntry{key, bi}
	}
	b := c.blocks.at(bi)
	s := (addr & (blockSize - 1)) / LineSize
	b.mask |= 1 << s
	b.slots[s] = i
	ln := c.lines.at(i)
	ln.blk, ln.slot = bi, uint8(s)
	c.touch(ln)
	if len(c.fresh) < cap(c.fresh) {
		c.fresh = append(c.fresh, ln.stamp<<32|uint64(i))
	}
	c.resident++
}

// remove invalidates the resident line i.
func (c *Cache) remove(i int32) { ln := c.lines.at(i); c.drop(ln.blk, 1<<ln.slot) }

// drop invalidates the resident lines m (maybe none) of block bi unloaded:
// they leave its masks, their entries are freed, and so is an empty block.
func (c *Cache) drop(bi int32, m uint64) {
	b := c.blocks.at(bi)
	for r := m; r != 0; r &= r - 1 {
		c.lines.release(b.slots[bits.TrailingZeros64(r)])
	}
	c.resident -= bits.OnesCount64(m)
	b.mask &^= m
	b.dirty &^= m
	if b.mask == 0 {
		delete(c.index, b.key)
		if me := &c.memo[memoSlot(b.key.base)]; me.key == b.key {
			*me = memoEntry{}
		}
		b.key = blockKey{}
		c.blocks.release(bi)
	}
}

// writeBack writes dirty line i to its device, charging clk.
func (c *Cache) writeBack(clk *simclock.Clock, i int32) error {
	ln := c.lines.at(i)
	b := c.blocks.at(ln.blk)
	if err := b.key.dev.WholeRegion().WriteAt(clk, b.key.base+int64(ln.slot)*LineSize, ln.data[:]); err != nil {
		return err
	}
	if c.link != nil {
		c.link.Use(clk, LineSize)
	}
	b.dirty &^= 1 << ln.slot
	c.stats.WriteBacks++
	c.stats.BytesWritten += LineSize
	return nil
}

// evictIfFull makes room for one more line.
func (c *Cache) evictIfFull(clk *simclock.Clock) error {
	for c.resident >= c.capacity {
		victim := c.lru()
		if c.dirty(victim) {
			var err error
			if c.inj != nil {
				err = c.inj.Point(fault.OpWriteBack, LineSize)
			}
			if err == nil {
				err = c.writeBack(clk, victim)
			} else if fault.IsDrop(err) {
				err = nil // dropped write-back: the dirty data is lost
			}
			if err != nil {
				return err
			}
		}
		c.remove(victim)
	}
	return nil
}

// fill fills the run of n absent lines of dev from the line-aligned offset
// la, in address order, charging clk what filling them one at a time would
// cost, and leaves the slab indices of the lines it installs in c.filled. It
// returns how many it installed: fewer than n only with an error. The run
// is at most c.capacity lines long, so none of its lines evicts another,
// and one line long in a coherency domain, where each line's fill first
// has a peer write back its dirty copy.
//
// A line is streamed when the line before it in the same access also
// missed: the hardware prefetcher has it in flight, so it costs only the
// streaming-rate part of a read, not the full access latency. This is what
// lets a sequential range scan over CXL run at the device's streaming
// bandwidth instead of one serialized miss per 64 B (the paper's
// range-select workloads depend on it, §2.3/§4.2). Every line of a run
// after its first is streamed; the first is when streamed is set.
//
// The streamed lines are read in one device access ahead of their bookings
// when neither can fail or fire a fault point: the device allows it
// (simmem.Region.ReadLines) and the interconnect is quiet. Their charges —
// the stream gap and one link booking each — are then owed and replayed in
// order by one booking call, before a dirty victim's eviction and at the
// end, and only the lines installed are counted as device reads. Otherwise
// each line is read and charged by itself, with its device and route fault
// points where one line fill has them. A lone line (n == 1) is the whole
// of a word access's fill.
func (c *Cache) fill(clk *simclock.Clock, dev *simmem.Device, la int64, n int, streamed bool) (k int, err error) {
	r := dev.WholeRegion()
	from, gap := 0, int64(0) // the first streamed line, and its cost
	if !streamed {
		from = 1
	}
	if from < n {
		prof := dev.Profile()
		gap = max(prof.ReadCost(LineSize)-prof.ReadLatency, 2)
	}
	bulk := n-from > 1 && (c.route == nil || c.route.Quiet()) &&
		r.ReadLines(la+int64(from)*LineSize, c.runBuf[:(n-from)*LineSize])
	owed := 0
	for ; k < n; k++ {
		if owed > 0 && c.resident >= c.capacity && c.dirty(c.lru()) {
			c.book(clk, owed, gap)
			owed = 0
		}
		if err = c.evictIfFull(clk); err != nil {
			break
		}
		a := la + int64(k)*LineSize
		if c.domain != nil {
			// CXL 3.0 mode: a dirty peer copy is written back by hardware
			// before the fill, so the device read below returns fresh data.
			if err = c.domain.supplyLatest(clk, c, dev, a); err != nil {
				break
			}
		}
		i := c.lines.alloc()
		ln := c.lines.at(i)
		ln.stamp = 0
		if bulk && k >= from {
			ln.data = [LineSize]byte(c.runBuf[(k-from)*LineSize:])
			owed++
		} else if err = c.readLine(clk, r, a, ln, k >= from, gap); err != nil {
			c.lines.release(i)
			break
		}
		c.install(i, dev, a)
		c.filled[k] = i
		c.stats.Misses++
		c.stats.BytesFetched += LineSize
	}
	c.book(clk, owed, gap)
	if bulk && k > from {
		r.CountLineReads(k - from)
	}
	return k, err
}

// readLine reads the line at a of r into ln by itself, charging clk what
// ReadAt charges or, when streamed, the stream gap, and then one link
// booking.
func (c *Cache) readLine(clk *simclock.Clock, r *simmem.Region, a int64, ln *line, streamed bool, gap int64) error {
	ln.data = [LineSize]byte{} // a dropped device read leaves zeros
	if !streamed {
		if err := r.ReadAt(clk, a, ln.data[:]); err != nil {
			return err
		}
		gap = 0
	} else if err := r.ReadRaw(a, ln.data[:]); err != nil {
		return err
	}
	c.book(clk, 1, gap)
	return nil
}

// book charges n fetched lines' transport: for each in turn, the gap
// advance and then one line on the link.
func (c *Cache) book(clk *simclock.Clock, n int, gap int64) {
	switch {
	case n == 0:
	case c.link != nil:
		c.link.UseRun(clk, LineSize, n, gap)
	default:
		clk.Advance(int64(n) * gap)
	}
}

// get returns the line at addr of dev, filling it on a miss.
func (c *Cache) get(clk *simclock.Clock, dev *simmem.Device, addr int64) (*line, error) {
	if i := c.lookup(dev, addr); i != nilIdx {
		ln := c.lines.at(i)
		c.touch(ln)
		c.stats.Hits++
		clk.Advance(c.hitLatency)
		return ln, nil
	}
	if _, err := c.fill(clk, dev, addr, 1, false); err != nil {
		return nil, err
	}
	return c.lines.at(c.filled[0]), nil
}

// lineRange iterates the line-aligned addresses covering [addr, addr+n).
func lineRange(addr int64, n int) (first, last int64) {
	return addr &^ (LineSize - 1), (addr + int64(n) - 1) &^ (LineSize - 1)
}

// spanMask is the residency-mask bits of the block at base that fall in
// the line-aligned span [first, last].
func spanMask(base, first, last int64) uint64 {
	lo, hi := int64(0), int64(blockLines-1)
	if first > base {
		lo = (first - base) / LineSize
	}
	if last < base+blockSize-LineSize {
		hi = (last - base) / LineSize
	}
	return (^uint64(0) >> (blockLines - 1 - hi)) & (^uint64(0) << lo)
}

// Hold takes the cache's lock — after its coherency domain's, when it has
// one — for a run of *Held accesses. Until Unhold, every other access to the cache (and, in a
// domain, to its peers) waits, so the holder must call nothing but *Held
// methods of this cache in between.
func (c *Cache) Hold() {
	if d := c.domain; d != nil {
		d.mu.Lock()
	}
	c.mu.Lock()
}

// Unhold releases what Hold took.
func (c *Cache) Unhold() {
	c.mu.Unlock()
	if d := c.domain; d != nil {
		d.mu.Unlock()
	}
}

// checkSpan refuses a span [off, off+n) that leaves region.
func checkSpan(region *simmem.Region, off int64, n int, op string) error {
	if off < 0 || off+int64(n) > region.Size() {
		return fmt.Errorf("simcpu: cached %s [%d,%d) out of region bounds [0,%d)", op, off, off+int64(n), region.Size())
	}
	return nil
}

// ReadHeld reads len(buf) bytes at off within region through the cache, for
// a caller inside Hold.
func (c *Cache) ReadHeld(clk *simclock.Clock, region *simmem.Region, off int64, buf []byte) error {
	return c.span(clk, region, off, buf, "read")
}

// WriteHeld writes data at off within region through the cache (write-back,
// write-allocate), for a caller inside Hold. The device is NOT updated until
// eviction or Flush.
func (c *Cache) WriteHeld(clk *simclock.Clock, region *simmem.Region, off int64, data []byte) error {
	return c.span(clk, region, off, data, "write")
}

// span runs op, a "read" of buf out of the lines covering it or a "write"
// of buf into them, which dirties the lines and then invalidates their
// peer copies. It walks the span one 4 KiB block at a time: one block probe
// gives the residency of the block's lines, resident lines are served as
// hits, and each run of absent lines is filled by one fill call.
func (c *Cache) span(clk *simclock.Clock, region *simmem.Region, off int64, buf []byte, op string) error {
	if len(buf) == 0 {
		return nil
	}
	if err := checkSpan(region, off, len(buf), op); err != nil {
		return err
	}
	dev, store := region.Device(), op == "write"
	addr := region.Base() + off
	first, last := lineRange(addr, len(buf))
	streamed := false
	for la := first; la <= last; {
		base := la &^ (blockSize - 1)
		var b *block
		var mask uint64
		if bi, ok := c.block(blockKey{dev, base}); ok {
			b = c.blocks.at(bi)
			mask = b.mask
		}
		end := min(last, base+blockSize-LineSize)
		for ; la <= end && mask&(1<<((la-base)/LineSize)) != 0; la += LineSize {
			// get's hit, written out: a helper holding touch's renumber
			// call is over the compiler's inlining budget.
			s := (la - base) / LineSize
			ln := c.lines.at(b.slots[s])
			c.touch(ln)
			c.stats.Hits++
			clk.Advance(c.hitLatency)
			copyLine(ln, la, addr, buf, store)
			if store {
				b.dirty |= 1 << s
			}
			streamed = false
		}
		if la > end {
			continue
		}
		// The run of absent lines from la ends at the next resident line,
		// the block end, the span end or the capacity. In a coherency
		// domain each fill asks the peers first, so a run is one line.
		n := min(bits.TrailingZeros64(mask>>((la-base)/LineSize)), int((end-la)/LineSize)+1, c.capacity)
		if c.domain != nil {
			n = 1
		}
		k, err := c.fill(clk, dev, la, n, streamed)
		for j := range k {
			ln := c.lines.at(c.filled[j])
			copyLine(ln, la+int64(j)*LineSize, addr, buf, store)
			if store {
				c.markDirty(ln)
			}
		}
		if err != nil {
			return err
		}
		streamed = true
		la += int64(n) * LineSize // the block's residency is probed again: the fills may have evicted its lines
	}
	// CXL 3.0 mode back-invalidates peer copies once the whole store landed.
	for la := first; store && c.domain != nil && la <= last; la += LineSize {
		if err := c.domain.invalidatePeers(clk, c, dev, la); err != nil {
			return err
		}
	}
	return nil
}

// copyLine moves the part of the span buf at addr that falls in the line ln
// at la: out of the line, or, for a store, into it. A whole line moves by
// array assignment: inline moves, not a memmove call.
func copyLine(ln *line, la, addr int64, buf []byte, store bool) {
	d, l := buf[max(addr, la)-addr:], ln.data[max(addr-la, 0):]
	switch {
	case len(l) < LineSize || len(d) < LineSize: // part of the line
		if store {
			copy(l, d)
		} else {
			copy(d, l)
		}
	case store:
		ln.data = [LineSize]byte(d)
	default:
		*(*[LineSize]byte)(d) = ln.data
	}
}

// wordLine returns the line-aligned address of the line holding all of the
// n-byte word at addr, or false when the word straddles two lines.
func wordLine(addr int64, n int) (int64, bool) {
	la := addr &^ (LineSize - 1)
	return la, addr+int64(n) <= la+LineSize
}

// LoadHeld reads the n-byte little-endian word (n <= 8) at off within
// region, for a caller inside Hold. It costs exactly what ReadHeld of the
// same span costs; a word inside one line is read straight from the line.
func (c *Cache) LoadHeld(clk *simclock.Clock, region *simmem.Region, off int64, n int) (uint64, error) {
	if n < 0 || n > 8 {
		return 0, fmt.Errorf("simcpu: load of a %d-byte word", n)
	}
	if n == 0 {
		return 0, nil
	}
	addr := region.Base() + off
	la, inLine := wordLine(addr, n)
	if !inLine {
		var w [8]byte
		err := c.ReadHeld(clk, region, off, w[:n])
		return binary.LittleEndian.Uint64(w[:]), err
	}
	if err := checkSpan(region, off, n, "read"); err != nil {
		return 0, err
	}
	ln, err := c.get(clk, region.Device(), la)
	if err != nil {
		return 0, err
	}
	d := ln.data[addr-la:]
	switch n {
	case 8:
		return binary.LittleEndian.Uint64(d), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(d)), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(d)), nil
	}
	var v uint64
	for j := n - 1; j >= 0; j-- {
		v = v<<8 | uint64(d[j])
	}
	return v, nil
}

// StoreHeld writes the low n bytes (n <= 8) of v, little-endian, at off
// within region, for a caller inside Hold. It costs exactly what WriteHeld
// of the same span costs; a word inside one line is stored straight into
// the line.
func (c *Cache) StoreHeld(clk *simclock.Clock, region *simmem.Region, off int64, n int, v uint64) error {
	if n < 0 || n > 8 {
		return fmt.Errorf("simcpu: store of a %d-byte word", n)
	}
	if n == 0 {
		return nil
	}
	addr := region.Base() + off
	la, inLine := wordLine(addr, n)
	if !inLine {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], v)
		return c.WriteHeld(clk, region, off, w[:n])
	}
	if err := checkSpan(region, off, n, "write"); err != nil {
		return err
	}
	dev := region.Device()
	ln, err := c.get(clk, dev, la)
	if err != nil {
		return err
	}
	d := ln.data[addr-la:]
	switch n {
	case 8:
		binary.LittleEndian.PutUint64(d, v)
	case 4:
		binary.LittleEndian.PutUint32(d, uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(d, uint16(v))
	default:
		for j := range n {
			d[j] = byte(v >> (8 * j))
		}
	}
	c.markDirty(ln)
	if c.domain != nil {
		return c.domain.invalidatePeers(clk, c, dev, la)
	}
	return nil
}

// Flush models clflush over [off, off+n) within region: dirty lines are
// written back to the device, then all lines in the range are invalidated.
// Subsequent reads fetch fresh data from the device. This is the primitive
// the paper's protocol issues on write-lock release (publish) and on
// observing a set invalid flag (discard possibly-stale lines).
//
// It walks the range's block masks in address order (reversed when the
// injector's fault.Orderer asks), visiting the dirty lines (with an injector,
// every line, at its OpFlushLine point); the rest leave by mask, unloaded.
// Each line's hit latency (clflush issue cost) is owed until a write-back or return.
func (c *Cache) Flush(clk *simclock.Clock, region *simmem.Region, off int64, n int) error {
	if n <= 0 {
		return nil
	}
	if off < 0 || off+int64(n) > region.Size() {
		return fmt.Errorf("simcpu: flush [%d,%d) out of region bounds [0,%d)", off, off+int64(n), region.Size())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	first, last := lineRange(region.Base()+off, n)
	rev, every := false, uint64(0) // every: the lines visited whether dirty or not
	if c.inj != nil {
		if err := c.inj.Point(fault.OpFlushRange, int64(n)); err != nil {
			if fault.IsDrop(err) {
				return nil // the whole clflush range is silently lost
			}
			return err
		}
		every = ^every
		if ord, ok := c.inj.(fault.Orderer); ok {
			rev = ord.ReverseFlush()
		}
	}
	base, end, step := first&^(blockSize-1), last&^(blockSize-1)+blockSize, int64(blockSize)
	if rev {
		base, end, step = end-blockSize, base-blockSize, -blockSize
	}
	dev, was, paid := region.Device(), c.resident, c.resident // paid: resident lines when the owed latency was last paid
	defer func() {
		clk.Advance(int64(paid-c.resident) * c.hitLatency)
		c.stats.Flushed += int64(was - c.resident)
	}()
	for ; base != end; base += step {
		bi, ok := c.block(blockKey{dev, base})
		if !ok {
			continue
		}
		b := c.blocks.at(bi)
		rest := b.mask & spanMask(base, first, last) // lines left to flush
		visit := rest & (b.dirty | every)            // lines left to visit
		for visit != 0 {
			// The lines ahead of the next one to visit, in flush order, are
			// clean (a visited line is, once written back): they leave now.
			s := bits.TrailingZeros64(visit)
			ahead := rest & (1<<s - 1)
			if rev {
				s = blockLines - 1 - bits.LeadingZeros64(visit)
				ahead = rest &^ (2<<s - 1)
			}
			c.drop(bi, ahead)
			rest, visit = rest&^ahead, visit&^(1<<s)
			if c.inj != nil {
				if err := c.inj.Point(fault.OpFlushLine, LineSize); err != nil {
					if fault.IsDrop(err) {
						rest &^= 1 << s // lost clflush: the line stays cached and dirty
						continue
					}
					return err
				}
			}
			if b.dirty&(1<<s) != 0 {
				clk.Advance(int64(paid-c.resident) * c.hitLatency)
				paid = c.resident
				if err := c.writeBack(clk, b.slots[s]); err != nil {
					return err
				}
			}
		}
		c.drop(bi, rest)
	}
	return nil
}

// Drop discards every cached line without write-back: the power-loss path.
// Dirty data that was never flushed is lost, exactly as on a host crash.
func (c *Cache) Drop() {
	c.mu.Lock()
	clear(c.index)
	c.memo = [memoSize]memoEntry{}
	c.blocks.reset()
	c.lines.reset()
	c.resident, c.order, c.next = 0, c.order[:0], 0
	c.fresh, c.built = c.fresh[:0], c.tick
	c.mu.Unlock()
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
	c.mu.Lock()
	defer c.mu.Unlock()
	first, last := lineRange(region.Base()+off, n)
	for base := first &^ (blockSize - 1); base <= last; base += blockSize {
		if bi, ok := c.block(blockKey{region.Device(), base}); ok {
			b, m := c.blocks.at(bi), spanMask(base, first, last)
			resident += bits.OnesCount64(b.mask & m)
			dirty += bits.OnesCount64(b.dirty & m)
		}
	}
	return resident, dirty
}
