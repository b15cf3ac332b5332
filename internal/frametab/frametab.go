// Package frametab is the shared frame-table substrate under every buffer
// pool in the repo. The paper's point (§2–3) is that one buffer-pool
// abstraction carries the DRAM, RDMA-tiered, and CXL-direct designs through
// the identical engine; frametab is that abstraction's mechanical core:
//
//   - a sharded page-id -> frame index with per-shard (striped) locks, so
//     parallel Get traffic scales with goroutines instead of serializing on
//     one pool mutex (DefaultShards stripes);
//   - shared pin / latch / LRU-clock machinery (second-chance clock ring,
//     pin-aware victim selection);
//   - sync/atomic stats Counters with a torn-read-free Snapshot;
//   - one generic Get / Create / GetOrCreate flow parameterized by a small
//     FrameStore backing interface.
//
// One pool core sits on top: buffer.TablePool owns a Table and gives every
// pool its Get / NewPage / GetOrCreate, statistics and flush barrier
// (buffer.WritebackPool adds the checkpoint walk and FlushBatch). What
// differs between the pools is only the medium, and that is all a pool
// supplies — one FrameStore and its frame type: a DRAM slab
// (buffer.DRAMPool), an RDMA remote tier (buffer.TieredPool), a CXL block with durable metadata
// (core.CXLPool), or shared DBP metadata slots (sharing.SharedPool /
// sharing.RDMASharedPool). Optional capability interfaces (Toucher,
// WriteLatchNotifier, Revalidator, Latcher, EvictStore, WritebackStore) are
// discovered by type assertion at construction and let a store keep
// medium-specific protocol steps — CXL's durable lock word, the fusion
// server's distributed page lock — in exactly the order the crash-recovery
// protocols require.
//
// # Determinism
//
// The PR-1 fault-injection sweeps replay a workload and crash it at the
// N-th instrumented operation; that only works if run K and run K+1 emit
// the identical operation sequence. frametab therefore never lets Go's
// randomized map iteration order leak into an instrumented path: the dirty
// index hands out its frames sorted by page id, so FlushBatch (the flusher)
// and FlushAll (checkpointing) issue their device operations in one
// canonical order. Single-threaded instrumented runs (the sweep harness is
// single-threaded by construction) also see the exact per-Get operation
// order of the pre-frametab pools: pin, touch hook, latch, write-latch hook.
//
// # Dirty index
//
// The table keeps an index of its dirty frames, updated on every clean to
// dirty transition and back (MarkDirty, ClearDirty, a dirty Seed or load)
// and on every path that takes a frame out of the table. The flush paths
// read it instead of walking the shards, and an empty index is the proof
// that the table is clean.
//
// Eviction uses a second-chance clock over the insertion ring rather than a
// strict LRU list: frames are appended at load time, hits set a referenced
// bit, and the hand sweeps past pinned or recently-referenced frames. The
// hand state lives under one small mutex (evictMu) that is never held
// across store I/O.
package frametab

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
)

// DefaultShards is the index shard count, a power of two so the page-id
// hash reduces with a mask. More shards = less Get-path contention; the
// only cost is a few map headers.
const DefaultShards = 64

// Mode is a latch mode. buffer.Mode aliases this type.
type Mode int

// Latch modes.
const (
	Read Mode = iota
	Write
)

// Stats is a plain snapshot of pool counters. buffer.Stats aliases this
// type.
type Stats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Retires       int64 // revalidation-miss slot recycles (not capacity evictions)
	EvictFailures int64 // EvictStore errors during eviction or retirement
	StorageReads  int64
	StorageWrites int64
	RemoteReads   int64 // RDMA page fetches (tiered pool)
	RemoteWrites  int64 // RDMA page pushes (tiered pool)
}

// Counters is the live, atomically-updated form of Stats. Stores bump the
// fields directly; Snapshot reads them without tearing a struct copy under
// a different lock than the writers held.
type Counters struct {
	Hits          atomic.Int64
	Misses        atomic.Int64
	Evictions     atomic.Int64
	Retires       atomic.Int64
	EvictFailures atomic.Int64
	StorageReads  atomic.Int64
	StorageWrites atomic.Int64
	RemoteReads   atomic.Int64
	RemoteWrites  atomic.Int64
}

// Snapshot reads every counter once.
func (c *Counters) Snapshot() Stats {
	return Stats{
		Hits:          c.Hits.Load(),
		Misses:        c.Misses.Load(),
		Evictions:     c.Evictions.Load(),
		Retires:       c.Retires.Load(),
		EvictFailures: c.EvictFailures.Load(),
		StorageReads:  c.StorageReads.Load(),
		StorageWrites: c.StorageWrites.Load(),
		RemoteReads:   c.RemoteReads.Load(),
		RemoteWrites:  c.RemoteWrites.Load(),
	}
}

// FrameStore is the backing medium behind a Table. Fetch and Create run
// outside every table lock (the frame is already published as loading, so
// concurrent getters wait on it rather than double-loading); they return
// the medium-specific slot value the pool's frame wrapper will operate on
// (a []byte image, a CXL block index, a metadata entry).
type FrameStore interface {
	// Fetch materializes page id from the backing medium. dirty reports
	// whether the returned content is already newer than the durable
	// storage image (e.g. a dirty page re-fetched from the remote tier).
	Fetch(clk *simclock.Clock, id uint64) (slot any, dirty bool, err error)
	// Create materializes a fresh zeroed page (always born dirty).
	Create(clk *simclock.Clock, id uint64) (slot any, err error)
}

// EvictStore lets the table's capacity policy push a victim back into the
// medium. Required when Config.Capacity > 0 (table-policy eviction);
// stores that run their own eviction inside Fetch/Create (the CXL pool)
// may omit it. Also used to release a slot whose frame a Revalidator
// retired.
type EvictStore interface {
	Evict(clk *simclock.Clock, id uint64, slot any, dirty bool) error
}

// Toucher is called on every table hit, before the latch; the CXL store
// uses it for its touch-window LRU splice. An error aborts the Get (the
// pin is dropped).
type Toucher interface {
	Touched(clk *simclock.Clock, id uint64, slot any) error
}

// WriteLatchNotifier is called after the local write latch is acquired and
// before the frame is handed out; the CXL store persists its durable lock
// word here. An error aborts the Get but deliberately leaves the latch and
// pin in place — the CXL error model is a host crash, and the crashed
// host's DRAM state is abandoned, not unwound.
type WriteLatchNotifier interface {
	WriteLatched(clk *simclock.Clock, id uint64, slot any) error
}

// Revalidator is consulted on every hit before the frame is reused. A
// false result retires the frame (the table discards it, hands the slot to
// EvictStore if present, and retries the Get as a miss) — the shared pool
// uses this for the fusion server's removal flags.
type Revalidator interface {
	Revalidate(clk *simclock.Clock, id uint64, slot any) (bool, error)
}

// Latcher replaces the frame-local RWMutex latch entirely: the shared pool
// substitutes the fusion server's distributed page lock. fresh marks a
// just-created page (skip staleness handling — nobody else has seen it).
// The pool's frame wrapper owns the matching unlock in Release.
type Latcher interface {
	Latch(clk *simclock.Clock, id uint64, slot any, write, fresh bool) error
}

// WritebackStore lets a background flusher persist one dirty resident page
// without evicting it. Writeback runs with the frame read-latched (readers
// may proceed, writers are excluded); FlushBatch also pins it. The
// checkpoint walk (buffer.WritebackPool.FlushAll) writes pages through it
// too, so crash-point fault plans hit the identical op points whether a page
// is written back by the flusher daemon or by a checkpoint. On success the
// caller clears the frame's dirty bit.
type WritebackStore interface {
	Writeback(clk *simclock.Clock, id uint64, slot any) error
}

// ErrNoWriteback is returned by FlushBatch when the backing store does not
// implement WritebackStore, or the table runs a Latcher (a distributed page
// lock cannot be taken under a shard mutex pin, so background writeback is
// not supported for shared pools).
var ErrNoWriteback = errors.New("frametab: store does not support background writeback")

// Config configures a Table.
type Config struct {
	// Capacity bounds resident frames; the table evicts through
	// EvictStore to stay under it. Zero disables table-policy eviction
	// (the store evicts internally, as the CXL pool does).
	Capacity int
	// Store is the backing medium.
	Store FrameStore
	// NotFound is the sentinel GetOrCreate treats as "no durable image:
	// create instead" (pools pass storage.ErrNotFound; frametab does not
	// import storage to stay below every pool in the layering).
	NotFound error
	// Name is the table's metric prefix (frametab.<Name>.*) and the actor
	// of its frame.* trace events.
	Name string
	// Registry (nil for none) receives the table's counters (hits, misses,
	// evictions, retires, evict_failures) and its frame.* trace events (pin,
	// unpin, load, evict, retire, evict.error) from the first access on.
	Registry *obs.Registry
}

// Frame is one resident page slot. Pools wrap it in their own
// buffer.Frame implementation; the wrapper owns latch release and unpin.
type Frame struct {
	id   uint64
	slot any

	latch sync.RWMutex
	dirty atomic.Bool
	ref   atomic.Bool // second-chance bit for the eviction clock

	ready  atomic.Bool   // slot/dirty published (load completed)
	loaded chan struct{} // closed when the load settles; nil for seeded frames

	// pins counts live users. Increments happen only under the owning
	// shard's mutex (so TakeIfIdle's idle-check-and-remove stays atomic);
	// decrements are lock-free, halving mutex traffic on the Get/Release
	// hot path. A remover that loads a just-decremented stale value merely
	// skips a now-idle frame — conservative, never unsafe.
	pins    atomic.Int64
	ringIdx int // guarded by table.evictMu; -1 when off the ring

	// use counts the buffer package's live handles on this frame (low 32
	// bits) and their running page visits (high 32): a handle is a plain
	// value, so its misuse is caught here (see Unhand, EnterVisit).
	use atomic.Uint64

	tab  *Table // the table whose dirty index tracks this frame; nil for NewFrame
	gone bool   // taken out of tab for good; guarded by tab.dirtyMu
}

// ID reports the page id.
func (f *Frame) ID() uint64 { return f.id }

// Slot returns the store-specific slot value (immutable once loaded).
func (f *Frame) Slot() any { return f.slot }

// Dirty reports divergence from the durable storage image.
func (f *Frame) Dirty() bool { return f.dirty.Load() }

// MarkDirty records divergence from the durable storage image. Only the
// clean-to-dirty transition takes the table's index lock.
func (f *Frame) MarkDirty() {
	if f.dirty.Load() {
		return
	}
	if f.tab == nil {
		f.dirty.Store(true)
		return
	}
	f.tab.setDirty(f)
}

// ClearDirty records that the durable image caught up (checkpoint flush).
func (f *Frame) ClearDirty() {
	if !f.dirty.Load() {
		return
	}
	t := f.tab
	if t == nil {
		f.dirty.Store(false)
		return
	}
	t.dirtyMu.Lock()
	if f.dirty.Swap(false) && t.dirty[f.id] == f {
		delete(t.dirty, f.id)
	}
	t.dirtyMu.Unlock()
}

// Handle misuse, reported by Unhand and EnterVisit.
var (
	ErrReleased = errors.New("frametab: frame has no live handle (released)")
	ErrInVisit  = errors.New("frametab: release inside a page visit")
)

// visitUnit is one running visit in Frame.use.
const visitUnit = 1 << 32

// Handed records one more live handle on f.
func (f *Frame) Handed() { f.use.Add(1) }

// Unhand drops one live handle. It drops nothing and fails with
// ErrReleased when no handle is live, and with ErrInVisit when every live
// handle is inside a visit, so the one being dropped must be too.
func (f *Frame) Unhand() error {
	for {
		u := f.use.Load()
		if h := u & (visitUnit - 1); h == 0 {
			return ErrReleased
		} else if u/visitUnit >= h {
			return ErrInVisit
		}
		if f.use.CompareAndSwap(u, u-1) {
			return nil
		}
	}
}

// EnterVisit records a page visit starting; it fails with ErrReleased when
// no handle is live.
func (f *Frame) EnterVisit() error {
	if f.use.Add(visitUnit)&(visitUnit-1) == 0 {
		f.ExitVisit()
		return ErrReleased
	}
	return nil
}

// ExitVisit records the end of a visit EnterVisit started.
func (f *Frame) ExitVisit() { f.use.Add(^uint64(visitUnit - 1)) }

// NewFrame returns a loaded frame for page id that belongs to no table, for
// a pool that keeps its own index and hands out buffer frame handles on it.
// Only the handle bookkeeping, ID and Slot apply to it.
func NewFrame(id uint64, slot any) *Frame {
	f := &Frame{id: id, slot: slot, ringIdx: -1}
	f.ready.Store(true)
	return f
}

// Lock acquires the frame-local latch in mode.
func (f *Frame) Lock(mode Mode) {
	if mode == Write {
		f.latch.Lock()
	} else {
		f.latch.RLock()
	}
}

// Unlock releases the frame-local latch taken in mode.
func (f *Frame) Unlock(mode Mode) {
	if mode == Write {
		f.latch.Unlock()
	} else {
		f.latch.RUnlock()
	}
}

// TryLock attempts the frame-local latch in mode without blocking. Tier
// migration uses it: a promotion daemon that finds the page write-latched
// must skip the page, not park behind the writer — parking would stall the
// commit path that drives the daemon's own tick.
func (f *Frame) TryLock(mode Mode) bool {
	if mode == Write {
		return f.latch.TryLock()
	}
	return f.latch.TryRLock()
}

// waitReady blocks until the frame's load settles; false means the load
// failed and the frame was withdrawn.
func (f *Frame) waitReady() bool {
	if f.ready.Load() {
		return true
	}
	if f.loaded != nil {
		<-f.loaded
	}
	return f.ready.Load()
}

type shard struct {
	mu     sync.Mutex
	frames map[uint64]*Frame

	// Hot-path hit/miss tallies live per shard, under the shard mutex the
	// Get path already holds: a single table-wide atomic counter is one
	// cache line every goroutine contends on, which is exactly the
	// serialization sharding exists to remove. Stats sums the shards.
	hits   int64
	misses int64

	_ [88]byte // pad to a cache-line multiple: no false sharing between shards
}

// Table is the sharded frame table.
type Table struct {
	// Counters are the live pool statistics; stores bump the I/O-side
	// fields (StorageReads, RemoteWrites, ...) directly.
	Counters Counters

	store     FrameStore
	evictor   EvictStore
	toucher   Toucher
	wlatched  WriteLatchNotifier
	reval     Revalidator
	latcher   Latcher
	writeback WritebackStore
	notFound  error
	capacity  int

	shards [DefaultShards]shard

	resident atomic.Int64

	// dirty indexes the table's dirty frames by page id. A frame's dirty
	// bit flips under dirtyMu whenever its entry moves, and a frame taken
	// out of the table leaves the index for good (Frame.gone), so the index
	// holds exactly the table's dirty frames. scratch is FlushBatch's sort
	// buffer, handed out under dirtyMu.
	dirtyMu sync.Mutex
	dirty   map[uint64]*Frame
	scratch []*Frame

	evictMu sync.Mutex
	ring    []*Frame
	hand    int

	samplerP atomic.Pointer[func(*simclock.Clock, uint64)] // optional heat sampler; see SetTouchSampler

	// Registry handles, fixed at construction; nil (a no-op) without one.
	// The counters mirror the table's own; the frame.* trace events feed
	// the pin/slot-leak checker.
	reg                     *obs.Registry
	name                    string
	hits, misses, evictions *obs.Counter
	retires, evictFailures  *obs.Counter
}

// emit publishes one frame event with this table as the actor.
func (t *Table) emit(vnanos int64, typ string, page uint64, aux int64) {
	if t.reg != nil {
		t.reg.Emit(vnanos, typ, t.name, page, aux)
	}
}

// New builds a table over cfg.Store.
func New(cfg Config) *Table {
	if cfg.Store == nil {
		panic("frametab: Config.Store is required")
	}
	p := "frametab." + cfg.Name + "."
	t := &Table{
		store:         cfg.Store,
		notFound:      cfg.NotFound,
		capacity:      cfg.Capacity,
		dirty:         make(map[uint64]*Frame),
		reg:           cfg.Registry,
		name:          cfg.Name,
		hits:          cfg.Registry.Counter(p + "hits"),
		misses:        cfg.Registry.Counter(p + "misses"),
		evictions:     cfg.Registry.Counter(p + "evictions"),
		retires:       cfg.Registry.Counter(p + "retires"),
		evictFailures: cfg.Registry.Counter(p + "evict_failures"),
	}
	for i := range t.shards {
		t.shards[i].frames = make(map[uint64]*Frame)
	}
	t.evictor, _ = cfg.Store.(EvictStore)
	t.toucher, _ = cfg.Store.(Toucher)
	t.wlatched, _ = cfg.Store.(WriteLatchNotifier)
	t.reval, _ = cfg.Store.(Revalidator)
	t.latcher, _ = cfg.Store.(Latcher)
	t.writeback, _ = cfg.Store.(WritebackStore)
	if t.capacity > 0 && t.evictor == nil {
		panic("frametab: Capacity > 0 requires the store to implement EvictStore")
	}
	return t
}

// shardOf hashes a page id to its shard (Fibonacci multiplicative hash so
// sequential ids spread over the shards).
func (t *Table) shardOf(id uint64) *shard {
	return &t.shards[(id*0x9E3779B97F4A7C15)>>32&(DefaultShards-1)]
}

// Stats snapshots the counters: the atomic cold-path Counters plus the
// per-shard hit/miss tallies.
func (t *Table) Stats() Stats {
	s := t.Counters.Snapshot()
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		s.Hits += sh.hits
		s.Misses += sh.misses
		sh.mu.Unlock()
	}
	return s
}

// SetTouchSampler installs a function called once per successful page access
// (every hit and every miss-load, after the frame is pinned and before the
// latch). The tier package feeds its decaying heat map from here. The sampler
// must be cheap and must not call back into the table. A nil sampler detaches.
//
// The sampler runs outside every table lock and charges no simulated device
// operations, so installing one does not perturb fault-plan op sequences.
func (t *Table) SetTouchSampler(s func(clk *simclock.Clock, id uint64)) {
	if s == nil {
		t.samplerP.Store(nil)
		return
	}
	t.samplerP.Store(&s)
}

// sample invokes the touch sampler, if any.
func (t *Table) sample(clk *simclock.Clock, id uint64) {
	if s := t.samplerP.Load(); s != nil {
		(*s)(clk, id)
	}
}

// Resident reports how many frames the table currently holds.
func (t *Table) Resident() int { return int(t.resident.Load()) }

// PinnedFrames counts frames with a non-zero pin count (leak checking).
func (t *Table) PinnedFrames() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.pins.Load() > 0 {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Pinned reports whether page id is resident with a non-zero pin count.
func (t *Table) Pinned(id uint64) bool {
	sh := t.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.frames[id]
	return ok && f.pins.Load() > 0
}

// Lookup returns page id's frame without pinning it (diagnostics and
// store-driven eviction; the caller must hold whatever store-level lock
// keeps the frame alive).
func (t *Table) Lookup(id uint64) *Frame {
	sh := t.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.frames[id]
}

// TryPin pins page id when it is resident and its load has settled, without
// blocking and without triggering a miss-load. Tier migration uses it: the
// promotion daemon must hold a page against eviction while it copies the
// image into the fast tier, but a page that is absent, mid-load, or already
// gone is simply skipped (false). The caller releases the pin with Unpin.
func (t *Table) TryPin(id uint64) (*Frame, bool) {
	sh := t.shardOf(id)
	sh.mu.Lock()
	f, ok := sh.frames[id]
	if !ok || !f.ready.Load() {
		sh.mu.Unlock()
		return nil, false
	}
	f.pins.Add(1)
	sh.mu.Unlock()
	t.emit(0, obs.EvFramePin, id, 0)
	return f, true
}

// Unpin drops one pin (lock-free; see the pins field comment).
func (t *Table) Unpin(f *Frame) {
	f.pins.Add(-1)
	t.emit(0, obs.EvFrameUnpin, f.id, 0)
}

// pin takes a pin on f if it is still the registered frame for its page
// (background writeback must not pin a frame that eviction or retirement
// already detached — the store may have recycled its slot). Pins increment
// only under the shard mutex; see the pins field comment.
func (t *Table) pin(f *Frame) bool {
	sh := t.shardOf(f.id)
	sh.mu.Lock()
	if sh.frames[f.id] != f {
		sh.mu.Unlock()
		return false
	}
	f.pins.Add(1)
	sh.mu.Unlock()
	t.emit(0, obs.EvFramePin, f.id, 0)
	return true
}

// newFrame returns a frame for page id, off the eviction ring.
func (t *Table) newFrame(id uint64) *Frame {
	return &Frame{id: id, ringIdx: -1, tab: t}
}

// setDirty marks f dirty and indexes it, unless f has left the table.
func (t *Table) setDirty(f *Frame) {
	t.dirtyMu.Lock()
	if !f.dirty.Swap(true) && !f.gone {
		t.dirty[f.id] = f
	}
	t.dirtyMu.Unlock()
}

// unindex records that f has left the table: it drops out of the dirty
// index and a later MarkDirty on it will not bring it back.
func (t *Table) unindex(f *Frame) {
	t.dirtyMu.Lock()
	f.gone = true
	if t.dirty[f.id] == f {
		delete(t.dirty, f.id)
	}
	t.dirtyMu.Unlock()
}

// appendDirty appends the indexed frames whose load has settled to buf,
// sorted by page id.
func (t *Table) appendDirty(buf []*Frame) []*Frame {
	t.dirtyMu.Lock()
	for _, f := range t.dirty {
		if f.ready.Load() {
			buf = append(buf, f)
		}
	}
	t.dirtyMu.Unlock()
	slices.SortFunc(buf, func(a, b *Frame) int { return cmp.Compare(a.id, b.id) })
	return buf
}

// DirtyFrames returns the resident dirty frames sorted by page id: bulk
// paths must issue device operations in this canonical order or
// fault-plan replay breaks (see the package comment).
func (t *Table) DirtyFrames() []*Frame { return t.appendDirty(nil) }

// DirtyResident counts resident frames whose image diverges from durable
// storage — the flusher daemon's backlog signal — from the dirty index.
func (t *Table) DirtyResident() int {
	t.dirtyMu.Lock()
	defer t.dirtyMu.Unlock()
	return len(t.dirty)
}

// FlushBatch writes back up to max dirty resident pages through the
// WritebackStore in canonical (ascending page id) order, clearing each
// frame's dirty bit on success, and reports how many pages were flushed.
// Each page is pinned and read-latched for the duration of its write, so
// concurrent readers proceed while writers wait — the background flusher's
// whole point is that eviction and commit no longer stall on these writes.
// A Writeback error stops the batch and is returned (under fault injection
// that error is a simulated host crash; the sweep harness abandons the pool
// wholesale). The batch is read from the dirty index, not a shard walk.
func (t *Table) FlushBatch(clk *simclock.Clock, max int) (int, error) {
	if t.writeback == nil || t.latcher != nil {
		return 0, ErrNoWriteback
	}
	t.dirtyMu.Lock()
	if len(t.dirty) == 0 {
		t.dirtyMu.Unlock()
		return 0, nil
	}
	buf := t.scratch
	t.scratch = nil
	t.dirtyMu.Unlock()
	dirty := t.appendDirty(buf[:0])
	n, err := t.flushSorted(clk, dirty, max)
	clear(dirty)
	t.dirtyMu.Lock()
	t.scratch = dirty[:0]
	t.dirtyMu.Unlock()
	return n, err
}

// flushSorted writes back up to max of the frames in dirty, in order.
func (t *Table) flushSorted(clk *simclock.Clock, dirty []*Frame, max int) (int, error) {
	flushed := 0
	for _, f := range dirty {
		if flushed >= max {
			break
		}
		if !t.pin(f) {
			continue // evicted or retired between the index read and pin
		}
		f.Lock(Read)
		if !f.dirty.Load() { // raced with FlushAll or another batch
			f.Unlock(Read)
			t.Unpin(f)
			continue
		}
		err := t.writeback.Writeback(clk, f.id, f.slot)
		if err == nil {
			f.ClearDirty()
			flushed++
		}
		f.Unlock(Read)
		t.Unpin(f)
		if err != nil {
			return flushed, err
		}
	}
	return flushed, nil
}

// unhit unpins a frame whose load failed under a waiting getter and
// reverses the hit tally — the retried Get will count as a miss.
func (t *Table) unhit(f *Frame) {
	f.pins.Add(-1)
	sh := t.shardOf(f.id)
	sh.mu.Lock()
	sh.hits--
	sh.mu.Unlock()
	t.hits.Add(-1)
	t.emit(0, obs.EvFrameUnpin, f.id, 0)
}

// Seed installs an already-materialized frame (pool reopen after a crash:
// core.Open rebuilds the table from surviving CXL metadata).
func (t *Table) Seed(id uint64, slot any, dirty bool) *Frame {
	f := t.newFrame(id)
	f.slot = slot
	if dirty {
		t.setDirty(f)
	}
	f.ready.Store(true)
	sh := t.shardOf(id)
	sh.mu.Lock()
	sh.frames[id] = f
	sh.mu.Unlock()
	t.resident.Add(1)
	t.ringAdd(f)
	return f
}

// TakeIfIdle atomically removes page id when it has no pins, returning its
// frame. Used by store-driven eviction (pin check and removal must be one
// step, or a concurrent Get could pin the frame mid-eviction) and by
// invalidation delivery.
func (t *Table) TakeIfIdle(id uint64) (*Frame, bool) {
	sh := t.shardOf(id)
	sh.mu.Lock()
	f, ok := sh.frames[id]
	if !ok || f.pins.Load() > 0 {
		sh.mu.Unlock()
		return nil, false
	}
	delete(sh.frames, id)
	sh.mu.Unlock()
	t.detach(f)
	return f, true
}

// Discard unconditionally removes page id (recovery paths that own the
// whole pool: DropPage).
func (t *Table) Discard(id uint64) (*Frame, bool) {
	sh := t.shardOf(id)
	sh.mu.Lock()
	f, ok := sh.frames[id]
	if !ok {
		sh.mu.Unlock()
		return nil, false
	}
	delete(sh.frames, id)
	sh.mu.Unlock()
	t.detach(f)
	return f, true
}

// detach accounts for a frame just removed from its shard.
func (t *Table) detach(f *Frame) {
	t.unindex(f)
	t.resident.Add(-1)
	if t.capacity > 0 {
		t.evictMu.Lock()
		t.ringRemoveLocked(f)
		t.evictMu.Unlock()
	}
}

// --- eviction clock ---------------------------------------------------------

func (t *Table) ringAdd(f *Frame) {
	if t.capacity <= 0 {
		return
	}
	t.evictMu.Lock()
	f.ringIdx = len(t.ring)
	t.ring = append(t.ring, f)
	t.evictMu.Unlock()
}

// ringRemoveLocked unlinks f (swap-remove). Caller holds evictMu.
func (t *Table) ringRemoveLocked(f *Frame) {
	i := f.ringIdx
	if i < 0 {
		return
	}
	last := len(t.ring) - 1
	t.ring[i] = t.ring[last]
	t.ring[i].ringIdx = i
	t.ring[last] = nil
	t.ring = t.ring[:last]
	f.ringIdx = -1
	if t.hand > i {
		t.hand--
	}
	if t.hand > len(t.ring) {
		t.hand = len(t.ring)
	}
}

// reserve evicts until a frame slot is available under Capacity.
func (t *Table) reserve(clk *simclock.Clock) error {
	if t.capacity <= 0 {
		return nil
	}
	for int(t.resident.Load()) >= t.capacity {
		if err := t.evictOne(clk); err != nil {
			return err
		}
	}
	return nil
}

// evictOne runs one sweep of the second-chance clock and evicts the first
// unpinned, unreferenced frame through the EvictStore. It evicts nothing
// when a concurrent removal has already brought the table under Capacity:
// every removal lowers resident before it leaves evictMu, so an empty ring
// here with the table still at Capacity means every resident frame is a
// load in flight.
func (t *Table) evictOne(clk *simclock.Clock) error {
	t.evictMu.Lock()
	if int(t.resident.Load()) < t.capacity {
		t.evictMu.Unlock()
		return nil
	}
	n := len(t.ring)
	if n == 0 {
		t.evictMu.Unlock()
		return errors.New("frametab: nothing resident to evict")
	}
	var victim *Frame
	// Two full revolutions: the first may only clear referenced bits, the
	// second then finds any unpinned frame.
	for scanned := 0; scanned < 2*n+1 && len(t.ring) > 0; scanned++ {
		if t.hand >= len(t.ring) {
			t.hand = 0
		}
		f := t.ring[t.hand]
		if f.ref.Swap(false) {
			t.hand++
			continue
		}
		sh := t.shardOf(f.id)
		sh.mu.Lock()
		if f.pins.Load() > 0 || sh.frames[f.id] != f {
			sh.mu.Unlock()
			t.hand++
			continue
		}
		delete(sh.frames, f.id)
		sh.mu.Unlock()
		t.ringRemoveLocked(f)
		t.resident.Add(-1)
		victim = f
		break
	}
	t.evictMu.Unlock()
	if victim == nil {
		return fmt.Errorf("frametab: all %d resident frames pinned, cannot evict", n)
	}
	t.unindex(victim)
	t.Counters.Evictions.Add(1)
	t.evictions.Inc()
	t.emit(clk.Now(), obs.EvFrameEvict, victim.id, 0)
	if err := t.evictor.Evict(clk, victim.id, victim.slot, victim.dirty.Load()); err != nil {
		t.Counters.EvictFailures.Add(1)
		t.evictFailures.Inc()
		t.emit(clk.Now(), obs.EvEvictError, victim.id, 0)
		return err
	}
	return nil
}

// --- generic get / create ---------------------------------------------------

// Get pins and latches page id in mode, loading it through the FrameStore
// on a miss. The returned frame is pinned and latched; the caller releases
// both (directly or via its pool's frame wrapper).
func (t *Table) Get(clk *simclock.Clock, id uint64, mode Mode) (*Frame, error) {
	for {
		sh := t.shardOf(id)
		sh.mu.Lock()
		if f, ok := sh.frames[id]; ok {
			f.pins.Add(1)
			sh.hits++
			sh.mu.Unlock()
			t.hits.Inc()
			t.emit(clk.Now(), obs.EvFramePin, id, 0)
			if !f.waitReady() {
				t.unhit(f) // load failed under us; retry as a miss
				continue
			}
			if !f.ref.Load() {
				f.ref.Store(true) // avoid hot-page cache-line ping-pong
			}
			if t.reval != nil {
				ok, err := t.reval.Revalidate(clk, id, f.slot)
				if err != nil {
					t.Unpin(f)
					return nil, err
				}
				if !ok {
					t.Unpin(f)
					if err := t.retire(clk, f); err != nil {
						return nil, err
					}
					continue // re-register as a miss
				}
			}
			if t.toucher != nil {
				if err := t.toucher.Touched(clk, id, f.slot); err != nil {
					t.Unpin(f)
					return nil, err
				}
			}
			t.sample(clk, id)
			return t.acquire(clk, f, mode, false)
		}
		sh.mu.Unlock()

		if err := t.reserve(clk); err != nil {
			return nil, err
		}
		sh.mu.Lock()
		if _, raced := sh.frames[id]; raced {
			sh.mu.Unlock()
			continue // someone else inserted; retry as a hit
		}
		f := t.newFrame(id)
		f.loaded = make(chan struct{})
		f.pins.Store(1)
		sh.frames[id] = f
		sh.misses++
		sh.mu.Unlock()
		t.resident.Add(1)
		t.misses.Inc()
		t.emit(clk.Now(), obs.EvFramePin, id, 0)

		slot, dirty, err := t.store.Fetch(clk, id)
		if err != nil {
			t.abortLoad(f)
			return nil, err
		}
		t.finishLoad(f, slot, dirty)
		t.emit(clk.Now(), obs.EvFrameLoad, id, 0)
		t.sample(clk, id)
		return t.acquire(clk, f, mode, false)
	}
}

// Create materializes a fresh page id through the FrameStore (always born
// dirty) and returns it write-latched and pinned.
func (t *Table) Create(clk *simclock.Clock, id uint64) (*Frame, error) {
	if err := t.reserve(clk); err != nil {
		return nil, err
	}
	sh := t.shardOf(id)
	sh.mu.Lock()
	if _, exists := sh.frames[id]; exists {
		sh.mu.Unlock()
		// GetOrCreate race: someone materialized it first; latch theirs.
		return t.Get(clk, id, Write)
	}
	f := t.newFrame(id)
	f.loaded = make(chan struct{})
	f.pins.Store(1)
	sh.frames[id] = f
	sh.mu.Unlock()
	t.resident.Add(1)
	t.emit(clk.Now(), obs.EvFramePin, id, 0)

	slot, err := t.store.Create(clk, id)
	if err != nil {
		t.abortLoad(f)
		return nil, err
	}
	t.finishLoad(f, slot, true)
	t.emit(clk.Now(), obs.EvFrameLoad, id, 0)
	t.sample(clk, id)
	return t.acquire(clk, f, Write, true)
}

// GetOrCreate write-latches page id, creating it when the backing medium
// reports the configured NotFound sentinel — the recovery redo path needs
// this for pages created after the last checkpoint.
func (t *Table) GetOrCreate(clk *simclock.Clock, id uint64) (*Frame, error) {
	f, err := t.Get(clk, id, Write)
	if err == nil {
		return f, nil
	}
	if t.notFound == nil || !errors.Is(err, t.notFound) {
		return nil, err
	}
	return t.Create(clk, id)
}

// acquire latches a pinned frame and runs the post-latch hooks.
func (t *Table) acquire(clk *simclock.Clock, f *Frame, mode Mode, fresh bool) (*Frame, error) {
	if t.latcher != nil {
		if err := t.latcher.Latch(clk, f.id, f.slot, mode == Write, fresh); err != nil {
			t.Unpin(f)
			return nil, err
		}
		return f, nil
	}
	f.Lock(mode)
	if mode == Write && t.wlatched != nil {
		if err := t.wlatched.WriteLatched(clk, f.id, f.slot); err != nil {
			// Leave the latch and pin as they stand: the CXL error model is
			// a host crash, and crashed-host DRAM state is abandoned whole,
			// not unwound (the sweep harness recovers into a fresh pool).
			return nil, err
		}
	}
	return f, nil
}

// finishLoad publishes a loaded slot and wakes waiters.
func (t *Table) finishLoad(f *Frame, slot any, dirty bool) {
	f.slot = slot
	if dirty {
		t.setDirty(f)
	}
	f.ready.Store(true)
	close(f.loaded)
	t.ringAdd(f)
}

// abortLoad withdraws a loading placeholder after a failed Fetch/Create.
func (t *Table) abortLoad(f *Frame) {
	sh := t.shardOf(f.id)
	sh.mu.Lock()
	delete(sh.frames, f.id)
	sh.mu.Unlock()
	t.unindex(f)
	f.pins.Add(-1)
	t.resident.Add(-1)
	close(f.loaded) // ready stays false: waiters retry as a fresh miss
	t.emit(0, obs.EvFrameUnpin, f.id, 0)
}

// retire discards a frame a Revalidator rejected, returning its slot to
// the store. Only the caller that wins the removal race runs the cleanup;
// the identity check keeps a re-registered successor frame safe. An
// EvictStore failure is returned — a silently swallowed error here leaks
// the slot: the frame is already detached, so nothing would ever hand the
// slot back to the store.
func (t *Table) retire(clk *simclock.Clock, f *Frame) error {
	sh := t.shardOf(f.id)
	sh.mu.Lock()
	if cur, ok := sh.frames[f.id]; !ok || cur != f || f.pins.Load() > 0 {
		sh.mu.Unlock()
		return nil // gone already, superseded, or still pinned elsewhere
	}
	delete(sh.frames, f.id)
	sh.mu.Unlock()
	t.detach(f)
	// Slot recycling, not a capacity eviction: Retires, not Evictions.
	t.Counters.Retires.Add(1)
	t.retires.Inc()
	t.emit(clk.Now(), obs.EvFrameRetire, f.id, 0)
	if t.evictor != nil {
		if err := t.evictor.Evict(clk, f.id, f.slot, false); err != nil {
			t.Counters.EvictFailures.Add(1)
			t.evictFailures.Inc()
			t.emit(clk.Now(), obs.EvEvictError, f.id, 0)
			return fmt.Errorf("frametab: retiring stale page %d: %w", f.id, err)
		}
	}
	return nil
}
