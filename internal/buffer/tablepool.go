package buffer

import (
	"sync/atomic"

	"polarcxlmem/internal/frametab"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
)

// TablePool is the pool surface every buffer pool in the repo shares. It
// owns the frametab table over the pool's FrameStore, the page-id source,
// the write-ahead flush barrier and the observer registration
// (frametab.<name>.*). A pool embeds it and supplies only its medium: the
// store behind the table, and the Medium its frames' visits and releases
// run on.
type TablePool struct {
	tab     *frametab.Table
	cfg     frametab.Config // what Restart rebuilds the table from
	name    string
	ids     *storage.Store
	medium  Medium
	barrier FlushBarrier
	reg     atomic.Pointer[obs.Registry] // survives Restart
	down    atomic.Pointer[error]        // set by Fail
}

// NewTablePool builds the table over cfg.Store (storage.ErrNotFound is the
// GetOrCreate sentinel), registering metrics under frametab.<name>.* and
// allocating page ids from ids. m is the pool's Medium; nil means the
// store's slots are Images, visited in place and released by unlatching
// and unpinning.
func NewTablePool(cfg frametab.Config, name string, ids *storage.Store, m Medium) *TablePool {
	c := &TablePool{}
	c.init(cfg, name, ids, m)
	return c
}

func (c *TablePool) init(cfg frametab.Config, name string, ids *storage.Store, m Medium) {
	cfg.NotFound = storage.ErrNotFound
	if m == nil {
		m = imageMedium{c}
	}
	c.tab, c.cfg, c.name, c.ids, c.medium = frametab.New(cfg), cfg, name, ids, m
}

// Table exposes the frame table (store-driven eviction, counters, reopen).
func (c *TablePool) Table() *frametab.Table { return c.tab }

// Get implements Pool.
func (c *TablePool) Get(clk *simclock.Clock, id uint64, mode Mode) (Frame, error) {
	if err := c.Failed(); err != nil {
		return Frame{}, err
	}
	f, err := c.tab.Get(clk, id, mode)
	return c.hand(f, err, clk, mode)
}

// NewPage implements Pool.
func (c *TablePool) NewPage(clk *simclock.Clock) (Frame, error) {
	if err := c.Failed(); err != nil {
		return Frame{}, err
	}
	f, err := c.tab.Create(clk, c.ids.AllocPageID())
	return c.hand(f, err, clk, Write)
}

// GetOrCreate implements Creator.
func (c *TablePool) GetOrCreate(clk *simclock.Clock, id uint64) (Frame, error) {
	if err := c.Failed(); err != nil {
		return Frame{}, err
	}
	f, err := c.tab.GetOrCreate(clk, id)
	return c.hand(f, err, clk, Write)
}

// hand returns a handle on the frame a table call latched, or its error.
func (c *TablePool) hand(f *frametab.Frame, err error, clk *simclock.Clock, mode Mode) (Frame, error) {
	if err != nil {
		return Frame{}, err
	}
	return NewFrame(c.medium, f, clk, mode), nil
}

// Stats implements Pool.
func (c *TablePool) Stats() Stats { return c.tab.Stats() }

// Resident implements Pool: the frames the table holds. For the CXL and
// shared pools that is metadata only (the pages live in CXL); for the DRAM,
// tiered and RDMA-shared pools it is local page copies, the memory overhead
// the paper charges against those designs.
func (c *TablePool) Resident() int { return c.tab.Resident() }

// PinnedFrames reports frames with live pins (conformance leak check).
func (c *TablePool) PinnedFrames() int { return c.tab.PinnedFrames() }

// SetFlushBarrier implements Pool.
func (c *TablePool) SetFlushBarrier(fb FlushBarrier) { c.barrier = fb }

// Barrier runs the installed flush barrier, if any, for a page image at
// lsn about to reach durable storage.
func (c *TablePool) Barrier(clk *simclock.Clock, lsn uint64) {
	if c.barrier != nil {
		c.barrier(clk, lsn)
	}
}

// SetObserver registers the table's metrics (frametab.<name>.*) with reg;
// the registration survives Restart. A nil reg detaches.
func (c *TablePool) SetObserver(reg *obs.Registry) {
	c.reg.Store(reg)
	c.tab.SetObserver(reg, c.name)
}

// Observer reports the registry SetObserver installed, or nil.
func (c *TablePool) Observer() *obs.Registry { return c.reg.Load() }

// Fail makes every later Get, NewPage and GetOrCreate return err (a crashed
// primary's pool); Fail(nil) brings the pool back up.
func (c *TablePool) Fail(err error) { c.down.Store(&err) }

// Failed reports the error Fail installed, or nil while the pool is up.
func (c *TablePool) Failed() error {
	if e := c.down.Load(); e != nil {
		return *e
	}
	return nil
}

// Restart replaces the table with an empty one built from the same config
// and carries the observer registration over. It leaves Fail in place: the
// caller brings the pool back up once the rest of its state is rebuilt.
func (c *TablePool) Restart() {
	c.tab = frametab.New(c.cfg)
	c.tab.SetObserver(c.reg.Load(), c.name)
}

// WritebackPool is a TablePool whose store persists its own dirty pages
// (a frametab.WritebackStore): the DRAM, tiered and CXL pools. It adds the
// checkpoint walk and the flusher.Target methods. The shared pools embed a
// plain TablePool, since their dirty set is the fusion server's.
type WritebackPool struct {
	TablePool
	wb frametab.WritebackStore
}

// NewWritebackPool is NewTablePool for a store that implements
// frametab.WritebackStore.
func NewWritebackPool(cfg frametab.Config, name string, ids *storage.Store, m Medium) *WritebackPool {
	c := &WritebackPool{wb: cfg.Store.(frametab.WritebackStore)}
	c.init(cfg, name, ids, m)
	return c
}

// FlushAll implements Pool (checkpoint support): every dirty resident page
// goes to storage through the store's Writeback, read-latched, in page-id
// order — the table's dirty index comes back sorted, so checkpoint I/O
// replays identically under a fault plan, and each page issues exactly the
// op sequence the background flusher's FlushBatch does.
func (c *WritebackPool) FlushAll(clk *simclock.Clock) error {
	for _, fr := range c.tab.DirtyFrames() {
		fr.Lock(Read)
		err := c.wb.Writeback(clk, fr.ID(), fr.Slot())
		if err == nil {
			fr.ClearDirty()
		}
		fr.Unlock(Read)
		if err != nil {
			return err
		}
	}
	return nil
}

// FlushBatch writes back up to max dirty pages without evicting them
// (flusher.Target).
func (c *WritebackPool) FlushBatch(clk *simclock.Clock, max int) (int, error) {
	return c.tab.FlushBatch(clk, max)
}

// DirtyResident counts resident dirty pages (flusher.Target).
func (c *WritebackPool) DirtyResident() int { return c.tab.DirtyResident() }
