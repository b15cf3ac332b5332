// Package txn implements the transaction engine: user transactions over
// B+tree tables, a durable catalog, commit/rollback with logical undo, and
// checkpointing. It is the layer the workload generators drive, and it runs
// unchanged over every buffer pool — local DRAM, tiered RDMA, PolarCXLMem —
// which is the paper's deployment story: "This design minimally impacts the
// transaction engine, requiring only a few modifications during memory
// allocation" (§3.1).
package txn

import (
	"fmt"
	"hash/fnv"
	"sync"

	"polarcxlmem/internal/btree"
	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/checkpoint"
	"polarcxlmem/internal/flusher"
	"polarcxlmem/internal/mtr"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/tier"
	"polarcxlmem/internal/wal"
)

// CatalogMetaID is the catalog tree's meta page id. The catalog is the
// first tree created on a fresh database, and page ids are allocated
// sequentially from 1, so this is a stable bootstrap address.
const CatalogMetaID = 1

// Engine is one database instance's transaction engine.
type Engine struct {
	pool  buffer.Pool
	log   *wal.Log
	store *storage.Store
	ids   *mtr.IDGen

	catalog *btree.Tree

	// Commit pipeline, set up before transactions run (all opt-in; nil and
	// empty mean the classic inline path, which the deterministic fault
	// sweeps depend on staying byte-identical). stages holds the enabled
	// daemons in tick order.
	gc     *wal.GroupCommitter
	fl     *flusher.Flusher
	cp     *checkpoint.Checkpointer
	stages []Stage

	mu     sync.Mutex
	tables map[string]*btree.Tree
}

// nameKey hashes a table name to a catalog key.
func nameKey(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64() & (1<<63 - 1))
}

// wireBarrier installs the write-ahead rule: before any page image reaches
// storage, the log is durable up to that page's LSN.
func (e *Engine) wireBarrier() {
	e.pool.SetFlushBarrier(func(clk *simclock.Clock, lsn uint64) {
		if lsn > e.log.Store().DurableLSN() {
			e.log.Flush(clk)
		}
	})
}

// Bootstrap creates a fresh database on an empty pool: the catalog tree and
// nothing else.
func Bootstrap(clk *simclock.Clock, pool buffer.Pool, log *wal.Log, store *storage.Store) (*Engine, error) {
	e := &Engine{pool: pool, log: log, store: store, ids: &mtr.IDGen{}, tables: make(map[string]*btree.Tree)}
	e.wireBarrier()
	cat, err := btree.Create(clk, pool, log, e.ids)
	if err != nil {
		return nil, err
	}
	if cat.MetaID() != CatalogMetaID {
		return nil, fmt.Errorf("txn: catalog meta page is %d, want %d (pool not fresh?)", cat.MetaID(), CatalogMetaID)
	}
	e.catalog = cat
	return e, nil
}

// Attach opens an existing database over a warm or recovered pool.
func Attach(clk *simclock.Clock, pool buffer.Pool, log *wal.Log, store *storage.Store) (*Engine, error) {
	e := &Engine{pool: pool, log: log, store: store, ids: &mtr.IDGen{}, tables: make(map[string]*btree.Tree)}
	e.wireBarrier()
	cat, err := btree.Open(clk, pool, log, e.ids, CatalogMetaID)
	if err != nil {
		return nil, err
	}
	e.catalog = cat
	// Unit ids restart above anything in the durable log so compensation
	// units never collide with logged ones. Ids only grow, so the largest
	// among the records checkpoint GC left is the maximum.
	e.ids.Bump(log.Store().MaxUnit())
	return e, nil
}

// IDs exposes the unit-id generator (recovery logs compensation units).
func (e *Engine) IDs() *mtr.IDGen { return e.ids }

// Pool exposes the engine's buffer pool.
func (e *Engine) Pool() buffer.Pool { return e.pool }

// Log exposes the engine's redo log handle.
func (e *Engine) Log() *wal.Log { return e.log }

// Stage is a commit-path daemon: the engine ticks every enabled stage, in
// the order it was enabled, on each commit before the commit marker, and the
// stage decides against the committer's virtual clock whether it is due.
type Stage interface {
	Tick(clk *simclock.Clock) error
}

// EnableGroupCommit routes transaction commit markers through a
// wal.GroupCommitter so concurrent committers share leader-driven log
// flushes instead of paying one device fsync each. Single-threaded callers
// see one flush per commit, exactly as before. reg (nil for none) receives
// the committer's metrics. Call once at setup, before transactions run.
func (e *Engine) EnableGroupCommit(pol wal.GroupPolicy, reg *obs.Registry) *wal.GroupCommitter {
	e.gc = wal.NewGroupCommitter(e.log, pol, reg)
	return e.gc
}

// GroupCommitter reports the engine's group committer, or nil when commits
// flush inline.
func (e *Engine) GroupCommitter() *wal.GroupCommitter { return e.gc }

// EnableBackgroundFlush adds a dirty-page flusher stage: when the
// virtual-time interval has elapsed it writes back a redo-budget-sized batch
// of dirty pages. Requires a pool with background-writeback support (every
// frametab-backed pool whose store implements frametab.WritebackStore);
// pools without it — the shared multi-primary pools — return an error. reg
// (nil for none) receives the flusher's metrics. Call once at setup, first
// among the stages.
func (e *Engine) EnableBackgroundFlush(pol flusher.Policy, reg *obs.Registry) (*flusher.Flusher, error) {
	tgt, ok := e.pool.(flusher.Target)
	if !ok {
		return nil, fmt.Errorf("txn: pool %T does not support background flush", e.pool)
	}
	st := e.log.Store()
	e.fl = flusher.New(tgt, pol, func() int64 {
		// The backlog floor is the later of the store-recorded checkpoint
		// and the truncation point: fuzzy checkpoints record their LSN in
		// the CXL checkpoint area (not the store) and truncate the tail one
		// checkpoint behind, so the truncation point is the durable evidence
		// of the floor. Reading from the floor never trips ErrTruncated.
		floor := st.CheckpointLSN()
		if tb := st.TruncatedBefore(); tb > floor+1 {
			floor = tb - 1
		}
		n, err := st.BytesFrom(floor + 1)
		if err != nil {
			return 0 // unreachable: floor+1 >= truncation point by construction
		}
		return n
	}, reg)
	e.stages = append(e.stages, e.fl)
	return e.fl, nil
}

// Flusher reports the engine's background flusher, or nil when eviction
// writes happen inline only.
func (e *Engine) Flusher() *flusher.Flusher { return e.fl }

// EnableCheckpoints adds a continuous fuzzy checkpointer stage: when the
// virtual-time interval has elapsed and the flusher has the dirty backlog
// below the policy watermark, it publishes a CXL-durable checkpoint record
// to area and truncates the redo log behind the previous checkpoint.
// Requires a pool with background-writeback support, like
// EnableBackgroundFlush. reg (nil for none) receives the checkpointer's
// metrics. Call once at setup, right after EnableBackgroundFlush: without a
// flusher the watermark may never be reached under write-heavy load.
func (e *Engine) EnableCheckpoints(area *checkpoint.Area, pol checkpoint.Policy, reg *obs.Registry) (*checkpoint.Checkpointer, error) {
	tgt, ok := e.pool.(flusher.Target)
	if !ok {
		return nil, fmt.Errorf("txn: pool %T does not support fuzzy checkpointing", e.pool)
	}
	e.cp = checkpoint.New(area, tgt, e.log, pol, reg)
	e.stages = append(e.stages, e.cp)
	return e.cp, nil
}

// Checkpointer reports the engine's fuzzy checkpointer, or nil when only
// explicit Checkpoint calls record checkpoints.
func (e *Engine) Checkpointer() *checkpoint.Checkpointer { return e.cp }

// EnableTiering adds a hot/cold placement daemon stage: when the
// virtual-time placement interval has elapsed it promotes the hottest pages
// into the pool's fast tier and demotes cold or over-budget ones. The caller
// builds the daemon (tier.NewDaemon over a pool implementing tier.Mover —
// see core.CXLPool.EnableTiering) so QoS policy stays in the facade's
// hands. Call once at setup, after the flusher and checkpointer.
func (e *Engine) EnableTiering(d *tier.Daemon) { e.stages = append(e.stages, d) }

// commitUnit makes unit durable: tick every stage, then append the commit
// marker and force it — through the group committer when enabled, else
// inline. Every stage ticks BEFORE the marker append on purpose: if an
// injected crash fires during background writeback, mid-checkpoint, or
// mid-promotion, the unit is still uncommitted, so crash-sweep shadow
// accounting stays exact.
//
// A readOnly unit logged no records, so recovery has nothing to commit or
// undo for it and it gets no marker. It still ticks the stages, keeping
// their cadence, and then waits for durability instead of forcing: see
// awaitDurable.
func (e *Engine) commitUnit(clk *simclock.Clock, unit uint64, readOnly bool) error {
	for _, s := range e.stages {
		if err := s.Tick(clk); err != nil {
			return fmt.Errorf("txn: %T tick before commit of unit %d: %w", s, unit, err)
		}
	}
	if readOnly {
		e.awaitDurable(clk)
		return nil
	}
	rec := wal.Record{Kind: wal.KTxnCommit, Txn: unit}
	if e.gc != nil {
		e.gc.Commit(clk, rec)
		return nil
	}
	e.log.Append(rec)
	e.log.Flush(clk)
	return nil
}

// awaitDurable returns once every record appended so far is durable. Memory
// survives a host crash but the log buffer does not, so a reader must not
// return a value whose redo could still be lost; waiting for the whole
// appended tail is a superset of "the highest page LSN read" that needs no
// btree plumbing. It is free when the tail is already durable — always so
// when every writer forces before it returns. Otherwise it flushes, and
// since a concurrent flush may have persisted the tail first, it also waits
// out every persist already booked on the log device.
func (e *Engine) awaitDurable(clk *simclock.Clock) {
	st := e.log.Store()
	if e.log.NextLSN()-1 <= st.DurableLSN() {
		return
	}
	e.log.Flush(clk)
	clk.AdvanceTo(st.Device().Stats().LastFree)
}

// CreateTable creates a named table and registers it in the catalog,
// durably.
func (e *Engine) CreateTable(clk *simclock.Clock, name string) (*btree.Tree, error) {
	e.mu.Lock()
	if _, ok := e.tables[name]; ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("txn: table %q exists", name)
	}
	e.mu.Unlock()
	tr, err := btree.Create(clk, e.pool, e.log, e.ids)
	if err != nil {
		return nil, err
	}
	var idb [8]byte
	for i := 0; i < 8; i++ {
		idb[i] = byte(tr.MetaID() >> (8 * i))
	}
	unit := e.ids.Next()
	if err := e.catalog.Insert(clk, unit, nameKey(name), idb[:]); err != nil {
		return nil, err
	}
	e.log.Append(wal.Record{Kind: wal.KTxnCommit, Txn: unit})
	e.log.Flush(clk)
	e.mu.Lock()
	e.tables[name] = tr
	e.mu.Unlock()
	return tr, nil
}

// Table opens a named table from the catalog (cached).
func (e *Engine) Table(clk *simclock.Clock, name string) (*btree.Tree, error) {
	e.mu.Lock()
	if tr, ok := e.tables[name]; ok {
		e.mu.Unlock()
		return tr, nil
	}
	e.mu.Unlock()
	v, err := e.catalog.Get(clk, nameKey(name))
	if err != nil {
		return nil, fmt.Errorf("txn: table %q: %w", name, err)
	}
	var metaID uint64
	for i := 0; i < 8; i++ {
		metaID |= uint64(v[i]) << (8 * i)
	}
	tr, err := btree.Open(clk, e.pool, e.log, e.ids, metaID)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.tables[name] = tr
	e.mu.Unlock()
	return tr, nil
}

// Checkpoint forces the log, flushes every dirty page, durably records the
// checkpoint LSN, and truncates the log below the PREVIOUS checkpoint.
// Call at quiescent points (no in-flight transactions): truncation assumes
// no undo older than a full checkpoint interval is ever needed, and
// recovery scans start at the latest checkpoint anyway. Keeping one full
// interval of history (rather than truncating to the new checkpoint)
// guards the edge where a crash lands exactly between SetCheckpoint and
// the first post-checkpoint flush.
func (e *Engine) Checkpoint(clk *simclock.Clock) error {
	prev := e.log.Store().CheckpointLSN()
	lsn := e.log.NextLSN() - 1
	e.log.Flush(clk)
	if err := e.pool.FlushAll(clk); err != nil {
		return err
	}
	e.log.Store().SetCheckpoint(clk, lsn)
	if prev > 0 {
		e.log.Store().TruncateBefore(prev)
	}
	return nil
}
