// Package recovery implements the three crash-recovery schemes the paper
// compares (§4.3):
//
//   - Vanilla: the conventional ARIES-style restart — scan the redo log
//     from the last checkpoint, read every affected page from shared
//     storage, replay, then undo uncommitted transactions. The buffer pool
//     starts empty, so the instance faces a long warm-up after recovery.
//   - RDMA-based: identical logic, but page base images are fetched from
//     the surviving RDMA remote-memory tier when present (LegoBase /
//     PolarDB-Serverless style), cutting page-read latency from ~150 µs to
//     ~7 µs. Redo is still scanned and applied in full, and the local
//     buffer still starts empty.
//   - PolarRecv: the paper's contribution. The entire buffer pool survived
//     in CXL memory; a metadata scan classifies each block. Only pages that
//     were write-locked at crash time (possibly torn) or whose LSN exceeds
//     the durable log tail ("too new": their redo was lost with the DRAM
//     log buffer) are rebuilt from storage + redo. Everything else is used
//     in place — recovery cost is proportional to in-flight work, not to
//     database activity since the checkpoint, and the pool restarts warm.
package recovery

import (
	"errors"
	"fmt"
	"sort"

	"polarcxlmem/internal/btree"
	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/checkpoint"
	"polarcxlmem/internal/core"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/mtr"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simcpu"
	"polarcxlmem/internal/simmem"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/wal"
)

// Result reports what a recovery pass did and how long it took in virtual
// time.
type Result struct {
	Scheme        string
	RedoRecords   int   // page records replayed (or consulted)
	RedoApplied   int   // page records actually applied to an image
	PagesRebuilt  int   // pages whose image was reconstructed
	PagesTrusted  int   // PolarRecv: surviving pages used in place
	PagesDropped  int   // PolarRecv: in-flight pages with no durable history
	UndoOps       int   // logical compensation operations
	UndoneTxns    int   // uncommitted transactions rolled back
	LRURebuilt    bool  // PolarRecv: the CXL LRU list needed rebuilding
	WarmPages     int   // buffer-resident pages when recovery finished
	StartNanos    int64 // clk at entry
	DoneNanos     int64 // clk at exit
	LogScanBytes  int64
	CheckpointLSN uint64
	DurableLSN    uint64
}

// Nanos reports the recovery duration in virtual nanoseconds.
func (r Result) Nanos() int64 { return r.DoneNanos - r.StartNanos }

// Publish adds this pass's accounting to reg: the recovery.* counters (redo
// applied / skipped, pages rebuilt / trusted) and the recovery.warm_pages
// gauge. Whoever owns the registry publishes the Result a recovery call
// returns, so the counters land in the recovering cluster's registry. A
// nil reg is a no-op.
func (r Result) Publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("recovery.redo.applied").Add(int64(r.RedoApplied))
	reg.Counter("recovery.redo.skipped").Add(int64(r.RedoRecords - r.RedoApplied))
	reg.Counter("recovery.pages.rebuilt").Add(int64(r.PagesRebuilt))
	reg.Counter("recovery.pages.trusted").Add(int64(r.PagesTrusted))
	reg.Gauge("recovery.warm_pages").Set(int64(r.WarmPages))
}

// analysis is the ARIES analysis pass over the durable log.
type analysis struct {
	committed map[uint64]bool
	perPage   map[uint64][]wal.Record
	dml       []wal.Record // page DML records in LSN order (undo candidates)
	records   int
	maxPageID uint64
}

// analyze scans the durable tail from fromLSN. A scan below the truncation
// point fails loudly with wal.ErrTruncated — that means checkpoint/
// truncation bookkeeping is broken, and a silently shortened redo pass
// would corrupt the database.
func analyze(ws *wal.Store, fromLSN uint64) (*analysis, error) {
	a := &analysis{committed: make(map[uint64]bool), perPage: make(map[uint64][]wal.Record)}
	if err := ws.Iterate(fromLSN, func(r wal.Record) bool {
		switch r.Kind {
		case wal.KTxnCommit, wal.KMTRCommit:
			a.committed[r.Txn] = true
		case wal.KCheckpoint:
		default:
			a.perPage[r.Page] = append(a.perPage[r.Page], r)
			a.records++
			if r.Page > a.maxPageID {
				a.maxPageID = r.Page
			}
			switch r.Kind {
			case wal.KInsert, wal.KUpdate, wal.KDelete:
				a.dml = append(a.dml, r)
			}
		}
		return true
	}); err != nil {
		return nil, fmt.Errorf("recovery: log scan from LSN %d: %w", fromLSN, err)
	}
	return a, nil
}

// chargeLogScan models the sequential read of the durable log tail.
func chargeLogScan(clk *simclock.Clock, ws *wal.Store, fromLSN uint64) (int64, error) {
	bytes, err := ws.BytesFrom(fromLSN)
	if err != nil {
		return 0, fmt.Errorf("recovery: log scan from LSN %d: %w", fromLSN, err)
	}
	clk.Advance(wal.DefaultFsyncNanos) // open/position
	ws.Device().Use(clk, bytes)
	return bytes, nil
}

// checkpointFor resolves the LSN recovery scans from: the later of the
// store-recorded checkpoint and — when a CXL checkpoint area is supplied —
// the newest durable checkpoint record (costed read of both slots). Taking
// the max keeps mixed deployments safe: explicit Engine.Checkpoint calls
// and the fuzzy checkpointer each truncate only behind their own previous
// checkpoint, and a scan from any later valid checkpoint is always
// sufficient.
func checkpointFor(clk *simclock.Clock, ws *wal.Store, ckpt *checkpoint.Area) (uint64, error) {
	lsn := ws.CheckpointLSN()
	if ckpt != nil {
		areaLSN, ok, err := ckpt.Load(clk)
		if err != nil {
			return 0, fmt.Errorf("recovery: checkpoint area: %w", err)
		}
		if ok && areaLSN > lsn {
			lsn = areaLSN
		}
	}
	return lsn, nil
}

// redoThroughPool replays every post-checkpoint record through the pool
// (vanilla and RDMA-based schemes).
func redoThroughPool(clk *simclock.Clock, pool buffer.Creator, a *analysis) (int, error) {
	// Deterministic page order for reproducible simulations.
	ids := make([]uint64, 0, len(a.perPage))
	for id := range a.perPage {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	applied := 0
	for _, id := range ids {
		f, err := pool.GetOrCreate(clk, id)
		if err != nil {
			return applied, fmt.Errorf("recovery: page %d: %w", id, err)
		}
		for _, rec := range a.perPage[id] {
			if err := mtr.Apply(f, rec); err != nil {
				f.Release()
				return applied, fmt.Errorf("recovery: redo lsn %d on page %d: %w", rec.LSN, id, err)
			}
			applied++
		}
		f.MarkDirty()
		if err := f.Release(); err != nil {
			return applied, err
		}
	}
	return applied, nil
}

// undo rolls back every uncommitted unit's DML via logical compensation
// through the freshly attached engine, newest first, then marks the units
// committed. Inverse misses (key already gone / value already restored) are
// tolerated: they mean a previous partial undo already handled the record.
func undo(clk *simclock.Clock, e *txn.Engine, a *analysis) (ops, txns int, err error) {
	byUnit := make(map[uint64]bool)
	// All compensation work runs under ONE unit that is itself committed at
	// the end — otherwise a crash-after-recovery would see the compensation
	// records as an uncommitted transaction and "undo the undo".
	compUnit := e.IDs().Next()
	for i := len(a.dml) - 1; i >= 0; i-- {
		rec := a.dml[i]
		if a.committed[rec.Txn] {
			continue
		}
		byUnit[rec.Txn] = true
		tree, terr := openTreeByMeta(clk, e, rec.Ref)
		if terr != nil {
			return ops, txns, fmt.Errorf("recovery: undo lsn %d: %w", rec.LSN, terr)
		}
		unit := compUnit
		var aerr error
		switch rec.Kind {
		case wal.KInsert:
			aerr = tree.Delete(clk, unit, rec.Key)
		case wal.KUpdate:
			aerr = tree.Update(clk, unit, rec.Key, rec.Old)
		case wal.KDelete:
			aerr = tree.Insert(clk, unit, rec.Key, rec.Old)
		}
		if aerr != nil && !errors.Is(aerr, btree.ErrKeyNotFound) && !errors.Is(aerr, btree.ErrDuplicateKey) {
			return ops, txns, fmt.Errorf("recovery: undo lsn %d: %w", rec.LSN, aerr)
		}
		ops++
	}
	for unit := range byUnit {
		e.Log().Append(wal.Record{Kind: wal.KTxnCommit, Txn: unit})
	}
	if ops > 0 {
		e.Log().Append(wal.Record{Kind: wal.KTxnCommit, Txn: compUnit})
	}
	e.Log().Flush(clk)
	return ops, len(byUnit), nil
}

func openTreeByMeta(clk *simclock.Clock, e *txn.Engine, metaID uint64) (*btree.Tree, error) {
	if metaID == 0 {
		return nil, fmt.Errorf("recovery: DML record without a tree tag")
	}
	return btree.Open(clk, e.Pool(), e.Log(), e.IDs(), metaID)
}

// Recover runs the vanilla or RDMA-based restart over a fresh pool: full
// redo from the checkpoint, then undo. The pool determines the scheme: a
// DRAMPool gives the vanilla behaviour (all base images from storage), a
// TieredPool whose remote tier survived gives the RDMA-based behaviour.
func Recover(clk *simclock.Clock, scheme string, pool buffer.Creator, ws *wal.Store, store *storage.Store) (*txn.Engine, *Result, error) {
	res := &Result{Scheme: scheme, StartNanos: clk.Now(),
		CheckpointLSN: ws.CheckpointLSN(), DurableLSN: ws.DurableLSN()}
	from := ws.CheckpointLSN() + 1
	var err error
	if res.LogScanBytes, err = chargeLogScan(clk, ws, from); err != nil {
		return nil, res, err
	}
	a, err := analyze(ws, from)
	if err != nil {
		return nil, res, err
	}
	res.RedoRecords = a.records
	applied, rerr := redoThroughPool(clk, pool, a)
	res.RedoApplied = applied
	if rerr != nil {
		return nil, res, rerr
	}
	res.PagesRebuilt = len(a.perPage)
	store.BumpNextID(a.maxPageID)
	log := wal.Attach(ws)
	engine, err := txn.Attach(clk, pool, log, store)
	if err != nil {
		return nil, res, err
	}
	res.UndoOps, res.UndoneTxns, err = undo(clk, engine, a)
	if err != nil {
		return nil, res, err
	}
	res.WarmPages = pool.Resident()
	res.DoneNanos = clk.Now()
	return engine, res, nil
}

// Failover rebuilds an instance on a *fresh* CXL region after the memory
// box hosting its pool died: there is no surviving image to trust, so the
// region is formatted from scratch and every page touched since the last
// checkpoint is reconstructed from shared storage plus the retained WAL
// tail, then uncommitted work is undone. This is the cross-leaf relocation
// path — the region typically lives on a *different* leaf than the dead
// pool, and the checkpoint area (when it survived on yet another leaf)
// bounds the redo scan exactly as it does for an in-place PolarRecv.
//
// The scan starts at the later of the checkpoint and the WAL truncation
// floor: checkpoint truncation guarantees every record below the floor was
// flushed to storage before being discarded, and the ARIES LSN guard in
// mtr.Apply makes re-applying any already-flushed record a no-op, so
// clamping to the floor is always sufficient and never replays stale state.
// A nil ckpt (the area died with its box, or checkpointing was never
// enabled) degrades to the store-recorded checkpoint, or to a full redo
// from the truncation floor when there is none.
func Failover(clk *simclock.Clock, host *cxl.HostPort, region *simmem.Region, cache *simcpu.Cache, ws *wal.Store, store *storage.Store, ckpt *checkpoint.Area) (*core.CXLPool, *txn.Engine, *Result, error) {
	res := &Result{Scheme: "failover", StartNanos: clk.Now(), DurableLSN: ws.DurableLSN()}
	ckptLSN, err := checkpointFor(clk, ws, ckpt)
	if err != nil {
		return nil, nil, res, err
	}
	res.CheckpointLSN = ckptLSN
	from := ckptLSN + 1
	if floor := ws.TruncatedBefore(); from < floor {
		from = floor
	}
	pool, err := core.Format(host, region, cache, store)
	if err != nil {
		return nil, nil, res, fmt.Errorf("failover: format replacement region: %w", err)
	}
	if res.LogScanBytes, err = chargeLogScan(clk, ws, from); err != nil {
		return nil, nil, res, err
	}
	a, err := analyze(ws, from)
	if err != nil {
		return nil, nil, res, err
	}
	res.RedoRecords = a.records
	applied, rerr := redoThroughPool(clk, pool, a)
	res.RedoApplied = applied
	if rerr != nil {
		return nil, nil, res, rerr
	}
	res.PagesRebuilt = len(a.perPage)
	store.BumpNextID(a.maxPageID)
	log := wal.Attach(ws)
	engine, err := txn.Attach(clk, pool, log, store)
	if err != nil {
		return nil, nil, res, err
	}
	res.UndoOps, res.UndoneTxns, err = undo(clk, engine, a)
	if err != nil {
		return nil, nil, res, err
	}
	res.WarmPages = pool.Resident()
	res.DoneNanos = clk.Now()
	return pool, engine, res, nil
}

// PolarRecv runs the paper's instant recovery over the surviving CXL
// region: scan metadata, trust unlocked/not-too-new pages in place, rebuild
// only the in-flight ones, then undo. ckpt, when non-nil, is the instance's
// CXL-durable checkpoint area: redo starts from the newest valid checkpoint
// record (or the store-recorded checkpoint, whichever is later), so replay
// is bounded by the checkpoint interval instead of total uptime. A nil ckpt
// preserves the legacy store-checkpoint behaviour.
func PolarRecv(clk *simclock.Clock, host *cxl.HostPort, region *simmem.Region, cache *simcpu.Cache, ws *wal.Store, store *storage.Store, ckpt *checkpoint.Area) (*core.CXLPool, *txn.Engine, *Result, error) {
	res := &Result{Scheme: "polarrecv", StartNanos: clk.Now(), DurableLSN: ws.DurableLSN()}
	ckptLSN, err := checkpointFor(clk, ws, ckpt)
	if err != nil {
		return nil, nil, res, err
	}
	res.CheckpointLSN = ckptLSN
	pool, rep, err := core.Open(clk, host, region, cache, store)
	if err != nil {
		return nil, nil, res, err
	}
	res.LRURebuilt = rep.LRURebuilt

	durable := ws.DurableLSN()
	var suspects []core.BlockInfo
	for _, b := range rep.Blocks {
		if b.Locked || b.LSN > durable {
			suspects = append(suspects, b)
		} else {
			res.PagesTrusted++
		}
	}
	var a *analysis
	if len(suspects) > 0 {
		from := ckptLSN + 1
		if res.LogScanBytes, err = chargeLogScan(clk, ws, from); err != nil {
			return nil, nil, res, err
		}
		if a, err = analyze(ws, from); err != nil {
			return nil, nil, res, err
		}
		res.RedoRecords = a.records
		for _, b := range suspects {
			img := make([]byte, page.Size)
			err := store.ReadPage(clk, b.PageID, img)
			hasBase := err == nil
			if err != nil && !errors.Is(err, storage.ErrNotFound) {
				return nil, nil, res, err
			}
			recs := a.perPage[b.PageID]
			if !hasBase && len(recs) == 0 {
				// No durable history at all: the page was born inside the
				// in-flight unit. Discard it.
				if err := pool.DropPage(clk, b.PageID); err != nil {
					return nil, nil, res, err
				}
				res.PagesDropped++
				continue
			}
			if !hasBase {
				img = make([]byte, page.Size)
			}
			acc := &page.SliceAccessor{Buf: img}
			for _, rec := range recs {
				if err := mtr.Apply(acc, rec); err != nil {
					return nil, nil, res, fmt.Errorf("polarrecv: redo lsn %d on page %d: %w", rec.LSN, b.PageID, err)
				}
				res.RedoApplied++
			}
			dirty := len(recs) > 0 || !hasBase
			if err := pool.RepairPage(clk, b.PageID, img, dirty); err != nil {
				return nil, nil, res, err
			}
			res.PagesRebuilt++
		}
	} else {
		// Even with nothing to rebuild, undo analysis needs the tail.
		from := ckptLSN + 1
		if res.LogScanBytes, err = chargeLogScan(clk, ws, from); err != nil {
			return nil, nil, res, err
		}
		if a, err = analyze(ws, from); err != nil {
			return nil, nil, res, err
		}
		res.RedoRecords = a.records
	}
	var maxPage uint64
	for _, b := range rep.Blocks {
		if b.PageID > maxPage {
			maxPage = b.PageID
		}
	}
	if a.maxPageID > maxPage {
		maxPage = a.maxPageID
	}
	store.BumpNextID(maxPage)
	log := wal.Attach(ws)
	engine, err := txn.Attach(clk, pool, log, store)
	if err != nil {
		return nil, nil, res, err
	}
	res.UndoOps, res.UndoneTxns, err = undo(clk, engine, a)
	if err != nil {
		return nil, nil, res, err
	}
	res.WarmPages = pool.Resident()
	res.DoneNanos = clk.Now()
	return pool, engine, res, nil
}
