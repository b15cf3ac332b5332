package recovery

// RedoSet is the exported face of the analysis pass for OTHER subsystems
// that need PolarRecv-style page reconstruction without running a full
// engine recovery. The sharing layer's EvictNode uses it to rebuild pages a
// crashed primary held write-locked: the CXL frame is suspect (the dead
// writer may have leaked partial cache-line write-backs), but the storage
// base plus the durable log reconstructs the last published committed
// image.
//
// Unlike the full restart path (redo everything, then logically undo
// uncommitted units through the engine), RedoSet applies COMMITTED records
// only: node eviction has no engine to run compensation through, and the
// dead node's in-flight unit must simply vanish — its page lock guaranteed
// nobody observed the uncommitted bytes.

import (
	"errors"

	"polarcxlmem/internal/mtr"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/wal"
)

// RedoSet holds one scan of the durable log tail, reusable across many
// page rebuilds.
type RedoSet struct {
	a       *analysis
	durable uint64
}

// ScanRedo charges one sequential scan of the durable log tail — from the
// last durable checkpoint, clamped up to the truncation point in case
// checkpoint GC already discarded older history — and returns the per-page
// redo index. The clamp is safe for EvictNode's purpose: truncation only
// ever discards records below a published checkpoint, whose page effects
// are already durable in storage, so the surviving tail plus the storage
// base still reconstructs every committed image.
func ScanRedo(clk *simclock.Clock, ws *wal.Store) (*RedoSet, error) {
	from := ws.CheckpointLSN() + 1
	if tb := ws.TruncatedBefore(); tb > from {
		from = tb
	}
	if _, err := chargeLogScan(clk, ws, from); err != nil {
		return nil, err
	}
	a, err := analyze(ws, from)
	if err != nil {
		return nil, err
	}
	return &RedoSet{a: a, durable: ws.DurableLSN()}, nil
}

// RebuildPage reconstructs page id's last committed image: storage base
// (when present) plus every committed, durable log record for the page, in
// LSN order. known=false means the page has no durable history at all — it
// was born inside an in-flight unit and should be dropped. dirty reports
// whether the rebuilt image has moved past the storage base (the caller
// must keep it flushable).
func (rs *RedoSet) RebuildPage(clk *simclock.Clock, store *storage.Store, id uint64) (img []byte, known, dirty bool, err error) {
	img = make([]byte, page.Size)
	rerr := store.ReadPage(clk, id, img)
	hasBase := rerr == nil
	if rerr != nil && !errors.Is(rerr, storage.ErrNotFound) {
		return nil, false, false, rerr
	}
	if !hasBase {
		img = make([]byte, page.Size)
	}
	baseLSN := page.RawLSN(img)
	applied := 0
	acc := &page.SliceAccessor{Buf: img}
	for _, rec := range rs.a.perPage[id] {
		if !rs.a.committed[rec.Txn] || rec.LSN > rs.durable {
			continue
		}
		if aerr := mtr.Apply(acc, rec); aerr != nil {
			return nil, false, false, aerr
		}
		applied++
	}
	if !hasBase && applied == 0 {
		return nil, false, false, nil
	}
	// Records the base already reflects are skipped by the redo LSN guard,
	// so the page LSN moving is the true "diverged from storage" signal.
	return img, true, !hasBase || page.RawLSN(img) > baseLSN, nil
}
