package conformance

import (
	"testing"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/checkpoint"
	"polarcxlmem/internal/flusher"
	"polarcxlmem/internal/sharing"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simmem"
	"polarcxlmem/internal/wal"
)

// The fuzzy-checkpoint conformance contract, pinned across all five pools:
//
//   - every pool with background-writeback support (it implements
//     flusher.Target) must carry a full checkpoint cycle — dirty pages,
//     publish, inline drain to zero, second publish truncating the log
//     behind the first — with the invariant checkers consuming the event
//     stream throughout, and every page readable with its written content
//     afterwards;
//   - every pool WITHOUT that support (the shared multi-primary pools,
//     whose write-back is the fusion server's business) must simply not
//     satisfy the interface gate — the same gate txn.EnableCheckpoints and
//     the facade use to reject the configuration with a typed error rather
//     than checkpointing unsafely.
func TestCheckpointCycleConformance(t *testing.T) {
	var ckptProf = simmem.Profile{Name: "ckpt", ReadLatency: 100, WriteLatency: 150, ReadStream: 1e9, WriteStream: 1e9}
	forEachPool(t, func(t *testing.T, r *rig) {
		clk := simclock.New()
		tgt, ok := r.pool.(flusher.Target)
		if !ok {
			// The gate holds: this pool cannot be wired to a checkpointer.
			// Only the shared multi-primary pools may opt out — anything else
			// failing the gate is a regression.
			switch r.pool.(type) {
			case *sharing.SharedPool, *sharing.RDMASharedPool:
				return
			default:
				t.Fatalf("pool %T does not implement flusher.Target; only the shared multi-primary pools may opt out of fuzzy checkpointing", r.pool)
			}
		}

		ws := wal.NewStore(0, 0)
		log := wal.Attach(ws)
		area, err := checkpoint.NewArea(simmem.NewDevice("ckpt", checkpoint.AreaSize, ckptProf, nil, nil).WholeRegion())
		if err != nil {
			t.Fatal(err)
		}
		cp := checkpoint.New(area, tgt, log, checkpoint.Policy{IntervalNanos: simclock.Millisecond, DirtyWatermark: 4}, nil)

		// Cycle 1: dirty a few pages under write latches, log + commit their
		// records, then tick the checkpointer.
		dirtyRound := func(round int) []uint64 {
			ids := make([]uint64, 3)
			for i := range ids {
				ids[i] = seedPage(t, r.store, 1, 0x10)
				f, err := r.pool.Get(clk, ids[i], buffer.Write)
				if err != nil {
					t.Fatal(err)
				}
				if err := writeAt(f, payloadOff, []byte{byte(0x20 + round)}); err != nil {
					t.Fatal(err)
				}
				f.MarkDirty()
				release(t, f)
				log.Append(wal.Record{Kind: wal.KInsert, Txn: uint64(round), Page: ids[i]})
			}
			log.Append(wal.Record{Kind: wal.KTxnCommit, Txn: uint64(round)})
			log.Flush(clk)
			return ids
		}
		ids1 := dirtyRound(1)
		d1 := ws.DurableLSN()
		if err := cp.Tick(clk); err != nil {
			t.Fatal(err)
		}
		if cp.Published() != 1 {
			t.Fatalf("cycle 1: published = %d (deferred %d, dirty %d)", cp.Published(), cp.Deferred(), tgt.DirtyResident())
		}
		if area.LSN() != d1 {
			t.Fatalf("cycle 1: area LSN %d, want durable %d", area.LSN(), d1)
		}
		if n := tgt.DirtyResident(); n != 0 {
			t.Fatalf("cycle 1: %d dirty pages survived the publish drain", n)
		}

		// Cycle 2 truncates behind cycle 1's checkpoint.
		ids2 := dirtyRound(2)
		clk.Advance(simclock.Millisecond)
		if err := cp.Tick(clk); err != nil {
			t.Fatal(err)
		}
		if cp.Published() != 2 {
			t.Fatalf("cycle 2: published = %d (deferred %d)", cp.Published(), cp.Deferred())
		}
		if tb := ws.TruncatedBefore(); tb != d1+1 {
			t.Fatalf("cycle 2: truncation point %d, want %d", tb, d1+1)
		}

		// Every page from both cycles still serves its written content (the
		// stale-read checker audits these reads via the event stream).
		for round, ids := range [][]uint64{ids1, ids2} {
			for _, id := range ids {
				f, err := r.pool.Get(clk, id, buffer.Read)
				if err != nil {
					t.Fatal(err)
				}
				var b [1]byte
				if err := readAt(f, payloadOff, b[:]); err != nil {
					t.Fatal(err)
				}
				release(t, f)
				if b[0] != byte(0x21+round) {
					t.Fatalf("page %d after checkpoints = %#x, want %#x", id, b[0], byte(0x21+round))
				}
			}
		}
	})
}
