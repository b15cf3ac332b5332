package conformance

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/core"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/fault"
	"polarcxlmem/internal/flusher"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
)

// opRun is one run of consecutive identical device operations.
type opRun struct {
	op    string
	count int
}

// opLog is a fault.Injector that lets every operation proceed and records
// the operation sequence run-length encoded; the flush barrier appends to
// the same log, so the write-ahead calls are ordered among the device ops.
type opLog struct {
	mu   sync.Mutex
	runs []opRun
}

func (l *opLog) add(op string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.runs); n > 0 && l.runs[n-1].op == op {
		l.runs[n-1].count++
		return
	}
	l.runs = append(l.runs, opRun{op: op, count: 1})
}

func (l *opLog) Point(op fault.Op, bytes int64) error {
	l.add(string(op))
	return nil
}

// TestCheckpointAndFlusherIssueSameOps: a checkpoint (FlushAll) and the
// background flusher (FlushBatch) persisting the same N dirty pages must
// issue the same device-operation sequence, barrier calls included, and
// leave the same images in storage. Crash-point fault plans rely on this:
// a page reaches storage through the same op points whichever path wrote
// it.
func TestCheckpointAndFlusherIssueSameOps(t *testing.T) {
	const dirty = 5
	type pool interface {
		buffer.Pool
		flusher.Target
	}
	// build returns a fresh pool with dirty modified pages and a function
	// that attaches an injector to every instrumented device under it.
	builds := []struct {
		name  string
		build func(t *testing.T) (pool, *storage.Store, func(fault.Injector))
	}{
		{"dram", func(t *testing.T) (pool, *storage.Store, func(fault.Injector)) {
			store := storage.New(storage.Config{})
			return buffer.NewDRAMPool(store, capacity, cxl.DRAMProfile()), store, store.SetInjector
		}},
		{"cxl", func(t *testing.T) (pool, *storage.Store, func(fault.Injector)) {
			clk := simclock.New()
			store := storage.New(storage.Config{})
			topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: core.RegionSizeFor(capacity) + 4096})
			host, err := topo.AttachHost("h0", 0)
			if err != nil {
				t.Fatal(err)
			}
			region, err := host.Allocate(clk, "db0", core.RegionSizeFor(capacity))
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.Format(host, region, host.NewCache("db0", 1<<20), store)
			if err != nil {
				t.Fatal(err)
			}
			return p, store, func(inj fault.Injector) {
				store.SetInjector(inj)
				topo.SetInjector(inj)
				topo.Leaf(0).Box().Device().SetInjector(inj)
				p.Cache().SetInjector(inj)
			}
		}},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			run := func(flush func(p pool, clk *simclock.Clock) error) ([]opRun, []byte) {
				p, store, attach := b.build(t)
				clk := simclock.New()
				ids := make([]uint64, dirty)
				for i := range ids {
					ids[i] = seedPage(t, store, 1, 0x10)
					f, err := p.Get(clk, ids[i], buffer.Write)
					if err != nil {
						t.Fatal(err)
					}
					var lsn [8]byte
					binary.LittleEndian.PutUint64(lsn[:], uint64(10+i))
					if err := f.WriteAt(8, lsn[:]); err != nil {
						t.Fatal(err)
					}
					if err := f.WriteAt(payloadOff, []byte{byte(0x20 + i)}); err != nil {
						t.Fatal(err)
					}
					f.MarkDirty()
					release(t, f)
				}
				log := &opLog{}
				p.SetFlushBarrier(func(_ *simclock.Clock, lsn uint64) { log.add(fmt.Sprintf("barrier@%d", lsn)) })
				attach(log)
				if err := flush(p, clk); err != nil {
					t.Fatal(err)
				}
				attach(nil)
				if n := p.DirtyResident(); n != 0 {
					t.Fatalf("%d pages still dirty after the flush", n)
				}
				payloads := make([]byte, len(ids))
				img := make([]byte, page.Size)
				for i, id := range ids {
					if err := store.ReadPage(clk, id, img); err != nil {
						t.Fatal(err)
					}
					payloads[i] = img[payloadOff]
				}
				return log.runs, payloads
			}
			ckptOps, ckptPayloads := run(func(p pool, clk *simclock.Clock) error { return p.FlushAll(clk) })
			flushOps, flushPayloads := run(func(p pool, clk *simclock.Clock) error {
				n, err := p.FlushBatch(clk, dirty)
				if err == nil && n != dirty {
					err = fmt.Errorf("FlushBatch wrote %d pages, want %d", n, dirty)
				}
				return err
			})
			if len(ckptOps) == 0 {
				t.Fatal("FlushAll issued no recorded operations")
			}
			if !reflect.DeepEqual(ckptOps, flushOps) {
				t.Fatalf("op sequences differ:\nFlushAll   %v\nFlushBatch %v", ckptOps, flushOps)
			}
			if !reflect.DeepEqual(ckptPayloads, flushPayloads) {
				t.Fatalf("stored payloads differ: FlushAll %v, FlushBatch %v", ckptPayloads, flushPayloads)
			}
			for i, b := range ckptPayloads {
				if b != byte(0x20+i) {
					t.Fatalf("page %d payload in storage = %#x, want %#x", i, b, byte(0x20+i))
				}
			}
		})
	}
}
