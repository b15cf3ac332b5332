package conformance

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/core"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/rdma"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
)

// BenchmarkPoolParallelGet measures the hot Get/Release path under
// goroutine parallelism (run with -cpu=8 for the headline number): a hot
// page-id set smaller than the pool so every access is a hit, per-goroutine
// clocks (simclock is not thread-safe), read latches only. This is the
// workload the sharded frame table exists for — the pre-frametab pools
// serialized every Get on one pool mutex. Baselines: BENCH_pool.json.
func BenchmarkPoolParallelGet(b *testing.B) {
	const poolPages = 64
	const hotPages = 32

	seed := func(store *storage.Store) []uint64 {
		clk := simclock.New()
		ids := make([]uint64, hotPages)
		for i := range ids {
			id := store.AllocPageID()
			img := make([]byte, page.Size)
			binary.LittleEndian.PutUint64(img[8:], uint64(i+1))
			if err := store.WritePage(clk, id, img); err != nil {
				b.Fatal(err)
			}
			ids[i] = id
		}
		return ids
	}

	run := func(b *testing.B, pool buffer.Pool, ids []uint64) {
		warm := simclock.New()
		for _, id := range ids {
			f, err := pool.Get(warm, id, buffer.Read)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.Release(); err != nil {
				b.Fatal(err)
			}
		}
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			clk := simclock.New()
			i := int(next.Add(1)) // distinct starting offsets per goroutine
			for pb.Next() {
				f, err := pool.Get(clk, ids[i%len(ids)], buffer.Read)
				if err != nil {
					b.Error(err)
					return
				}
				if err := f.Release(); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
	}

	b.Run("dram", func(b *testing.B) {
		store := storage.New(storage.Config{})
		ids := seed(store)
		run(b, buffer.NewDRAMPool(store, poolPages, cxl.DRAMProfile(), nil), ids)
	})

	b.Run("tiered", func(b *testing.B) {
		store := storage.New(storage.Config{})
		ids := seed(store)
		remote := buffer.NewRemoteMemory("rm", poolPages*4)
		run(b, buffer.NewTieredPool(store, remote, rdma.NewNIC("nic", 0, 0), poolPages, cxl.DRAMProfile(), nil), ids)
	})

	b.Run("cxl", func(b *testing.B) {
		clk := simclock.New()
		store := storage.New(storage.Config{})
		ids := seed(store)
		host, err := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: core.RegionSizeFor(poolPages) + 4096}, nil).AttachHost("h0", 0)
		if err != nil {
			b.Fatal(err)
		}
		region, err := host.Allocate(clk, "db0", core.RegionSizeFor(poolPages))
		if err != nil {
			b.Fatal(err)
		}
		pool, err := core.Format(host, region, host.NewCache("db0", 8<<20), store)
		if err != nil {
			b.Fatal(err)
		}
		run(b, pool, ids)
	})
}
