package txn

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"polarcxlmem/internal/core"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/flusher"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simcpu"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/wal"
)

// cxlVal is version ver of key k's value, padded so leaves split often.
func cxlVal(k int64, ver int) []byte {
	return []byte(fmt.Sprintf("k%d-v%d-%s", k, ver, strings.Repeat("x", 150+int(k%100))))
}

// TestConcurrentWorkersOnCXLPool runs four workers against one engine on a
// PolarCXLMem pool, where every page access goes through the host's CPU
// cache and each page visit holds that cache. The cache is a few pages big,
// so held visits fill and evict lines; the pool has a dozen blocks, so
// frames are evicted to storage; inserts split leaves and the root; the
// background flusher writes pages back between statements. Each worker
// inserts and updates its own keys, reads them back, and scans the whole
// table. Every read must return the value the worker last committed, every
// scanned record must be one some worker wrote for that key, and the tree
// must validate and count exactly at the end. Run with -race in CI; a
// deadlock between held visits shows as a test timeout.
func TestConcurrentWorkersOnCXLPool(t *testing.T) {
	const (
		nblocks   = 12
		workers   = 4
		perWorker = 250
	)
	topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: core.RegionSizeFor(nblocks) + 4096}, nil)
	host, err := topo.AttachHost("host0", 0)
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	region, err := host.Allocate(clk, "db0", core.RegionSizeFor(nblocks))
	if err != nil {
		t.Fatal(err)
	}
	store := storage.New(storage.Config{})
	const cacheBytes = 48 << 10
	cache := host.NewCache("db0", cacheBytes)
	pool, err := core.Format(host, region, cache, store)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Bootstrap(clk, pool, wal.Attach(wal.NewStore(0, 0)), store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnableBackgroundFlush(flusher.Policy{IntervalNanos: 50 * simclock.Microsecond}, nil); err != nil {
		t.Fatal(err)
	}
	tr, err := e.CreateTable(clk, "t")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clk := simclock.New()
			rng := rand.New(rand.NewSource(int64(w)))
			base := int64(w) * 1_000_000
			ver := make([]int, perWorker) // last committed version of each own key
			fail := func(format string, a ...any) {
				errs <- fmt.Errorf("worker %d: "+format, append([]any{w}, a...)...)
			}
			for i := range perWorker {
				k := base + int64(i)
				tx := e.Begin(clk)
				if err := tx.Insert(tr, k, cxlVal(k, 0)); err != nil {
					fail("insert %d: %v", k, err)
					return
				}
				j := rng.Intn(i + 1)
				upd := rng.Intn(3) == 0
				if upd {
					if err := tx.Update(tr, base+int64(j), cxlVal(base+int64(j), ver[j]+1)); err != nil {
						fail("update %d: %v", base+int64(j), err)
						return
					}
				}
				if err := tx.Commit(); err != nil {
					fail("commit: %v", err)
					return
				}
				if upd {
					ver[j]++
				}

				j = rng.Intn(i + 1)
				rt := e.Begin(clk)
				v, err := rt.Get(tr, base+int64(j))
				if err != nil {
					fail("get %d: %v", base+int64(j), err)
					return
				}
				if err := rt.Commit(); err != nil {
					fail("read-only commit: %v", err)
					return
				}
				if want := cxlVal(base+int64(j), ver[j]); !bytes.Equal(v, want) {
					fail("get %d = %q, want %q", base+int64(j), v, want)
					return
				}

				if i%25 == 24 {
					kvs, err := tr.Scan(clk, int64(rng.Intn(workers))*1_000_000, 200)
					if err != nil {
						fail("scan: %v", err)
						return
					}
					for _, kv := range kvs {
						var key int64
						var v int
						if _, err := fmt.Sscanf(string(kv.Val), "k%d-v%d-", &key, &v); err != nil ||
							key != kv.Key || !bytes.Equal(kv.Val, cxlVal(key, v)) {
							fail("scan: key %d holds %q", kv.Key, kv.Val)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := tr.Validate(clk); err != nil {
		t.Fatal(err)
	}
	if n, err := tr.Count(clk); err != nil || n != workers*perWorker {
		t.Fatalf("Count = %d, %v; want %d", n, err, workers*perWorker)
	}
	if st := pool.Stats(); st.Evictions == 0 {
		t.Fatalf("the pool never evicted a frame: %+v", st)
	}
	if st := cache.Stats(); st.Misses <= cacheBytes/simcpu.LineSize {
		t.Fatalf("the CPU cache never evicted a line: %+v", st)
	}
}
