package btree

import (
	"bytes"
	"testing"

	"polarcxlmem/internal/core"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/mtr"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/wal"
)

// newCXLEnv builds a tree environment over a PolarCXLMem pool of nblocks
// blocks, read through a CPU cache of cacheBytes.
func newCXLEnv(t testing.TB, nblocks, cacheBytes int64) *env {
	t.Helper()
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
	pool, err := core.Format(host, region, host.NewCache("db0", cacheBytes), store)
	if err != nil {
		t.Fatal(err)
	}
	return &env{pool: pool, log: wal.Attach(wal.NewStore(0, 0)), ids: &mtr.IDGen{}, clk: clk, store: store}
}

// getAllocs is what one point read of a two-level tree over a CXLPool
// allocates in the steady state: the returned value's copy. Frame handles
// are values, childFor reads the child id as a word, and a page visit
// hands out the pool's own block accessor, so nothing else allocates.
const getAllocs = 1

// TestCXLGetAllocations pins the heap allocations of one Tree.Get over a
// two-level tree on a CXLPool whose pages and cache lines are all resident.
func TestCXLGetAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	e := newCXLEnv(t, 64, 4<<20)
	tr := e.tree(t)
	const rows = 2000
	vals := make([][]byte, rows)
	for k := int64(0); k < rows; k++ {
		vals[k] = val(k)
		if err := tr.Insert(e.clk, e.ids.Next(), k, vals[k]); err != nil {
			t.Fatal(err)
		}
	}
	if h, err := tr.Height(e.clk); err != nil || h < 2 {
		t.Fatalf("Height = %d, %v; want a tree with internal levels", h, err)
	}
	k := int64(0)
	get := func() {
		k = (k + 397) % rows
		v, err := tr.Get(e.clk, k)
		if err != nil || !bytes.Equal(v, vals[k]) {
			t.Fatalf("Get(%d) = %q, %v", k, v, err)
		}
	}
	for range rows {
		get() // warm every page and line
	}
	if n := testing.AllocsPerRun(500, get); n != getAllocs {
		t.Errorf("Get: %v allocations per run, want %d", n, getAllocs)
	}
}
