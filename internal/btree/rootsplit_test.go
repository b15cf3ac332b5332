package btree

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"polarcxlmem/internal/simclock"
)

// TestGetDuringRootSplit: readers look up the key the writer inserted last
// while the writer's inserts split the root. The newest key sits at the
// right edge, which a root split moves out of the old root, so a reader
// that read the root id before the split and descended from the old root
// afterwards would miss it. Each round is a fresh tree, because a tree's
// root splits only a handful of times.
func TestGetDuringRootSplit(t *testing.T) {
	for round := 0; round < 300; round++ {
		getDuringRootSplit(t)
	}
}

func getDuringRootSplit(t *testing.T) {
	e := newEnv(t, 4096)
	tr := e.tree(t)
	big := func(k int64) []byte { return bytes.Repeat(val(k), 40) }
	if err := tr.Insert(e.clk, e.ids.Next(), 0, big(0)); err != nil {
		t.Fatal(err)
	}
	var last atomic.Int64 // highest key inserted so far
	var wg sync.WaitGroup
	errs := make(chan error, 4) // one per goroutine
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		clk := simclock.New()
		for k := int64(1); k < 60; k++ {
			if err := tr.Insert(clk, e.ids.Next(), k, big(k)); err != nil {
				errs <- err
				return
			}
			last.Store(k)
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clk := simclock.New()
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := last.Load()
				if v, err := tr.Get(clk, k); err != nil || !bytes.Equal(v, big(k)) {
					errs <- fmt.Errorf("Get(%d) = %d bytes, %v", k, len(v), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
