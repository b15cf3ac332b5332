package wal

import (
	"math/rand"
	"testing"
	"testing/quick"

	"polarcxlmem/internal/simclock"
)

// TestDurablePrefixProperty: under any interleaving of appends, flushes and
// crashes (drop the Log, keep the Store), the durable store always holds a
// prefix of the appended sequence, LSNs are dense and ascending, and a
// restarted Log continues the sequence with no gap or overlap.
func TestDurablePrefixProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		store := NewStore(0, 0)
		log := Attach(store)
		clk := simclock.New()
		var appended uint64 // total records ever appended (== last LSN)
		var flushed uint64  // LSN high-water at last flush
		for op := 0; op < 200; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5: // append
				lsn := log.Append(Record{Kind: KInsert, Page: uint64(rng.Intn(50))})
				appended++
				if lsn != appended {
					return false // LSN not dense/ascending
				}
			case 6, 7: // flush
				log.Flush(clk)
				flushed = appended
				if store.DurableLSN() != flushed {
					return false
				}
			default: // crash: buffered tail lost
				log = Attach(store)
				appended = store.DurableLSN()
				flushed = appended
			}
			// Invariant: durable <= appended, and durable records form a
			// dense prefix 1..durable of what was appended before the last
			// crash boundary.
			if store.DurableLSN() > appended {
				return false
			}
		}
		// Iterate must see exactly 1..durableLSN in order.
		want := uint64(1)
		ok := true
		store.Iterate(1, func(r *Record) bool {
			if r.LSN != want {
				ok = false
				return false
			}
			want++
			return true
		})
		return ok && want == store.DurableLSN()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitBatchesCost: flushing N buffered records costs one fsync,
// not N.
func TestGroupCommitBatchesCost(t *testing.T) {
	store := NewStore(0, 0)
	log := Attach(store)
	clk := simclock.New()
	for i := 0; i < 100; i++ {
		log.Append(Record{Kind: KInsert})
	}
	log.Flush(clk)
	grouped := clk.Now()

	store2 := NewStore(0, 0)
	log2 := Attach(store2)
	clk2 := simclock.New()
	for i := 0; i < 100; i++ {
		log2.Append(Record{Kind: KInsert})
		log2.Flush(clk2)
	}
	if grouped*10 >= clk2.Now() {
		t.Fatalf("group commit (%d ns) not ~100x cheaper than per-record flush (%d ns)", grouped, clk2.Now())
	}
}

// TestConcurrentAppendersGetUniqueLSNs exercises the log under real
// goroutine concurrency (run with -race).
func TestConcurrentAppendersGetUniqueLSNs(t *testing.T) {
	store := NewStore(0, 0)
	log := Attach(store)
	const workers, per = 8, 200
	ch := make(chan uint64, workers*per)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < per; i++ {
				ch <- log.Append(Record{Kind: KInsert})
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	close(ch)
	seen := make(map[uint64]bool)
	for lsn := range ch {
		if seen[lsn] {
			t.Fatalf("duplicate LSN %d", lsn)
		}
		seen[lsn] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("%d unique LSNs, want %d", len(seen), workers*per)
	}
	clk := simclock.New()
	log.Flush(clk)
	if store.DurableLSN() != uint64(workers*per) {
		t.Fatalf("durable = %d", store.DurableLSN())
	}
}
