package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"polarcxlmem/internal/simclock"
)

// TestTruncatePrefixProperty: under any random interleaving of appends,
// flushes and truncations, the store behaves like a log with a monotone
// truncation point —
//
//   - every LSN at or above the truncation point is readable, in order,
//     dense up to the durable LSN;
//   - every scan starting below the truncation point fails with the typed
//     ErrTruncated (and touches no records);
//   - the truncation point only ever moves up, even when TruncateBefore is
//     called with a lower LSN than a previous call.
func TestTruncatePrefixProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		store := NewStore(0, 0)
		log := Attach(store)
		clk := simclock.New()
		var appended uint64
		for op := 0; op < 300; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // append
				log.Append(Record{Kind: KInsert, Page: uint64(rng.Intn(50))})
				appended++
			case 5, 6: // flush
				log.Flush(clk)
			default: // truncate at a random LSN — below, inside, or above the
				// already-truncated range (TruncateBefore must tolerate all)
				cut := uint64(rng.Int63n(int64(appended) + 2))
				log.TruncateBefore(cut)
			}
			tb := store.TruncatedBefore()
			if tb < 1 {
				return false // truncation point below the first LSN ever
			}
			// Scan from the truncation point: dense, ascending, ending at the
			// durable LSN (or empty when everything durable was truncated).
			want := tb
			ok := true
			if err := store.Iterate(tb, func(r *Record) bool {
				if r.LSN != want {
					ok = false
					return false
				}
				want++
				return true
			}); err != nil || !ok {
				return false
			}
			if d := store.DurableLSN(); d >= tb && want != d+1 {
				return false // surviving tail not dense up to durable
			}
			// Scan from below the truncation point: typed error, no records.
			if tb > 1 {
				below := uint64(1 + rng.Int63n(int64(tb)-1))
				touched := false
				err := store.Iterate(below, func(*Record) bool { touched = true; return true })
				if !errors.Is(err, ErrTruncated) || touched {
					return false
				}
				if _, err := store.BytesFrom(below); !errors.Is(err, ErrTruncated) {
					return false
				}
			}
			// Monotonicity: re-truncating at 0/1 must not move the point down.
			log.TruncateBefore(1)
			if store.TruncatedBefore() != tb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentTruncateAndAppend exercises TruncateBefore racing appends,
// flushes, and scans across 8 goroutines (run with -race). Invariants are
// the weak ones that survive true concurrency: the truncation point is
// monotone, scans from at-or-above the observed truncation point never see
// an LSN below it, and scans from below it get ErrTruncated.
func TestConcurrentTruncateAndAppend(t *testing.T) {
	store := NewStore(0, 0)
	log := Attach(store)
	const workers, per = 8, 150
	var maxCut atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			clk := simclock.New()
			var lastTB uint64
			for i := 0; i < per; i++ {
				switch rng.Intn(4) {
				case 0:
					log.Append(Record{Kind: KInsert, Page: uint64(w)})
				case 1:
					log.Flush(clk)
				case 2:
					d := store.DurableLSN()
					if d == 0 {
						continue
					}
					cut := 1 + uint64(rng.Int63n(int64(d)))
					// Track the highest cut ever requested; the store's point
					// must end at least this high.
					for {
						cur := maxCut.Load()
						if cut <= cur || maxCut.CompareAndSwap(cur, cut) {
							break
						}
					}
					log.TruncateBefore(cut)
				default:
					tb := store.TruncatedBefore()
					if tb < lastTB {
						errs <- errors.New("truncation point moved down")
						return
					}
					lastTB = tb
					if err := store.Iterate(tb, func(r *Record) bool {
						if r.LSN < tb {
							errs <- errors.New("scan returned record below its from-LSN")
							return false
						}
						return true
					}); err != nil && !errors.Is(err, ErrTruncated) {
						// A concurrent truncation may outrun the tb we read;
						// any other error is a bug.
						errs <- err
						return
					}
					if tb > 1 {
						if err := store.Iterate(tb-1, func(*Record) bool { return true }); !errors.Is(err, ErrTruncated) {
							errs <- errors.New("scan below truncation point did not return ErrTruncated")
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if tb := store.TruncatedBefore(); tb < maxCut.Load() {
		t.Fatalf("final truncation point %d below highest requested cut %d", tb, maxCut.Load())
	}
}

// TestBytesFromMatchesScan: BytesFrom answers from running sizes, and must
// equal the encoded size summed over Iterate from the same LSN under random
// appends of varying record sizes, flushes and truncations — including
// ErrTruncated below the truncation point and 0 above the durable tail.
func TestBytesFromMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := NewStore(0, 0)
		log := Attach(store)
		clk := simclock.New()
		var appended uint64
		for op := 0; op < 300; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4:
				log.Append(Record{Kind: KUpdate, Page: 1, Value: make([]byte, rng.Intn(300)), Old: make([]byte, rng.Intn(50))})
				appended++
			case 5, 6, 7:
				log.Flush(clk)
			default:
				log.TruncateBefore(uint64(rng.Int63n(int64(appended) + 2)))
			}
			for from := uint64(0); from <= appended+2; from++ {
				var want int64
				werr := store.Iterate(from, func(r *Record) bool {
					want += r.EncodedSize()
					return true
				})
				got, err := store.BytesFrom(from)
				if (err == nil) != (werr == nil) || (err != nil && !errors.Is(err, ErrTruncated)) {
					t.Fatalf("seed %d op %d: BytesFrom(%d) error %v, Iterate %v", seed, op, from, err, werr)
				}
				if err == nil && got != want {
					t.Fatalf("seed %d op %d: BytesFrom(%d) = %d, scan sums %d", seed, op, from, got, want)
				}
			}
		}
	}
}

// TestPersistAfterTruncateAllocatesNothing: TruncateBefore keeps the
// durable tail's backing arrays, so persisting after a truncation appends in
// place while capacity remains instead of regrowing a fresh copy.
func TestPersistAfterTruncateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	store := NewStore(0, 0)
	clk := simclock.New()
	var lsn uint64
	batch := func() []Record {
		recs := make([]Record, 4)
		for i := range recs {
			lsn++
			recs[i] = Record{LSN: lsn, Kind: KInsert, Page: lsn}
		}
		return recs
	}
	// Grow the tail until both arrays have room for 16 more batches.
	for cap(store.records)-len(store.records) < 64 || cap(store.ends)-len(store.ends) < 64 {
		store.persist(clk, batch())
	}
	store.TruncateBefore(lsn - 7) // keep the last 8 records
	batches := make([][]Record, 16)
	for i := range batches {
		batches[i] = batch()
	}
	next := 0
	// AllocsPerRun makes one warm-up call, then the measured one: each
	// persists half the batches.
	if allocs := testing.AllocsPerRun(1, func() {
		for _, b := range batches[next : next+8] {
			store.persist(clk, b)
		}
		next += 8
	}); allocs != 0 {
		t.Fatalf("8 persists after TruncateBefore allocated %.0f times, want 0", allocs)
	}
}

// TestIterateSnapshotSurvivesTruncateAndPersist: a scan that took its
// snapshot before a truncation keeps reading its own records, in order and
// unchanged, while the truncation and further persists run concurrently.
func TestIterateSnapshotSurvivesTruncateAndPersist(t *testing.T) {
	store := NewStore(0, 0)
	clk := simclock.New()
	var lsn uint64
	persist := func(n int) {
		recs := make([]Record, n)
		for i := range recs {
			lsn++
			recs[i] = Record{LSN: lsn, Kind: KInsert, Page: lsn}
		}
		store.persist(clk, recs)
	}
	persist(200)
	started, resume := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		want := uint64(1)
		err := store.Iterate(1, func(r *Record) bool {
			if want == 1 {
				close(started)
				<-resume
			}
			if r.LSN != want || r.Page != want {
				done <- fmt.Errorf("snapshot record %d = LSN %d page %d", want, r.LSN, r.Page)
				return false
			}
			want++
			return true
		})
		if err == nil && want != 201 {
			err = fmt.Errorf("snapshot ended at LSN %d, want 200", want-1)
		}
		done <- err
	}()
	<-started
	store.TruncateBefore(150)
	for i := 0; i < 20; i++ {
		persist(10)
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := store.Iterate(150, func(*Record) bool { return true }); err != nil {
		t.Fatalf("scan from the truncation point: %v", err)
	}
}

// TestMaxUnitMatchesScan: under random persists — unit ids in no order,
// control records with no unit — and truncations, including ones past every
// record, MaxUnit equals the largest unit id a scan of the readable records
// finds. The log grows long enough that some truncations are bulk cuts,
// which copy the tail.
func TestMaxUnitMatchesScan(t *testing.T) {
	kinds := []Kind{KInsert, KUpdate, KTxnCommit, KMTRCommit, KCheckpoint}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := NewStore(0, 0)
		clk := simclock.New()
		var lsn uint64
		for op := 0; op < 400; op++ {
			switch rng.Intn(8) {
			case 0, 1, 2, 3, 4:
				recs := make([]Record, 1+rng.Intn(40))
				for i := range recs {
					lsn++
					recs[i] = Record{LSN: lsn, Kind: kinds[rng.Intn(len(kinds))], Txn: uint64(rng.Intn(60))}
					if recs[i].Kind == KCheckpoint {
						recs[i].Txn = 0
					}
				}
				store.persist(clk, recs)
			case 5, 6:
				store.TruncateBefore(uint64(rng.Int63n(int64(lsn) + 2)))
			default:
				store.TruncateBefore(lsn + 1 + uint64(rng.Intn(3)))
			}
			var want uint64
			if err := store.Iterate(store.TruncatedBefore(), func(r *Record) bool {
				want = max(want, r.Txn)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if got := store.MaxUnit(); got != want {
				t.Fatalf("seed %d op %d: MaxUnit %d, scan of the readable records %d", seed, op, got, want)
			}
		}
	}
}

// TestTruncateCompactsBulkCut: a truncation that drops compactMin records
// or more, and at least a quarter of the tail it keeps, copies the tail to
// an array of its own size, while a scan that took its snapshot before
// keeps reading the old one; a smaller cut, absolutely or against the
// tail, only reslices.
func TestTruncateCompactsBulkCut(t *testing.T) {
	const n = 6 * compactMin
	store := NewStore(0, 0)
	clk := simclock.New()
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{LSN: uint64(i) + 1, Kind: KInsert, Txn: uint64(i%7) + 1}
	}
	store.persist(clk, recs)
	c0 := cap(store.records)
	store.TruncateBefore(50)
	if c := cap(store.records); c != c0-49 {
		t.Fatalf("a cut of 49 records copied the tail (cap %d, want %d)", c, c0-49)
	}
	store.TruncateBefore(compactMin + 50) // a tail of more than 4 × compactMin
	if c := cap(store.records); c != c0-49-compactMin {
		t.Fatalf("a cut of under a quarter of the tail copied it (cap %d, want %d)", c, c0-49-compactMin)
	}
	started, resume, done := make(chan struct{}), make(chan struct{}), make(chan uint64)
	go func() {
		var last uint64
		store.Iterate(compactMin+50, func(r *Record) bool {
			if last == 0 {
				close(started)
				<-resume
			}
			last = r.LSN
			return true
		})
		done <- last
	}()
	<-started
	store.TruncateBefore(n - 9) // leaves 10 records
	close(resume)
	if last := <-done; last != n {
		t.Fatalf("snapshot scan ended at LSN %d, want %d", last, n)
	}
	if len(store.records) != 10 || cap(store.records) > 16 || cap(store.ends) > 16 {
		t.Fatalf("tail of %d records kept in an array of %d", len(store.records), cap(store.records))
	}
	if got, want := store.MaxUnit(), uint64(7); got != want {
		t.Fatalf("MaxUnit after compaction = %d, want %d", got, want)
	}
	if b, err := store.BytesFrom(n - 9); err != nil || b != 10*recs[0].EncodedSize() {
		t.Fatalf("BytesFrom after compaction = %d, %v", b, err)
	}
}
