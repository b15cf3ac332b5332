package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"polarcxlmem/internal/btree"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/txn"
)

// TestCrashRecoveryProperty is the end-to-end durability property: under a
// randomized workload with randomized crash points, PolarRecv must always
// restore exactly the committed state — every committed transaction's
// effects present, every uncommitted transaction's effects absent, B+tree
// structurally valid — across REPEATED crash/recover cycles on the same
// surviving CXL region.
func TestCrashRecoveryProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runCrashCycle(t, seed)
		})
	}
}

func runCrashCycle(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r := newCXLRig(t, 512)
	eng := r.eng
	clk := r.clk
	tr, err := eng.CreateTable(clk, "t")
	if err != nil {
		t.Fatal(err)
	}

	// The shadow model tracks COMMITTED state only.
	committed := map[int64][]byte{}

	// Initial committed load.
	tx := eng.Begin(clk)
	for k := int64(0); k < 300; k++ {
		v := randVal(rng)
		if err := tx.Insert(tr, k, v); err != nil {
			t.Fatal(err)
		}
		committed[k] = v
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(clk); err != nil {
		t.Fatal(err)
	}

	const cycles = 3
	for cycle := 0; cycle < cycles; cycle++ {
		// Committed transactions.
		nCommitted := 2 + rng.Intn(4)
		for i := 0; i < nCommitted; i++ {
			pending := map[int64][]byte{}
			deleted := map[int64]bool{}
			tx := eng.Begin(clk)
			for s := 0; s < 1+rng.Intn(8); s++ {
				k := rng.Int63n(800)
				switch rng.Intn(3) {
				case 0:
					v := randVal(rng)
					err := tx.Insert(tr, k, v)
					if err == nil {
						pending[k] = v
						delete(deleted, k)
					} else if !errors.Is(err, btree.ErrDuplicateKey) {
						t.Fatal(err)
					}
				case 1:
					v := randVal(rng)
					err := tx.Update(tr, k, v)
					if err == nil {
						pending[k] = v
					} else if !errors.Is(err, btree.ErrKeyNotFound) {
						t.Fatal(err)
					}
				case 2:
					err := tx.Delete(tr, k)
					if err == nil {
						deleted[k] = true
						delete(pending, k)
					} else if !errors.Is(err, btree.ErrKeyNotFound) {
						t.Fatal(err)
					}
				}
			}
			if rng.Intn(4) == 0 { // explicit rollback: no state change
				if err := tx.Rollback(); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				for k, v := range pending {
					committed[k] = v
				}
				for k := range deleted {
					delete(committed, k)
				}
			}
		}
		// Maybe a mid-run checkpoint.
		if rng.Intn(2) == 0 {
			if err := eng.Checkpoint(clk); err != nil {
				t.Fatal(err)
			}
		}
		// An in-flight transaction that dies with the host. Randomly force
		// part of its redo durable via an unrelated commit (the group-commit
		// hazard) so undo paths get exercised too.
		tIn := eng.Begin(clk)
		for s := 0; s < rng.Intn(6); s++ {
			k := rng.Int63n(800)
			switch rng.Intn(3) {
			case 0:
				err := tIn.Insert(tr, k, randVal(rng))
				if err != nil && !errors.Is(err, btree.ErrDuplicateKey) {
					t.Fatal(err)
				}
			case 1:
				err := tIn.Update(tr, k, randVal(rng))
				if err != nil && !errors.Is(err, btree.ErrKeyNotFound) {
					t.Fatal(err)
				}
			case 2:
				err := tIn.Delete(tr, k)
				if err != nil && !errors.Is(err, btree.ErrKeyNotFound) {
					t.Fatal(err)
				}
			}
		}
		if rng.Intn(2) == 0 {
			// Unrelated committed txn group-flushes the in-flight records.
			tOther := eng.Begin(clk)
			if err := tOther.Update(tr, 0, committed[0]); err != nil && !errors.Is(err, btree.ErrKeyNotFound) {
				t.Fatal(err)
			}
			if err := tOther.Commit(); err != nil {
				t.Fatal(err)
			}
		}

		// CRASH + PolarRecv.
		_, eng2, res := r.crashAndRecover(t)
		eng = eng2
		clk = simclock.NewAt(res.DoneNanos)
		r.eng = eng
		r.clk = clk
		tr, err = eng.Table(clk, "t")
		if err != nil {
			t.Fatalf("cycle %d: reopen table: %v", cycle, err)
		}
		// Full verification against the shadow model.
		if err := tr.Validate(clk); err != nil {
			t.Fatalf("cycle %d: tree invalid after recovery: %v", cycle, err)
		}
		cnt, err := tr.Count(clk)
		if err != nil {
			t.Fatal(err)
		}
		if cnt != len(committed) {
			t.Fatalf("cycle %d: %d records after recovery, shadow has %d", cycle, cnt, len(committed))
		}
		for k, want := range committed {
			got, err := tr.Get(clk, k)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("cycle %d: Get(%d) = %q, %v; want %q", cycle, k, got, err, want)
			}
		}
	}
}

func randVal(rng *rand.Rand) []byte {
	v := make([]byte, 12+rng.Intn(80))
	rng.Read(v)
	return v
}

// TestRecoveryIsRepeatable exercises crash-during-recovery: PolarRecv runs,
// then the host "crashes again" before serving traffic, and a second
// PolarRecv over the same region must converge to the same state.
func TestRecoveryIsRepeatable(t *testing.T) {
	r := newCXLRig(t, 128)
	tr, _ := r.eng.CreateTable(r.clk, "t")
	tx := r.eng.Begin(r.clk)
	for k := int64(0); k < 100; k++ {
		tx.Insert(tr, k, val(k))
	}
	tx.Commit()
	r.eng.Checkpoint(r.clk)
	// In-flight update, crash.
	tx2 := r.eng.Begin(r.clk)
	tx2.Update(tr, 10, []byte("DOOMED----------"))

	pool2, _, res1 := r.crashAndRecover(t)
	// Immediately crash again without any new work.
	pool2.Crash()
	clk3 := simclock.NewAt(res1.DoneNanos)
	host3, err := r.topo.AttachHost("h0", 0)
	if err != nil {
		t.Fatal(err)
	}
	region3, err := host3.Reattach(clk3, "db0")
	if err != nil {
		t.Fatal(err)
	}
	_, eng3, res2, err := PolarRecv(clk3, host3, region3, host3.NewCache("db0", 4<<20), r.ws, r.store, nil)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	checkRedo(t, res2)
	// Second recovery of an already-clean pool must rebuild nothing...
	if res2.PagesRebuilt > res1.PagesRebuilt {
		t.Fatalf("second recovery rebuilt more (%d) than the first (%d)", res2.PagesRebuilt, res1.PagesRebuilt)
	}
	// ... and the data must still be exactly the committed state.
	tr3, err := eng3.Table(clk3, "t")
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 100; k++ {
		v, err := tr3.Get(clk3, k)
		if err != nil || !bytes.Equal(v, val(k)) {
			t.Fatalf("Get(%d) after double recovery = %q, %v", k, v, err)
		}
	}
	if err := tr3.Validate(clk3); err != nil {
		t.Fatal(err)
	}
	_ = txn.CatalogMetaID
}

// TestCrashPointFuzz injects a crash at a RANDOM protocol step — an LRU
// splice, a lock-word persist, a pre-unlock flush — somewhere inside a
// random workload, then requires PolarRecv to restore exactly the committed
// state. This sweeps the crash surface the targeted tests cover point by
// point.
func TestCrashPointFuzz(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 977))
			r := newCXLRig(t, 256)
			tr, err := r.eng.CreateTable(r.clk, "t")
			if err != nil {
				t.Fatal(err)
			}
			committed := map[int64][]byte{}
			tx := r.eng.Begin(r.clk)
			for k := int64(0); k < 150; k++ {
				v := randVal(rng)
				if err := tx.Insert(tr, k, v); err != nil {
					t.Fatal(err)
				}
				committed[k] = v
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := r.eng.Checkpoint(r.clk); err != nil {
				t.Fatal(err)
			}

			// Arm the crash: the Nth pool protocol step from now fails.
			countdown := 1 + rng.Intn(400)
			boom := errors.New("fuzzed crash")
			r.pool.SetHook(func(step string) error {
				countdown--
				if countdown <= 0 {
					return boom
				}
				return nil
			})

			// Random committed transactions until the crash fires.
			crashed := false
			for round := 0; round < 500 && !crashed; round++ {
				pending := map[int64][]byte{}
				pendingDel := map[int64]bool{}
				tx := r.eng.Begin(r.clk)
				failed := false
				for s := 0; s < 1+rng.Intn(5); s++ {
					k := rng.Int63n(400)
					var oerr error
					switch rng.Intn(3) {
					case 0:
						v := randVal(rng)
						oerr = tx.Insert(tr, k, v)
						if oerr == nil {
							pending[k] = v
							delete(pendingDel, k)
						}
					case 1:
						v := randVal(rng)
						oerr = tx.Update(tr, k, v)
						if oerr == nil {
							pending[k] = v
						}
					case 2:
						oerr = tx.Delete(tr, k)
						if oerr == nil {
							pendingDel[k] = true
							delete(pending, k)
						}
					}
					if errors.Is(oerr, boom) {
						crashed = true
						failed = true
						break
					}
					if oerr != nil && !errors.Is(oerr, btree.ErrKeyNotFound) && !errors.Is(oerr, btree.ErrDuplicateKey) {
						t.Fatalf("round %d: %v", round, oerr)
					}
				}
				if failed {
					break // txn dies with the host
				}
				if err := tx.Commit(); err != nil {
					if errors.Is(err, boom) {
						crashed = true
						break
					}
					t.Fatal(err)
				}
				for k, v := range pending {
					committed[k] = v
				}
				for k := range pendingDel {
					delete(committed, k)
				}
			}
			if !crashed {
				t.Fatalf("crash hook never fired (countdown %d left)", countdown)
			}

			_, eng2, _ := r.crashAndRecover(t)
			clk := simclock.NewAt(r.clk.Now())
			tr2, err := eng2.Table(clk, "t")
			if err != nil {
				t.Fatal(err)
			}
			if err := tr2.Validate(clk); err != nil {
				t.Fatalf("tree invalid after fuzzed crash: %v", err)
			}
			n, err := tr2.Count(clk)
			if err != nil || n != len(committed) {
				t.Fatalf("count %d vs shadow %d (%v)", n, len(committed), err)
			}
			for k, want := range committed {
				got, err := tr2.Get(clk, k)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("Get(%d) = %q, %v", k, got, err)
				}
			}
		})
	}
}
