package conformance

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"testing"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
)

// wordAccess is one word-sized access: n bytes at page offset off.
type wordAccess struct{ off, n int }

// wordAccesses covers header fields, a slot-directory entry at the page
// end, and words that straddle a cache line.
var wordAccesses = []wordAccess{
	{8, 8},              // page LSN
	{18, 2},             // slot count
	{payloadOff, 1},     // a single byte
	{60, 8},             // straddles the first line boundary
	{126, 4},            // straddles the second
	{page.Size - 4, 4},  // the first slot
	{page.Size - 8, 8},  // ends at the page end
	{page.Size / 2, 0},  // an empty word
	{page.Size - 70, 8}, // straddles a line near the end
}

// TestLoadStoreMatchReadWrite: on every pool, a page visit's Load and
// Store are ReadAt and WriteAt of the same span, however the accesses are
// cut into visits. Two identical rigs run the same accesses, one through
// each pair of methods, and must agree on the bytes, the clock advance, the
// pool and CPU-cache statistics and every observed counter: after every
// access when each access has a visit of its own, and after the pass when
// the word rig runs a whole pass in one visit. The comparisons run between
// visits, since the CPU cache's Stats waits for the lock a visit may hold.
func TestLoadStoreMatchReadWrite(t *testing.T) {
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			wreg, sreg := obs.New(obs.Options{}), obs.New(obs.Options{})
			words, spans := b.build(t, wreg), b.build(t, sreg)
			wid, sid := seedPage(t, words.store, 7, 0x5A), seedPage(t, spans.store, 7, 0x5A)
			wclk, sclk := simclock.New(), simclock.New()

			same := func(what string, w0, s0 int64) {
				t.Helper()
				if dw, ds := wclk.Now()-w0, sclk.Now()-s0; dw != ds {
					t.Fatalf("%s: Load/Store advanced the clock %d ns, ReadAt/WriteAt %d ns", what, dw, ds)
				}
				if ws, ss := words.pool.Stats(), spans.pool.Stats(); ws != ss {
					t.Fatalf("%s: pool stats %+v, want %+v", what, ws, ss)
				}
				if words.cache != nil && words.cache.Stats() != spans.cache.Stats() {
					t.Fatalf("%s: cache stats %+v, want %+v", what, words.cache.Stats(), spans.cache.Stats())
				}
				if wc, sc := wreg.Snapshot().Counters, sreg.Snapshot().Counters; !maps.Equal(wc, sc) {
					t.Fatalf("%s: counters %v, want %v", what, wc, sc)
				}
			}
			get := func(mode buffer.Mode) (buffer.Frame, buffer.Frame) {
				t.Helper()
				wf, err := words.pool.Get(wclk, wid, mode)
				if err != nil {
					t.Fatal(err)
				}
				sf, err := spans.pool.Get(sclk, sid, mode)
				if err != nil {
					t.Fatal(err)
				}
				return wf, sf
			}
			// pass runs one access per wordAccesses entry on each rig: in
			// a visit per access, or, with batched, the word rig's whole
			// pass in one visit.
			pass := func(what string, wf, sf buffer.Frame, batched bool, word, span func(pg page.Page, i int, a wordAccess) error) {
				t.Helper()
				w0, s0 := wclk.Now(), sclk.Now()
				if batched {
					err := buffer.Visit(wf, func(pg page.Page) error {
						for i, a := range wordAccesses {
							if err := word(pg, i, a); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				for i, a := range wordAccesses {
					if !batched {
						w0, s0 = wclk.Now(), sclk.Now()
						if err := buffer.Visit(wf, func(pg page.Page) error { return word(pg, i, a) }); err != nil {
							t.Fatal(err)
						}
					}
					if err := buffer.Visit(sf, func(pg page.Page) error { return span(pg, i, a) }); err != nil {
						t.Fatal(err)
					}
					if !batched {
						same(what, w0, s0)
					}
				}
				if batched {
					same(what+" (one visit)", w0, s0)
				}
			}
			loaded := make([]uint64, len(wordAccesses))
			loadWord := func(pg page.Page, i int, a wordAccess) (err error) {
				loaded[i], err = pg.Load(a.off, a.n)
				return err
			}
			loadSpan := func(pg page.Page, i int, a wordAccess) error {
				buf := make([]byte, a.n)
				if err := pg.ReadAt(a.off, buf); err != nil {
					return err
				}
				var want [8]byte
				copy(want[:], buf)
				if loaded[i] != binary.LittleEndian.Uint64(want[:]) {
					return fmt.Errorf("Load(%d, %d) = %#x, ReadAt read % x", a.off, a.n, loaded[i], buf)
				}
				return nil
			}
			stored := func(i int) uint64 { return 0x0102030405060708 * uint64(i+1) }
			storeWord := func(pg page.Page, i int, a wordAccess) error { return pg.Store(a.off, a.n, stored(i)) }
			storeSpan := func(pg page.Page, i int, a wordAccess) error {
				var data [8]byte
				binary.LittleEndian.PutUint64(data[:], stored(i))
				return pg.WriteAt(a.off, data[:a.n])
			}

			wf, sf := get(buffer.Write)
			pass("load", wf, sf, false, loadWord, loadSpan)
			pass("store", wf, sf, true, storeWord, storeSpan)
			pass("load", wf, sf, true, loadWord, loadSpan)
			pass("store", wf, sf, false, storeWord, storeSpan)
			wf.MarkDirty()
			sf.MarkDirty()
			w0, s0 := wclk.Now(), sclk.Now()
			release(t, wf)
			release(t, sf)
			same("release", w0, s0)

			wf, sf = get(buffer.Read)
			pass("load", wf, sf, true, loadWord, loadSpan)
			pass("load", wf, sf, false, loadWord, loadSpan)
			wimg, simg := make([]byte, page.Size), make([]byte, page.Size)
			if err := readAt(wf, 0, wimg); err != nil {
				t.Fatal(err)
			}
			if err := readAt(sf, 0, simg); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wimg, simg) {
				t.Fatal("page images differ after the same stores")
			}
			err := buffer.Visit(wf, func(pg page.Page) error {
				if _, err := pg.Load(page.Size-2, 8); err == nil {
					return errors.New("Load past the page end accepted")
				}
				if err := pg.ReadAt(page.Size-2, make([]byte, 8)); err == nil {
					return errors.New("ReadAt past the page end accepted")
				}
				if err := pg.Store(0, 2, 1); !errors.Is(err, buffer.ErrReadLatch) {
					return fmt.Errorf("Store under a read latch: %v, want ErrReadLatch", err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			release(t, wf)
			release(t, sf)
		})
	}
}
