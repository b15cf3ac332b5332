package conformance

import (
	"bytes"
	"encoding/binary"
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

// TestLoadStoreMatchReadWrite: on every pool, Load and Store are ReadAt and
// WriteAt of the same span, whether or not the frame is held. Two identical
// rigs run the same accesses, one through each pair of methods (every other
// Load or Store inside a Hold), and must agree after every access on the
// bytes, the clock advance, the pool and CPU-cache statistics and every
// observed counter.
func TestLoadStoreMatchReadWrite(t *testing.T) {
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			words, spans := b.build(t), b.build(t)
			wreg, sreg := obs.New(obs.Options{}), obs.New(obs.Options{})
			words.setObs(wreg)
			spans.setObs(sreg)
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
			// held runs every other word access inside a hold of f; the
			// comparison runs after the Unhold, since the CPU cache's Stats
			// waits for its lock.
			accesses := 0
			held := func(f buffer.Frame, access func() error) error {
				if accesses++; accesses%2 == 0 {
					f.Hold()
					defer f.Unhold()
				}
				return access()
			}
			load := func(wf, sf buffer.Frame) {
				t.Helper()
				for _, a := range wordAccesses {
					w0, s0 := wclk.Now(), sclk.Now()
					var v uint64
					err := held(wf, func() (err error) {
						v, err = wf.Load(a.off, a.n)
						return err
					})
					if err != nil {
						t.Fatal(err)
					}
					buf := make([]byte, a.n)
					if err := sf.ReadAt(a.off, buf); err != nil {
						t.Fatal(err)
					}
					var want [8]byte
					copy(want[:], buf)
					if v != binary.LittleEndian.Uint64(want[:]) {
						t.Fatalf("Load(%d, %d) = %#x, ReadAt read % x", a.off, a.n, v, buf)
					}
					same("load", w0, s0)
				}
			}

			wf, sf := get(buffer.Write)
			load(wf, sf)
			for i, a := range wordAccesses {
				v := 0x0102030405060708 * uint64(i+1)
				var data [8]byte
				binary.LittleEndian.PutUint64(data[:], v)
				w0, s0 := wclk.Now(), sclk.Now()
				if err := held(wf, func() error { return wf.Store(a.off, a.n, v) }); err != nil {
					t.Fatal(err)
				}
				if err := sf.WriteAt(a.off, data[:a.n]); err != nil {
					t.Fatal(err)
				}
				same("store", w0, s0)
			}
			load(wf, sf)
			wf.MarkDirty()
			sf.MarkDirty()
			w0, s0 := wclk.Now(), sclk.Now()
			release(t, wf)
			release(t, sf)
			same("release", w0, s0)

			wf, sf = get(buffer.Read)
			load(wf, sf)
			wimg, simg := make([]byte, page.Size), make([]byte, page.Size)
			if err := wf.ReadAt(0, wimg); err != nil {
				t.Fatal(err)
			}
			if err := sf.ReadAt(0, simg); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wimg, simg) {
				t.Fatal("page images differ after the same stores")
			}
			if _, err := wf.Load(page.Size-2, 8); err == nil {
				t.Fatal("Load past the page end accepted")
			}
			if err := sf.ReadAt(page.Size-2, make([]byte, 8)); err == nil {
				t.Fatal("ReadAt past the page end accepted")
			}
			if err := wf.Store(0, 2, 1); err == nil {
				t.Fatal("Store under a read latch accepted")
			}
			release(t, wf)
			release(t, sf)
			words.setObs(nil)
			spans.setObs(nil)
		})
	}
}
