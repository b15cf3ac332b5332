package page

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func newPage(t *testing.T, typ uint16) Page {
	t.Helper()
	p := Image(make([]byte, Size))
	if err := p.Init(7, typ, 0); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestInitAndHeader(t *testing.T) {
	p := newPage(t, TypeLeaf)
	id, _ := p.ID()
	if id != 7 {
		t.Fatalf("id = %d", id)
	}
	typ, _ := p.Type()
	if typ != TypeLeaf {
		t.Fatalf("type = %d", typ)
	}
	if n, _ := p.NSlots(); n != 0 {
		t.Fatalf("nslots = %d", n)
	}
	if err := p.SetLSN(99); err != nil {
		t.Fatal(err)
	}
	if lsn, _ := p.LSN(); lsn != 99 {
		t.Fatalf("lsn = %d", lsn)
	}
	if err := p.SetRightSibling(123); err != nil {
		t.Fatal(err)
	}
	if rs, _ := p.RightSibling(); rs != 123 {
		t.Fatalf("rightsib = %d", rs)
	}
	if err := p.SetAux(5); err != nil {
		t.Fatal(err)
	}
	if aux, _ := p.Aux(); aux != 5 {
		t.Fatalf("aux = %d", aux)
	}
	free, _ := p.FreeSpace()
	if free != Size-HeaderSize {
		t.Fatalf("free = %d", free)
	}
}

func TestInsertFindOrdered(t *testing.T) {
	p := newPage(t, TypeLeaf)
	keys := []int64{50, 10, 30, 20, 40}
	for _, k := range keys {
		if err := p.Insert(k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	// Keys must come back sorted.
	n, _ := p.NSlots()
	if n != 5 {
		t.Fatalf("nslots = %d", n)
	}
	var got []int64
	p.Scan(func(k int64, v []byte) bool {
		got = append(got, k)
		if string(v) != fmt.Sprintf("v%d", k) {
			t.Fatalf("key %d has value %q", k, v)
		}
		return true
	})
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("scan order %v", got)
	}
	v, err := p.Find(30)
	if err != nil || string(v) != "v30" {
		t.Fatalf("Find(30) = %q, %v", v, err)
	}
	if _, err := p.Find(31); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Find(31) err = %v", err)
	}
}

func TestDuplicateKeyRejected(t *testing.T) {
	p := newPage(t, TypeLeaf)
	if err := p.Insert(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(1, []byte("b")); err == nil {
		t.Fatal("duplicate insert accepted")
	}
}

func TestDeleteAndGarbage(t *testing.T) {
	p := newPage(t, TypeLeaf)
	for k := int64(0); k < 10; k++ {
		if err := p.Insert(k, []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
	if _, err := p.Find(3); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted key still found")
	}
	g, _ := p.Garbage()
	if g != 18 { // 8-byte key + 10-byte value
		t.Fatalf("garbage = %d, want 18", g)
	}
	if n, _ := p.NSlots(); n != 9 {
		t.Fatalf("nslots = %d", n)
	}
	// Remaining keys still found.
	for _, k := range []int64{0, 1, 2, 4, 9} {
		if _, err := p.Find(k); err != nil {
			t.Fatalf("Find(%d) after delete: %v", k, err)
		}
	}
}

func TestUpdateInPlaceAndResize(t *testing.T) {
	p := newPage(t, TypeLeaf)
	if err := p.Insert(5, []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := p.Update(5, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	v, _ := p.Find(5)
	if string(v) != "bbbb" {
		t.Fatalf("after in-place update: %q", v)
	}
	if err := p.Update(5, []byte("longer-value")); err != nil {
		t.Fatal(err)
	}
	v, _ = p.Find(5)
	if string(v) != "longer-value" {
		t.Fatalf("after resize update: %q", v)
	}
	if err := p.Update(404, []byte("x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing key err = %v", err)
	}
}

func TestFillCompactRecoversGarbage(t *testing.T) {
	p := newPage(t, TypeLeaf)
	val := make([]byte, 100)
	var inserted []int64
	for k := int64(0); ; k++ {
		if err := p.Insert(k, val); err != nil {
			if !errors.Is(err, ErrPageFull) {
				t.Fatal(err)
			}
			break
		}
		inserted = append(inserted, k)
	}
	if len(inserted) < 100 {
		t.Fatalf("only %d 108-byte records fit in a 16KB page", len(inserted))
	}
	// Delete half, then inserts must succeed again via compaction.
	for i, k := range inserted {
		if i%2 == 0 {
			if err := p.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	refill := 0
	for k := int64(100000); ; k++ {
		if err := p.Insert(k, val); err != nil {
			break
		}
		refill++
	}
	if refill < len(inserted)/2-1 {
		t.Fatalf("compaction recovered only %d slots of ~%d", refill, len(inserted)/2)
	}
	// Survivors intact after compaction.
	for i, k := range inserted {
		if i%2 == 1 {
			if _, err := p.Find(k); err != nil {
				t.Fatalf("survivor %d lost after compaction: %v", k, err)
			}
		}
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	p := newPage(t, TypeLeaf)
	if err := p.Insert(1, make([]byte, Size)); err == nil {
		t.Fatal("page-sized record accepted")
	}
}

func TestLowerBound(t *testing.T) {
	p := newPage(t, TypeInternal)
	for _, k := range []int64{10, 20, 30} {
		if err := p.Insert(k, []byte("12345678")); err != nil {
			t.Fatal(err)
		}
	}
	cases := map[int64]int{5: 0, 10: 0, 15: 1, 20: 1, 30: 2, 35: 3}
	for key, want := range cases {
		got, err := p.LowerBound(key)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("LowerBound(%d) = %d, want %d", key, got, want)
		}
	}
}

func TestChecksumRoundTrip(t *testing.T) {
	img := make([]byte, Size)
	for i := range img {
		img[i] = byte(i * 31)
	}
	StampChecksum(img)
	if !VerifyChecksum(img) {
		t.Fatal("freshly stamped checksum fails")
	}
	img[5000] ^= 0xFF
	if VerifyChecksum(img) {
		t.Fatal("corruption not detected")
	}
}

func TestRawAccessors(t *testing.T) {
	img := make([]byte, Size)
	p := Image(img)
	p.Init(42, TypeLeaf, 0)
	p.SetLSN(777)
	if RawID(img) != 42 || RawLSN(img) != 777 {
		t.Fatalf("raw id/lsn = %d/%d", RawID(img), RawLSN(img))
	}
}

func TestPageModelProperty(t *testing.T) {
	// Property: a page behaves like a sorted map under random
	// insert/delete/update sequences.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Image(make([]byte, Size))
		if err := p.Init(1, TypeLeaf, 0); err != nil {
			return false
		}
		model := map[int64][]byte{}
		for op := 0; op < 300; op++ {
			k := int64(rng.Intn(200))
			switch rng.Intn(3) {
			case 0:
				v := make([]byte, 8+rng.Intn(40))
				rng.Read(v)
				err := p.Insert(k, v)
				if _, exists := model[k]; exists {
					if err == nil {
						return false // duplicate accepted
					}
				} else if err == nil {
					model[k] = v
				} else if !errors.Is(err, ErrPageFull) {
					return false
				}
			case 1:
				err := p.Delete(k)
				if _, exists := model[k]; exists {
					if err != nil {
						return false
					}
					delete(model, k)
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			case 2:
				v := make([]byte, 8+rng.Intn(40))
				rng.Read(v)
				err := p.Update(k, v)
				if _, exists := model[k]; exists {
					if err == nil {
						model[k] = v
					} else if !errors.Is(err, ErrPageFull) {
						return false
					}
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			}
		}
		// Full comparison.
		n, err := p.NSlots()
		if err != nil || n != len(model) {
			return false
		}
		ok := true
		p.Scan(func(k int64, v []byte) bool {
			want, exists := model[k]
			if !exists || !bytes.Equal(v, want) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestImageBounds(t *testing.T) {
	a := Image(make([]byte, Size))
	if err := a.ReadAt(Size-4, make([]byte, 8)); err == nil {
		t.Fatal("overflow read accepted")
	}
	if err := a.WriteAt(-1, []byte{1}); err == nil {
		t.Fatal("negative write accepted")
	}
}
