// Package page implements the 16 KB slotted database page used throughout
// the reproduction.
//
// All page operations go through the Accessor interface rather than a byte
// slice. This is the mechanism behind the paper's central design move: the
// transaction engine "can operate on the data pointer without needing to
// know whether it points to local DRAM or CXL memory" (§3.1). A DRAM frame
// satisfies Accessor with direct memory costs; a PolarCXLMem block satisfies
// it with loads/stores through the simulated CPU cache onto CXL memory; the
// tiered RDMA baseline satisfies it with a local copy that had to be fetched
// at page granularity. Because the B+tree touches only the header fields,
// slots and records it needs, CXL traffic is naturally cache-line-granular —
// no read/write amplification — while the RDMA baseline pays full-page
// transfers. That asymmetry, exercised through identical page code, is what
// the pooling experiments measure.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"polarcxlmem/internal/simclock"
)

// Size is the database page size (16 KB, PolarDB's default).
const Size = 16384

// HeaderSize is the fixed page header length.
const HeaderSize = 48

// Header field offsets.
const (
	offID        = 0  // u64 page id
	offLSN       = 8  // u64 page LSN (latest applied log record)
	offType      = 16 // u16 page type
	offNSlots    = 18 // u16 slot count
	offFreeStart = 20 // u16 next record write offset
	offGarbage   = 22 // u16 dead record bytes (compaction trigger)
	offRightSib  = 24 // u64 right sibling page id (leaf chain)
	offLevel     = 32 // u16 btree level, 0 = leaf
	offFlags     = 34 // u16
	offChecksum  = 36 // u32 crc32 over the rest of the page
	offAux       = 40 // u64 page-type-specific (meta page: root id)
)

// Page types.
const (
	TypeFree     uint16 = 0
	TypeLeaf     uint16 = 1
	TypeInternal uint16 = 2
	TypeMeta     uint16 = 3
)

const slotSize = 4 // u16 record offset + u16 record length

// ErrPageFull reports that an insert does not fit even after compaction.
var ErrPageFull = errors.New("page: full")

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("page: key not found")

// ErrDuplicate reports an insert of an existing key.
var ErrDuplicate = errors.New("page: duplicate key")

// Accessor moves the bytes of a page in its medium and charges the medium's
// access costs to the clock each call names.
//
// Load and Store move one little-endian word of n <= 8 bytes: exactly the
// access, cost and bounds check of ReadAt / WriteAt over the same n bytes.
// They exist so a header field or slot read passes no buffer through the
// interface; an implementation builds the word on its own stack and hands
// it to its own concrete ReadAt / WriteAt, so the word never reaches the
// heap.
type Accessor interface {
	// ReadAt fills buf from page offset off.
	ReadAt(clk *simclock.Clock, off int, buf []byte) error
	// WriteAt stores data at page offset off.
	WriteAt(clk *simclock.Clock, off int, data []byte) error
	// Load reads the n-byte little-endian word at off.
	Load(clk *simclock.Clock, off, n int) (uint64, error)
	// Store writes the low n bytes of v, little-endian, at off.
	Store(clk *simclock.Clock, off, n int, v uint64) error
}

// ErrReadOnly reports a write through a page that was not opened for
// writing (a pool page visited under a read latch).
var ErrReadOnly = errors.New("page: write to a read-only page")

// Page provides slotted-page operations over one visit of a page: the
// accessor that moves its bytes, the clock they charge, and whether the
// visit may write. It is a small value; making one allocates nothing.
type Page struct {
	a   Accessor
	clk *simclock.Clock
	w   bool
}

// Wrap returns a Page over a whose accesses charge clk and which refuses
// writes unless writable. Pool pages reach it only through buffer.Visit.
func Wrap(a Accessor, clk *simclock.Clock, writable bool) Page {
	return Page{a: a, clk: clk, w: writable}
}

// ReadAt fills buf from page offset off.
func (p Page) ReadAt(off int, buf []byte) error { return p.a.ReadAt(p.clk, off, buf) }

// WriteAt stores data at page offset off.
func (p Page) WriteAt(off int, data []byte) error {
	if !p.w {
		return ErrReadOnly
	}
	return p.a.WriteAt(p.clk, off, data)
}

// Load reads the n-byte (n <= 8) little-endian word at off.
func (p Page) Load(off, n int) (uint64, error) { return p.a.Load(p.clk, off, n) }

// Store writes the low n bytes (n <= 8) of v, little-endian, at off.
func (p Page) Store(off, n int, v uint64) error {
	if !p.w {
		return ErrReadOnly
	}
	return p.a.Store(p.clk, off, n, v)
}

func (p Page) u16(off int) (uint16, error) {
	v, err := p.a.Load(p.clk, off, 2)
	return uint16(v), err
}

func (p Page) putU16(off int, v uint16) error { return p.Store(off, 2, uint64(v)) }

func (p Page) u64(off int) (uint64, error) { return p.a.Load(p.clk, off, 8) }

func (p Page) putU64(off int, v uint64) error { return p.Store(off, 8, v) }

// Init formats the page: id, type, level, empty slot directory.
func (p Page) Init(id uint64, typ uint16, level uint16) error {
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[offID:], id)
	binary.LittleEndian.PutUint16(hdr[offType:], typ)
	binary.LittleEndian.PutUint16(hdr[offFreeStart:], HeaderSize)
	binary.LittleEndian.PutUint16(hdr[offLevel:], level)
	return p.WriteAt(0, hdr[:])
}

// ID reports the page id.
func (p Page) ID() (uint64, error) { return p.u64(offID) }

// LSN reports the page LSN.
func (p Page) LSN() (uint64, error) { return p.u64(offLSN) }

// SetLSN stores the page LSN.
func (p Page) SetLSN(v uint64) error { return p.putU64(offLSN, v) }

// Type reports the page type.
func (p Page) Type() (uint16, error) { return p.u16(offType) }

// Level reports the btree level (0 = leaf).
func (p Page) Level() (uint16, error) { return p.u16(offLevel) }

// NSlots reports the number of records.
func (p Page) NSlots() (int, error) {
	n, err := p.u16(offNSlots)
	return int(n), err
}

// RightSibling reports the right-sibling page id (0 = none).
func (p Page) RightSibling() (uint64, error) { return p.u64(offRightSib) }

// SetRightSibling stores the right-sibling page id.
func (p Page) SetRightSibling(id uint64) error { return p.putU64(offRightSib, id) }

// Aux reports the page-type-specific auxiliary word (meta page: root id).
func (p Page) Aux() (uint64, error) { return p.u64(offAux) }

// SetAux stores the auxiliary word.
func (p Page) SetAux(v uint64) error { return p.putU64(offAux, v) }

// slot reads slot i's (recOff, recLen).
func (p Page) slot(i int) (int, int, error) {
	v, err := p.a.Load(p.clk, Size-slotSize*(i+1), slotSize)
	if err != nil {
		return 0, 0, err
	}
	return int(uint16(v)), int(uint16(v >> 16)), nil
}

func (p Page) putSlot(i int, recOff, recLen int) error {
	return p.Store(Size-slotSize*(i+1), slotSize, uint64(uint16(recOff))|uint64(uint16(recLen))<<16)
}

// KeyAt reports the key of record i.
func (p Page) KeyAt(i int) (int64, error) {
	off, _, err := p.slot(i)
	if err != nil {
		return 0, err
	}
	k, err := p.u64(off)
	return int64(k), err
}

// ValAt appends a copy of record i's value to dst and returns the extended
// slice: a caller that passes a buffer with room allocates nothing.
func (p Page) ValAt(i int, dst []byte) ([]byte, error) {
	off, length, err := p.slot(i)
	if err != nil {
		return dst, err
	}
	if length < 8 {
		return dst, fmt.Errorf("page: corrupt slot %d: record length %d", i, length)
	}
	n := len(dst)
	dst = slices.Grow(dst, length-8)[:n+length-8]
	if err := p.ReadAt(off+8, dst[n:]); err != nil {
		return dst[:n], err
	}
	return dst, nil
}

// WordAt reports record i's value read as one 8-byte little-endian word —
// an internal page's child id — and fails if the value is not 8 bytes.
func (p Page) WordAt(i int) (uint64, error) {
	off, length, err := p.slot(i)
	if err != nil {
		return 0, err
	}
	if length != 16 {
		return 0, fmt.Errorf("page: slot %d holds a %d-byte value, not a word", i, length-8)
	}
	return p.u64(off + 8)
}

// LowerBound reports the first slot index whose key is >= key (== NSlots if
// all keys are smaller). Binary search: O(log n) key reads.
func (p Page) LowerBound(key int64) (int, error) {
	i, _, err := p.LowerBoundPrev(key)
	return i, err
}

// LowerBoundPrev is LowerBound that also reports the key of slot i-1 when
// the index i it returns is positive: the search has read that key, so it
// costs no further read.
func (p Page) LowerBoundPrev(key int64) (i int, prev int64, err error) {
	n, err := p.NSlots()
	if err != nil {
		return 0, 0, err
	}
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		k, err := p.KeyAt(mid)
		if err != nil {
			return 0, 0, err
		}
		if k < key {
			lo, prev = mid+1, k
		} else {
			hi = mid
		}
	}
	return lo, prev, nil
}

// Find reports the value stored under key.
func (p Page) Find(key int64) ([]byte, error) {
	i, err := p.LowerBound(key)
	if err != nil {
		return nil, err
	}
	n, _ := p.NSlots()
	if i >= n {
		return nil, ErrNotFound
	}
	k, err := p.KeyAt(i)
	if err != nil {
		return nil, err
	}
	if k != key {
		return nil, ErrNotFound
	}
	return p.ValAt(i, nil)
}

// FreeSpace reports the contiguous bytes available between the record heap
// and the slot directory.
func (p Page) FreeSpace() (int, error) {
	fs, err := p.u16(offFreeStart)
	if err != nil {
		return 0, err
	}
	n, err := p.NSlots()
	if err != nil {
		return 0, err
	}
	return Size - slotSize*n - int(fs), nil
}

// Garbage reports dead record bytes reclaimable by compaction.
func (p Page) Garbage() (int, error) {
	g, err := p.u16(offGarbage)
	return int(g), err
}

// shiftSlots moves the slot directory entries [from, n) by delta positions
// (delta=+1 opens a hole at from; delta=-1 closes the hole at from).
func (p Page) shiftSlots(from, n, delta int) error {
	if n <= from {
		return nil
	}
	// Slot i occupies [Size-4(i+1), Size-4i). The block of slots [from, n)
	// occupies [Size-4n, Size-4from).
	length := (n - from) * slotSize
	buf := make([]byte, length)
	if err := p.ReadAt(Size-slotSize*n, buf); err != nil {
		return err
	}
	return p.WriteAt(Size-slotSize*(n+delta), buf)
}

// Insert adds (key, val). Keys are unique: inserting an existing key fails
// with a descriptive error. Returns ErrPageFull when the record cannot fit
// even after compaction.
func (p Page) Insert(key int64, val []byte) error {
	need := 8 + len(val)
	if need+slotSize > Size-HeaderSize {
		return fmt.Errorf("page: record of %d bytes can never fit", need)
	}
	free, err := p.FreeSpace()
	if err != nil {
		return err
	}
	if free < need+slotSize {
		g, err := p.Garbage()
		if err != nil {
			return err
		}
		if free+g < need+slotSize {
			return ErrPageFull
		}
		if err := p.Compact(); err != nil {
			return err
		}
	}
	i, err := p.LowerBound(key)
	if err != nil {
		return err
	}
	n, err := p.NSlots()
	if err != nil {
		return err
	}
	if i < n {
		k, err := p.KeyAt(i)
		if err != nil {
			return err
		}
		if k == key {
			return fmt.Errorf("key %d: %w", key, ErrDuplicate)
		}
	}
	fs, err := p.u16(offFreeStart)
	if err != nil {
		return err
	}
	// Write the record.
	rec := make([]byte, need)
	binary.LittleEndian.PutUint64(rec, uint64(key))
	copy(rec[8:], val)
	if err := p.WriteAt(int(fs), rec); err != nil {
		return err
	}
	// Open a slot hole at i and fill it.
	if err := p.shiftSlots(i, n, 1); err != nil {
		return err
	}
	if err := p.putSlot(i, int(fs), need); err != nil {
		return err
	}
	if err := p.putU16(offFreeStart, fs+uint16(need)); err != nil {
		return err
	}
	return p.putU16(offNSlots, uint16(n+1))
}

// Delete removes key. Record bytes become garbage; the slot is closed.
func (p Page) Delete(key int64) error {
	i, err := p.LowerBound(key)
	if err != nil {
		return err
	}
	n, err := p.NSlots()
	if err != nil {
		return err
	}
	if i >= n {
		return ErrNotFound
	}
	k, err := p.KeyAt(i)
	if err != nil {
		return err
	}
	if k != key {
		return ErrNotFound
	}
	return p.deleteSlot(i, n)
}

func (p Page) deleteSlot(i, n int) error {
	_, length, err := p.slot(i)
	if err != nil {
		return err
	}
	g, err := p.u16(offGarbage)
	if err != nil {
		return err
	}
	if err := p.putU16(offGarbage, g+uint16(length)); err != nil {
		return err
	}
	if err := p.shiftSlots(i+1, n, -1); err != nil {
		return err
	}
	return p.putU16(offNSlots, uint16(n-1))
}

// Update replaces key's value. Same-length values update in place (the
// cache-line-friendly fast path the paper's sharing protocol benefits from);
// different lengths delete + reinsert.
func (p Page) Update(key int64, val []byte) error {
	i, err := p.LowerBound(key)
	if err != nil {
		return err
	}
	n, err := p.NSlots()
	if err != nil {
		return err
	}
	if i >= n {
		return ErrNotFound
	}
	k, err := p.KeyAt(i)
	if err != nil {
		return err
	}
	if k != key {
		return ErrNotFound
	}
	off, length, err := p.slot(i)
	if err != nil {
		return err
	}
	if length == 8+len(val) {
		return p.WriteAt(off+8, val)
	}
	// Check capacity BEFORE removing the old record, so a full page leaves
	// the record untouched.
	free, err := p.FreeSpace()
	if err != nil {
		return err
	}
	g, err := p.Garbage()
	if err != nil {
		return err
	}
	if free+g+length+slotSize < 8+len(val)+slotSize {
		return ErrPageFull
	}
	if err := p.deleteSlot(i, n); err != nil {
		return err
	}
	if err := p.Insert(key, val); err != nil {
		return fmt.Errorf("page: update reinsert of key %d failed: %w", key, err)
	}
	return nil
}

// Compact rewrites the record heap without garbage.
func (p Page) Compact() error {
	n, err := p.NSlots()
	if err != nil {
		return err
	}
	type rec struct {
		data []byte
	}
	recs := make([]rec, n)
	for i := 0; i < n; i++ {
		off, length, err := p.slot(i)
		if err != nil {
			return err
		}
		b := make([]byte, length)
		if err := p.ReadAt(off, b); err != nil {
			return err
		}
		recs[i] = rec{data: b}
	}
	cursor := HeaderSize
	for i, r := range recs {
		if err := p.WriteAt(cursor, r.data); err != nil {
			return err
		}
		if err := p.putSlot(i, cursor, len(r.data)); err != nil {
			return err
		}
		cursor += len(r.data)
	}
	if err := p.putU16(offFreeStart, uint16(cursor)); err != nil {
		return err
	}
	return p.putU16(offGarbage, 0)
}

// Scan invokes fn for each record in key order, stopping early if fn
// returns false.
func (p Page) Scan(fn func(key int64, val []byte) bool) error {
	n, err := p.NSlots()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		k, err := p.KeyAt(i)
		if err != nil {
			return err
		}
		v, err := p.ValAt(i, nil)
		if err != nil {
			return err
		}
		if !fn(k, v) {
			return nil
		}
	}
	return nil
}

// --- checksum helpers on raw page images (storage flush/load path) ---

// ComputeChecksum computes the CRC32 of a raw page image, excluding the
// checksum field itself.
func ComputeChecksum(img []byte) uint32 {
	if len(img) != Size {
		panic(fmt.Sprintf("page: checksum over %d bytes, want %d", len(img), Size))
	}
	h := crc32.NewIEEE()
	h.Write(img[:offChecksum])
	h.Write(img[offChecksum+4:])
	return h.Sum32()
}

// StampChecksum writes the computed checksum into a raw page image.
func StampChecksum(img []byte) {
	binary.LittleEndian.PutUint32(img[offChecksum:], ComputeChecksum(img))
}

// VerifyChecksum reports whether a raw page image's checksum matches.
func VerifyChecksum(img []byte) bool {
	return binary.LittleEndian.Uint32(img[offChecksum:]) == ComputeChecksum(img)
}

// RawID reads the page id from a raw image.
func RawID(img []byte) uint64 { return binary.LittleEndian.Uint64(img[offID:]) }

// RawLSN reads the page LSN from a raw image.
func RawLSN(img []byte) uint64 { return binary.LittleEndian.Uint64(img[offLSN:]) }
