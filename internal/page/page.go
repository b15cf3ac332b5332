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

// Accessor is the byte-level view of one page's storage. Implementations
// charge their medium's access costs to the worker's virtual clock.
type Accessor interface {
	// ReadAt fills buf from page offset off.
	ReadAt(off int, buf []byte) error
	// WriteAt stores data at page offset off.
	WriteAt(off int, data []byte) error
}

// Page provides slotted-page operations over an Accessor.
type Page struct {
	a Accessor
}

// Wrap returns a Page over a.
func Wrap(a Accessor) Page { return Page{a: a} }

func (p Page) u16(off int) (uint16, error) {
	var b [2]byte
	if err := p.a.ReadAt(off, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b[:]), nil
}

func (p Page) putU16(off int, v uint16) error {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	return p.a.WriteAt(off, b[:])
}

func (p Page) u64(off int) (uint64, error) {
	var b [8]byte
	if err := p.a.ReadAt(off, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func (p Page) putU64(off int, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return p.a.WriteAt(off, b[:])
}

// Init formats the page: id, type, level, empty slot directory.
func (p Page) Init(id uint64, typ uint16, level uint16) error {
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[offID:], id)
	binary.LittleEndian.PutUint16(hdr[offType:], typ)
	binary.LittleEndian.PutUint16(hdr[offFreeStart:], HeaderSize)
	binary.LittleEndian.PutUint16(hdr[offLevel:], level)
	return p.a.WriteAt(0, hdr[:])
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
	var b [slotSize]byte
	if err := p.a.ReadAt(Size-slotSize*(i+1), b[:]); err != nil {
		return 0, 0, err
	}
	return int(binary.LittleEndian.Uint16(b[0:2])), int(binary.LittleEndian.Uint16(b[2:4])), nil
}

func (p Page) putSlot(i int, recOff, recLen int) error {
	var b [slotSize]byte
	binary.LittleEndian.PutUint16(b[0:2], uint16(recOff))
	binary.LittleEndian.PutUint16(b[2:4], uint16(recLen))
	return p.a.WriteAt(Size-slotSize*(i+1), b[:])
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

// ValAt reports a copy of record i's value.
func (p Page) ValAt(i int) ([]byte, error) {
	off, length, err := p.slot(i)
	if err != nil {
		return nil, err
	}
	if length < 8 {
		return nil, fmt.Errorf("page: corrupt slot %d: record length %d", i, length)
	}
	val := make([]byte, length-8)
	if err := p.a.ReadAt(off+8, val); err != nil {
		return nil, err
	}
	return val, nil
}

// LowerBound reports the first slot index whose key is >= key (== NSlots if
// all keys are smaller). Binary search: O(log n) key reads.
func (p Page) LowerBound(key int64) (int, error) {
	n, err := p.NSlots()
	if err != nil {
		return 0, err
	}
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		k, err := p.KeyAt(mid)
		if err != nil {
			return 0, err
		}
		if k < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
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
	return p.ValAt(i)
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
	if err := p.a.ReadAt(Size-slotSize*n, buf); err != nil {
		return err
	}
	return p.a.WriteAt(Size-slotSize*(n+delta), buf)
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
	if err := p.a.WriteAt(int(fs), rec); err != nil {
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
		return p.a.WriteAt(off+8, val)
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
		if err := p.a.ReadAt(off, b); err != nil {
			return err
		}
		recs[i] = rec{data: b}
	}
	cursor := HeaderSize
	for i, r := range recs {
		if err := p.a.WriteAt(cursor, r.data); err != nil {
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

// SplitInto moves the upper half of p's records into right (which must be
// initialized and empty) and returns the first key of right — the separator
// to install in the parent.
func (p Page) SplitInto(right Page) (int64, error) {
	n, err := p.NSlots()
	if err != nil {
		return 0, err
	}
	if n < 2 {
		return 0, fmt.Errorf("page: cannot split %d records", n)
	}
	mid := n / 2
	var sep int64
	for i := mid; i < n; i++ {
		k, err := p.KeyAt(i)
		if err != nil {
			return 0, err
		}
		if i == mid {
			sep = k
		}
		v, err := p.ValAt(i)
		if err != nil {
			return 0, err
		}
		if err := right.Insert(k, v); err != nil {
			return 0, err
		}
	}
	// Truncate p to [0, mid) and compact away the moved records.
	for i := n - 1; i >= mid; i-- {
		cur, err := p.NSlots()
		if err != nil {
			return 0, err
		}
		if err := p.deleteSlot(i, cur); err != nil {
			return 0, err
		}
	}
	if err := p.Compact(); err != nil {
		return 0, err
	}
	// Chain siblings at the caller's discretion (leaf level only).
	return sep, nil
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
		v, err := p.ValAt(i)
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
