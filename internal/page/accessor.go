package page

import (
	"encoding/binary"
	"fmt"
)

// SliceAccessor is a cost-free Accessor over an in-memory page image. It is
// the building block for DRAM frames (which wrap it with DRAM costs) and for
// tests.
type SliceAccessor struct {
	Buf []byte
}

// NewSliceAccessor returns an accessor over a fresh Size-byte image.
func NewSliceAccessor() *SliceAccessor { return &SliceAccessor{Buf: make([]byte, Size)} }

// ReadAt implements Accessor.
func (s *SliceAccessor) ReadAt(off int, buf []byte) error {
	if off < 0 || off+len(buf) > len(s.Buf) {
		return fmt.Errorf("page: slice read [%d,%d) out of bounds [0,%d)", off, off+len(buf), len(s.Buf))
	}
	copy(buf, s.Buf[off:])
	return nil
}

// WriteAt implements Accessor.
func (s *SliceAccessor) WriteAt(off int, data []byte) error {
	if off < 0 || off+len(data) > len(s.Buf) {
		return fmt.Errorf("page: slice write [%d,%d) out of bounds [0,%d)", off, off+len(data), len(s.Buf))
	}
	copy(s.Buf[off:], data)
	return nil
}

// Load implements Accessor.
func (s *SliceAccessor) Load(off, n int) (uint64, error) {
	var w [8]byte
	if err := s.ReadAt(off, w[:n]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(w[:]), nil
}

// Store implements Accessor.
func (s *SliceAccessor) Store(off, n int, v uint64) error {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	return s.WriteAt(off, w[:n])
}
