package page

import (
	"encoding/binary"
	"fmt"

	"polarcxlmem/internal/simclock"
)

// Image returns a writable Page over an in-memory page image whose
// accesses cost nothing: recovery rebuilds off-pool images through it, and
// tests use it as a scratch page.
func Image(buf []byte) Page { return Page{a: &image{buf: buf}, w: true} }

// image is the cost-free Accessor behind Image.
type image struct{ buf []byte }

func (m *image) ReadAt(_ *simclock.Clock, off int, buf []byte) error {
	if off < 0 || off+len(buf) > len(m.buf) {
		return fmt.Errorf("page: image read [%d,%d) out of bounds [0,%d)", off, off+len(buf), len(m.buf))
	}
	copy(buf, m.buf[off:])
	return nil
}

func (m *image) WriteAt(_ *simclock.Clock, off int, data []byte) error {
	if off < 0 || off+len(data) > len(m.buf) {
		return fmt.Errorf("page: image write [%d,%d) out of bounds [0,%d)", off, off+len(data), len(m.buf))
	}
	copy(m.buf[off:], data)
	return nil
}

func (m *image) Load(clk *simclock.Clock, off, n int) (uint64, error) {
	var w [8]byte
	if err := m.ReadAt(clk, off, w[:n]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(w[:]), nil
}

func (m *image) Store(clk *simclock.Clock, off, n int, v uint64) error {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	return m.WriteAt(clk, off, w[:n])
}
