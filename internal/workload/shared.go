package workload

import (
	"fmt"
	"math/rand"

	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
)

// SharedNode is the record-level API both multi-primary node types expose
// (sharing.Node over CXL, sharing.RDMANode over RDMA).
type SharedNode interface {
	Read(clk *simclock.Clock, pageID uint64, off int64, buf []byte) error
	Write(clk *simclock.Clock, pageID uint64, off int64, data []byte) error
	ReadModifyWrite(clk *simclock.Clock, pageID uint64, off int64, buf []byte, fn func([]byte)) error
}

// RowsPerPage is how many fixed-size sbtest rows a shared page holds.
const RowsPerPage = (page.Size - page.HeaderSize) / RowSize

// Layout maps the paper's §4.4 configuration onto page ids: "tables were
// divided into N+1 groups. The first N groups were designated as private,
// with each node exclusively accessing the tables within its assigned
// group. The final group was shared."
type Layout struct {
	Nodes         int
	PagesPerGroup int
	first         uint64 // first page id; groups are contiguous
}

// NewLayout seeds storage with (nodes+1)*pagesPerGroup pages of fixed-slot
// rows and returns the layout.
func NewLayout(clk *simclock.Clock, store *storage.Store, nodes, pagesPerGroup int) (*Layout, error) {
	l := &Layout{Nodes: nodes, PagesPerGroup: pagesPerGroup}
	total := (nodes + 1) * pagesPerGroup
	rng := rand.New(rand.NewSource(2))
	img := make([]byte, page.Size)
	for i := 0; i < total; i++ {
		id := store.AllocPageID()
		if i == 0 {
			l.first = id
		}
		rng.Read(img[page.HeaderSize:])
		if err := store.WritePage(clk, id, img); err != nil {
			return nil, fmt.Errorf("workload: seeding shared page %d: %w", id, err)
		}
	}
	return l, nil
}

// GroupPage reports the page id of page idx within group (group Nodes is
// the shared group).
func (l *Layout) GroupPage(group, idx int) uint64 {
	return l.first + uint64(group*l.PagesPerGroup+idx)
}

// RowAddr places row r of group on its page: returns (pageID, offset).
func (l *Layout) RowAddr(group, r int) (uint64, int64) {
	pg := (r / RowsPerPage) % l.PagesPerGroup
	slot := r % RowsPerPage
	return l.GroupPage(group, pg), int64(page.HeaderSize + slot*RowSize)
}

// TotalRows reports rows per group.
func (l *Layout) TotalRows() int { return l.PagesPerGroup * RowsPerPage }

// SharedSysbench is the adapted sysbench of §4.4: X% of queries target the
// shared group, the rest the node's private group. It drives one node at a
// time from one goroutine: its counters are plain fields, and one range
// buffer serves every transaction.
type SharedSysbench struct {
	Layout    *Layout
	SharedPct int // 0..100

	Queries int64
	Txns    int64
	CPUNs   int64

	buf []byte // ReadWriteTxn's range buffer, made on first use
}

// pickRowForTest exposes routing for tests.
func (w *SharedSysbench) pickRowForTest(nodeIdx int, rng *rand.Rand) (uint64, int64) {
	return w.pickRow(nodeIdx, rng)
}

// pickRow chooses a target row for node nodeIdx.
func (w *SharedSysbench) pickRow(nodeIdx int, rng *rand.Rand) (uint64, int64) {
	group := nodeIdx
	if rng.Intn(100) < w.SharedPct {
		group = w.Layout.Nodes // the shared group
	}
	return w.Layout.RowAddr(group, rng.Intn(w.Layout.TotalRows()))
}

// PointUpdateTxn runs the fig. 11 transaction on node: 10 point updates.
func (w *SharedSysbench) PointUpdateTxn(clk *simclock.Clock, node SharedNode, nodeIdx int, rng *rand.Rand) error {
	w.CPUNs += chargeCPU(clk, BeginCommitCPU)
	buf := make([]byte, 64)
	for i := 0; i < 10; i++ {
		pid, off := w.pickRow(nodeIdx, rng)
		w.CPUNs += chargeCPU(clk, UpdateCPU)
		err := node.ReadModifyWrite(clk, pid, off, buf, func(b []byte) {
			b[0]++
			b[8] = byte(i)
		})
		if err != nil {
			return err
		}
		w.Queries++
	}
	w.Txns++
	return nil
}

// ReadWriteTxn runs the sysbench read-write mix through the sharing layer:
// 10 point selects, 4 range reads (100 consecutive rows), 2 updates, 1
// delete + 1 insert modelled as two row rewrites. The workload's one
// range-sized buffer serves every read and rewrite; each use reads into it
// first, so nothing carries over from one use to the next.
func (w *SharedSysbench) ReadWriteTxn(clk *simclock.Clock, node SharedNode, nodeIdx int, rng *rand.Rand) error {
	w.CPUNs += chargeCPU(clk, BeginCommitCPU)
	if w.buf == nil {
		w.buf = make([]byte, RangeLen*RowSize)
	}
	buf := w.buf
	for i := 0; i < 10; i++ {
		pid, off := w.pickRow(nodeIdx, rng)
		w.CPUNs += chargeCPU(clk, PointSelectCPU)
		if err := node.Read(clk, pid, off, buf[:RowSize]); err != nil {
			return err
		}
		w.Queries++
	}
	for i := 0; i < 4; i++ {
		group := nodeIdx
		if rng.Intn(100) < w.SharedPct {
			group = w.Layout.Nodes
		}
		start := rng.Intn(w.Layout.TotalRows() - RangeLen)
		w.CPUNs += chargeCPU(clk, RangeSelectCPU)
		// 100 consecutive rows: sequential slots across 1-2 pages.
		row := start
		for row < start+RangeLen {
			pid, off := w.Layout.RowAddr(group, row)
			rowsHere := RowsPerPage - row%RowsPerPage
			if row+rowsHere > start+RangeLen {
				rowsHere = start + RangeLen - row
			}
			if err := node.Read(clk, pid, off, buf[:rowsHere*RowSize]); err != nil {
				return err
			}
			row += rowsHere
		}
		w.Queries++
	}
	for i := 0; i < 4; i++ { // 2 updates + delete/insert pair as rewrites
		pid, off := w.pickRow(nodeIdx, rng)
		w.CPUNs += chargeCPU(clk, UpdateCPU)
		err := node.ReadModifyWrite(clk, pid, off, buf[:64], func(b []byte) { b[1]++ })
		if err != nil {
			return err
		}
		w.Queries++
	}
	w.Txns++
	return nil
}
