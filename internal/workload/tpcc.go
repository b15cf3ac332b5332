package workload

import (
	"fmt"
	"math/rand"

	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
)

// TPCCConfig scales the TPC-C schema. One warehouse per node, as in the
// paper's 15-node run; cross-warehouse traffic follows the standard: 1% of
// new-order lines and 15% of payments touch a remote warehouse, making
// roughly 10% of transactions cross-warehouse overall.
type TPCCConfig struct {
	Warehouses int // = node count
	Districts  int // per warehouse (10)
	Customers  int // per warehouse
	Stock      int // per warehouse
	Items      int // global, read-only
	OrderPages int // per-warehouse insert ring
}

// TPCC lays the schema out over shared pages and runs the standard mix.
type TPCC struct {
	cfg TPCCConfig

	// page-range bases (page ids)
	itemBase  uint64 // shared read-only group
	whBase    uint64 // per-warehouse ranges follow
	perWH     int    // pages per warehouse
	custPages int
	stockPage int

	// per-node insert cursors (orders/history ring)
	cursors []int

	NewOrders int64
	Payments  int64
	Others    int64
	CPUNs     int64
	Remote    int64 // cross-warehouse accesses
}

func pagesFor(rows int) int { return (rows + RowsPerPage - 1) / RowsPerPage }

// NewTPCC seeds storage with the full schema and returns the workload.
func NewTPCC(clk *simclock.Clock, store *storage.Store, cfg TPCCConfig) (*TPCC, error) {
	t := &TPCC{cfg: cfg, cursors: make([]int, cfg.Warehouses)}
	t.custPages = pagesFor(cfg.Customers)
	t.stockPage = pagesFor(cfg.Stock)
	// Per-warehouse layout: [warehouse 1pg][district 1pg][customer][stock][orders ring][history 8pg]
	t.perWH = 1 + 1 + t.custPages + t.stockPage + cfg.OrderPages + 8

	seed := func(n int) (uint64, error) {
		var first uint64
		img := make([]byte, page.Size)
		for i := 0; i < n; i++ {
			id := store.AllocPageID()
			if i == 0 {
				first = id
			}
			if err := store.WritePage(clk, id, img); err != nil {
				return 0, fmt.Errorf("tpcc: seeding: %w", err)
			}
		}
		return first, nil
	}
	var err error
	if t.itemBase, err = seed(pagesFor(cfg.Items)); err != nil {
		return nil, err
	}
	if t.whBase, err = seed(cfg.Warehouses * t.perWH); err != nil {
		return nil, err
	}
	return t, nil
}

// row addressing within a warehouse
func (t *TPCC) whPage(wh, off int) uint64 { return t.whBase + uint64(wh*t.perWH+off) }

func rowAddr(base uint64, pagesInRange, row int) (uint64, int64) {
	pg := (row / RowsPerPage) % pagesInRange
	slot := row % RowsPerPage
	return base + uint64(pg), int64(page.HeaderSize + slot*RowSize)
}

func (t *TPCC) warehouseAddr(wh int) (uint64, int64) { return t.whPage(wh, 0), page.HeaderSize }
func (t *TPCC) districtAddr(wh, d int) (uint64, int64) {
	return t.whPage(wh, 1), int64(page.HeaderSize + d*RowSize)
}
func (t *TPCC) customerAddr(wh, c int) (uint64, int64) {
	pg, off := rowAddr(0, t.custPages, c)
	return t.whPage(wh, 2+int(pg)), off
}
func (t *TPCC) stockAddr(wh, s int) (uint64, int64) {
	pg, off := rowAddr(0, t.stockPage, s)
	return t.whPage(wh, 2+t.custPages+int(pg)), off
}
func (t *TPCC) orderAddr(wh, cursor int) (uint64, int64) {
	pg, off := rowAddr(0, t.cfg.OrderPages, cursor)
	return t.whPage(wh, 2+t.custPages+t.stockPage+int(pg)), off
}
func (t *TPCC) historyAddr(wh, cursor int) (uint64, int64) {
	pg, off := rowAddr(0, 8, cursor)
	return t.whPage(wh, 2+t.custPages+t.stockPage+t.cfg.OrderPages+int(pg)), off
}
func (t *TPCC) itemAddr(i int) (uint64, int64) {
	return rowAddr(t.itemBase, pagesFor(t.cfg.Items), i)
}

// remoteWH picks a warehouse other than home.
func (t *TPCC) remoteWH(home int, rng *rand.Rand) int {
	if t.cfg.Warehouses == 1 {
		return home
	}
	w := rng.Intn(t.cfg.Warehouses - 1)
	if w >= home {
		w++
	}
	return w
}

// NewOrder runs one new-order transaction for the node owning warehouse wh.
func (t *TPCC) NewOrder(clk *simclock.Clock, node SharedNode, wh int, rng *rand.Rand) error {
	buf := make([]byte, 64)
	// Read warehouse tax.
	t.CPUNs += chargeCPU(clk, PointSelectCPU)
	pid, off := t.warehouseAddr(wh)
	if err := node.Read(clk, pid, off, buf); err != nil {
		return err
	}
	// District: read + bump next_o_id.
	t.CPUNs += chargeCPU(clk, UpdateCPU)
	pid, off = t.districtAddr(wh, rng.Intn(t.cfg.Districts))
	if err := node.ReadModifyWrite(clk, pid, off, make([]byte, 16), func(b []byte) { b[0]++ }); err != nil {
		return err
	}
	// Customer read.
	t.CPUNs += chargeCPU(clk, PointSelectCPU)
	pid, off = t.customerAddr(wh, rng.Intn(t.cfg.Customers))
	if err := node.Read(clk, pid, off, buf); err != nil {
		return err
	}
	// 5-15 order lines.
	lines := 5 + rng.Intn(11)
	for i := 0; i < lines; i++ {
		// Item lookup (shared read-only pages).
		t.CPUNs += chargeCPU(clk, PointSelectCPU)
		pid, off = t.itemAddr(rng.Intn(t.cfg.Items))
		if err := node.Read(clk, pid, off, buf); err != nil {
			return err
		}
		// Stock: 1% remote.
		sw := wh
		if rng.Intn(100) == 0 {
			sw = t.remoteWH(wh, rng)
			if sw != wh {
				t.Remote++
			}
		}
		t.CPUNs += chargeCPU(clk, UpdateCPU)
		pid, off = t.stockAddr(sw, rng.Intn(t.cfg.Stock))
		if err := node.ReadModifyWrite(clk, pid, off, make([]byte, 24), func(b []byte) { b[0]-- }); err != nil {
			return err
		}
		// Order-line insert (private ring).
		t.CPUNs += chargeCPU(clk, InsertCPU)
		t.cursors[wh] = (t.cursors[wh] + 1) % (t.cfg.OrderPages * RowsPerPage)
		pid, off = t.orderAddr(wh, t.cursors[wh])
		if err := node.Write(clk, pid, off, buf[:RowSize/4]); err != nil {
			return err
		}
	}
	// Order + new-order inserts.
	for i := 0; i < 2; i++ {
		t.CPUNs += chargeCPU(clk, InsertCPU)
		t.cursors[wh] = (t.cursors[wh] + 1) % (t.cfg.OrderPages * RowsPerPage)
		pid, off = t.orderAddr(wh, t.cursors[wh])
		if err := node.Write(clk, pid, off, buf[:32]); err != nil {
			return err
		}
	}
	t.NewOrders++
	return nil
}

// Payment runs one payment transaction (15% remote customer).
func (t *TPCC) Payment(clk *simclock.Clock, node SharedNode, wh int, rng *rand.Rand) error {
	t.CPUNs += chargeCPU(clk, UpdateCPU)
	pid, off := t.warehouseAddr(wh)
	if err := node.ReadModifyWrite(clk, pid, off, make([]byte, 16), func(b []byte) { b[0]++ }); err != nil {
		return err
	}
	t.CPUNs += chargeCPU(clk, UpdateCPU)
	pid, off = t.districtAddr(wh, rng.Intn(t.cfg.Districts))
	if err := node.ReadModifyWrite(clk, pid, off, make([]byte, 16), func(b []byte) { b[1]++ }); err != nil {
		return err
	}
	cw := wh
	if rng.Intn(100) < 15 {
		cw = t.remoteWH(wh, rng)
		if cw != wh {
			t.Remote++
		}
	}
	t.CPUNs += chargeCPU(clk, UpdateCPU)
	pid, off = t.customerAddr(cw, rng.Intn(t.cfg.Customers))
	if err := node.ReadModifyWrite(clk, pid, off, make([]byte, 32), func(b []byte) { b[2]++ }); err != nil {
		return err
	}
	t.CPUNs += chargeCPU(clk, InsertCPU)
	t.cursors[wh] = (t.cursors[wh] + 1) % (8 * RowsPerPage)
	pid, off = t.historyAddr(wh, t.cursors[wh]%(8*RowsPerPage))
	if err := node.Write(clk, pid, off, make([]byte, 46)); err != nil {
		return err
	}
	t.Payments++
	return nil
}

// OrderStatus reads a customer and their latest order lines.
func (t *TPCC) OrderStatus(clk *simclock.Clock, node SharedNode, wh int, rng *rand.Rand) error {
	buf := make([]byte, RowSize)
	t.CPUNs += chargeCPU(clk, PointSelectCPU)
	pid, off := t.customerAddr(wh, rng.Intn(t.cfg.Customers))
	if err := node.Read(clk, pid, off, buf); err != nil {
		return err
	}
	for i := 0; i < 10; i++ {
		t.CPUNs += chargeCPU(clk, PointSelectCPU)
		pid, off = t.orderAddr(wh, rng.Intn(t.cfg.OrderPages*RowsPerPage))
		if err := node.Read(clk, pid, off, buf[:32]); err != nil {
			return err
		}
	}
	t.Others++
	return nil
}

// Delivery processes one order per district.
func (t *TPCC) Delivery(clk *simclock.Clock, node SharedNode, wh int, rng *rand.Rand) error {
	for d := 0; d < t.cfg.Districts; d++ {
		t.CPUNs += chargeCPU(clk, UpdateCPU)
		pid, off := t.orderAddr(wh, rng.Intn(t.cfg.OrderPages*RowsPerPage))
		if err := node.ReadModifyWrite(clk, pid, off, make([]byte, 16), func(b []byte) { b[3] = 1 }); err != nil {
			return err
		}
		t.CPUNs += chargeCPU(clk, UpdateCPU)
		pid, off = t.customerAddr(wh, rng.Intn(t.cfg.Customers))
		if err := node.ReadModifyWrite(clk, pid, off, make([]byte, 16), func(b []byte) { b[4]++ }); err != nil {
			return err
		}
	}
	t.Others++
	return nil
}

// StockLevel reads the district and recent stock rows.
func (t *TPCC) StockLevel(clk *simclock.Clock, node SharedNode, wh int, rng *rand.Rand) error {
	buf := make([]byte, 64)
	t.CPUNs += chargeCPU(clk, PointSelectCPU)
	pid, off := t.districtAddr(wh, rng.Intn(t.cfg.Districts))
	if err := node.Read(clk, pid, off, buf); err != nil {
		return err
	}
	for i := 0; i < 20; i++ {
		t.CPUNs += chargeCPU(clk, PointSelectCPU)
		pid, off = t.stockAddr(wh, rng.Intn(t.cfg.Stock))
		if err := node.Read(clk, pid, off, buf[:24]); err != nil {
			return err
		}
	}
	t.Others++
	return nil
}

// Txn runs one transaction from the standard mix (45/43/4/4/4) on wh's
// node.
func (t *TPCC) Txn(clk *simclock.Clock, node SharedNode, wh int, rng *rand.Rand) error {
	switch p := rng.Intn(100); {
	case p < 45:
		return t.NewOrder(clk, node, wh, rng)
	case p < 88:
		return t.Payment(clk, node, wh, rng)
	case p < 92:
		return t.OrderStatus(clk, node, wh, rng)
	case p < 96:
		return t.Delivery(clk, node, wh, rng)
	default:
		return t.StockLevel(clk, node, wh, rng)
	}
}
