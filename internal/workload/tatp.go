package workload

import (
	"fmt"
	"math/rand"

	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
)

// TATPConfig scales the TATP schema. TATP is perfectly partitionable: each
// node owns its subscriber range and no transaction crosses nodes (§4.4:
// "In TATP, there is no data sharing at all").
type TATPConfig struct {
	Nodes       int
	Subscribers int // per node
}

// TATP lays out subscriber/access-info/special-facility/call-forwarding
// ranges per node and runs the standard 80/20 read/write mix:
//
//	GET_SUBSCRIBER_DATA 35%, GET_NEW_DESTINATION 10%, GET_ACCESS_DATA 35%,
//	UPDATE_SUBSCRIBER_DATA 2%, UPDATE_LOCATION 14%,
//	INSERT_CALL_FORWARDING 2%, DELETE_CALL_FORWARDING 2%.
type TATP struct {
	cfg     TATPConfig
	base    uint64
	perNode int // pages per node
	subPg   int
	aiPg    int
	sfPg    int
	cfPg    int

	Queries int64
	Txns    int64
	CPUNs   int64
}

// NewTATP seeds storage and returns the workload.
func NewTATP(clk *simclock.Clock, store *storage.Store, cfg TATPConfig) (*TATP, error) {
	t := &TATP{cfg: cfg}
	t.subPg = pagesFor(cfg.Subscribers)
	t.aiPg = pagesFor(cfg.Subscribers * 2) // ~2.5 access-info rows/sub
	t.sfPg = pagesFor(cfg.Subscribers * 2)
	t.cfPg = pagesFor(cfg.Subscribers)
	t.perNode = t.subPg + t.aiPg + t.sfPg + t.cfPg
	img := make([]byte, page.Size)
	for i := 0; i < cfg.Nodes*t.perNode; i++ {
		id := store.AllocPageID()
		if i == 0 {
			t.base = id
		}
		if err := store.WritePage(clk, id, img); err != nil {
			return nil, fmt.Errorf("tatp: seeding: %w", err)
		}
	}
	return t, nil
}

func (t *TATP) addr(node, table, row, rows, basePg, rangePgs int) (uint64, int64) {
	pg := (row / RowsPerPage) % rangePgs
	slot := row % RowsPerPage
	return t.base + uint64(node*t.perNode+basePg+pg), int64(page.HeaderSize + slot*RowSize)
}

func (t *TATP) subscriberAddr(node, s int) (uint64, int64) {
	return t.addr(node, 0, s, t.cfg.Subscribers, 0, t.subPg)
}
func (t *TATP) accessInfoAddr(node, s int) (uint64, int64) {
	return t.addr(node, 1, s, t.cfg.Subscribers*2, t.subPg, t.aiPg)
}
func (t *TATP) specialFacilityAddr(node, s int) (uint64, int64) {
	return t.addr(node, 2, s, t.cfg.Subscribers*2, t.subPg+t.aiPg, t.sfPg)
}
func (t *TATP) callFwdAddr(node, s int) (uint64, int64) {
	return t.addr(node, 3, s, t.cfg.Subscribers, t.subPg+t.aiPg+t.sfPg, t.cfPg)
}

// Txn runs one transaction from the standard mix for node's subscriber
// range.
func (t *TATP) Txn(clk *simclock.Clock, node SharedNode, nodeIdx int, rng *rand.Rand) error {
	s := rng.Intn(t.cfg.Subscribers)
	buf := make([]byte, RowSize)
	read := func(pid uint64, off int64, n int) error {
		t.CPUNs += chargeCPU(clk, PointSelectCPU)
		t.Queries++
		return node.Read(clk, pid, off, buf[:n])
	}
	write := func(pid uint64, off int64, n int) error {
		t.CPUNs += chargeCPU(clk, UpdateCPU)
		t.Queries++
		return node.ReadModifyWrite(clk, pid, off, make([]byte, n), func(b []byte) { b[0]++ })
	}
	var err error
	switch p := rng.Intn(100); {
	case p < 35: // GET_SUBSCRIBER_DATA
		pid, off := t.subscriberAddr(nodeIdx, s)
		err = read(pid, off, RowSize)
	case p < 45: // GET_NEW_DESTINATION: special facility + call forwarding
		pid, off := t.specialFacilityAddr(nodeIdx, s)
		if err = read(pid, off, 40); err == nil {
			pid, off = t.callFwdAddr(nodeIdx, s)
			err = read(pid, off, 40)
		}
	case p < 80: // GET_ACCESS_DATA
		pid, off := t.accessInfoAddr(nodeIdx, s)
		err = read(pid, off, 48)
	case p < 82: // UPDATE_SUBSCRIBER_DATA: subscriber bit + special facility
		pid, off := t.subscriberAddr(nodeIdx, s)
		if err = write(pid, off, 8); err == nil {
			pid, off = t.specialFacilityAddr(nodeIdx, s)
			err = write(pid, off, 8)
		}
	case p < 96: // UPDATE_LOCATION
		pid, off := t.subscriberAddr(nodeIdx, s)
		err = write(pid, off, 16)
	case p < 98: // INSERT_CALL_FORWARDING: read special facility, write cf
		pid, off := t.specialFacilityAddr(nodeIdx, s)
		if err = read(pid, off, 40); err == nil {
			pid, off = t.callFwdAddr(nodeIdx, s)
			t.CPUNs += chargeCPU(clk, InsertCPU)
			t.Queries++
			err = node.Write(clk, pid, off, buf[:40])
		}
	default: // DELETE_CALL_FORWARDING
		pid, off := t.callFwdAddr(nodeIdx, s)
		err = write(pid, off, 8)
	}
	if err != nil {
		return err
	}
	t.Txns++
	return nil
}
