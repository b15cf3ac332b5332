// Package rdma models the RDMA fabric of the paper's baseline systems:
// ConnectX-6-class NICs doing one-sided reads/writes against a remote memory
// pool. Per-verb latency is calibrated point-for-point from the paper's
// Table 2; each host's NIC is a 12 GB/s bandwidth server (100 Gbps
// ConnectX-6, §2.2) plus a doorbell/IOPS server capturing the driver-side
// scaling limit prior work identified (§2.2 item 3).
//
// RDMA cannot be operated on directly by the CPU: the baseline buffer pools
// in internal/buffer copy whole pages between the remote pool and a local
// DRAM frame through these verbs, which is exactly the read/write
// amplification the paper measures.
package rdma

import (
	"fmt"

	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simmem"
)

// Calibration from the paper's Table 2 (RDMA columns, ns).
var (
	table2Sizes = []int64{64, 512, 1024, 4096, 16384}

	// WriteLatency: local DRAM -> remote memory.
	WriteLatency = simmem.NewLatencyTable(table2Sizes, []int64{4480, 4690, 4770, 5060, 6120})
	// ReadLatency: remote memory -> local DRAM.
	ReadLatency = simmem.NewLatencyTable(table2Sizes, []int64{4550, 4790, 4910, 5580, 7130})
)

const (
	// NICBandwidth is the usable bandwidth of a 100 Gbps ConnectX-6 (§2.2).
	NICBandwidth = 12e9
	// DoorbellRate caps verb issue per NIC; beyond ~32 active cores the
	// doorbell register and NIC cache become the bottleneck (§2.2 item 3).
	DoorbellRate = 15e6
)

// NIC is one host's RDMA adapter. All database instances on the host share
// it — the central premise of the pooling experiments (§4.2).
type NIC struct {
	name     string
	bw       *simclock.Resource
	doorbell *simclock.Resource
}

// NewNIC returns a NIC with calibrated defaults. bandwidth/doorbell of 0
// select NICBandwidth/DoorbellRate.
func NewNIC(name string, bandwidth, doorbell float64) *NIC {
	if bandwidth == 0 {
		bandwidth = NICBandwidth
	}
	if doorbell == 0 {
		doorbell = DoorbellRate
	}
	return &NIC{
		name:     name,
		bw:       simclock.NewResource("rdma-bw/"+name, bandwidth),
		doorbell: simclock.NewResource("rdma-db/"+name, doorbell),
	}
}

// Name reports the NIC name.
func (n *NIC) Name() string { return n.name }

// Bandwidth exposes the bandwidth resource for stats (the paper reports
// "RDMA bandwidth (GB/s)" per figure).
func (n *NIC) Bandwidth() *simclock.Resource { return n.bw }

// Doorbell exposes the verb-issue resource for stats.
func (n *NIC) Doorbell() *simclock.Resource { return n.doorbell }

// ResetStats clears bandwidth and doorbell accounting.
func (n *NIC) ResetStats() {
	n.bw.Reset()
	n.doorbell.Reset()
}

// charge applies one verb of size bytes: doorbell op + calibrated latency +
// NIC bandwidth. The calibrated verb latency already contains the wire
// transfer time, so the bandwidth server's service time is subtracted from
// the fixed-latency portion: an uncontended verb costs exactly the Table 2
// value, while concurrent verbs queue on the NIC.
func (n *NIC) charge(clk *simclock.Clock, lat *simmem.LatencyTable, size int64) {
	n.doorbell.Use(clk, 1)
	fixed := lat.Cost(size) - n.bw.ServiceTime(size)
	if fixed > 0 {
		clk.Advance(fixed)
	}
	n.bw.Use(clk, size)
}

// CostRead reports the uncontended latency of an n-byte RDMA read.
func (n *NIC) CostRead(size int64) int64 { return ReadLatency.Cost(size) }

// CostWrite reports the uncontended latency of an n-byte RDMA write.
func (n *NIC) CostWrite(size int64) int64 { return WriteLatency.Cost(size) }

// Pool is a remote memory node exposing a registered region to RDMA verbs.
// The backing device is latency-free: all timing is charged by the verbs.
type Pool struct {
	dev *simmem.Device
}

// NewPool allocates a remote memory pool of size bytes.
func NewPool(name string, size int64) *Pool {
	return &Pool{dev: simmem.NewDevice(name, size, simmem.Profile{Name: name}, nil, nil)}
}

// Size reports the pool capacity.
func (p *Pool) Size() int64 { return p.dev.Size() }

// Read performs a one-sided RDMA read of len(buf) bytes at off through nic.
func (p *Pool) Read(clk *simclock.Clock, nic *NIC, off int64, buf []byte) error {
	if nic == nil {
		return fmt.Errorf("rdma: read without a NIC")
	}
	if err := p.dev.WholeRegion().ReadRaw(off, buf); err != nil {
		return err
	}
	nic.charge(clk, ReadLatency, int64(len(buf)))
	return nil
}

// Write performs a one-sided RDMA write of data at off through nic.
func (p *Pool) Write(clk *simclock.Clock, nic *NIC, off int64, data []byte) error {
	if nic == nil {
		return fmt.Errorf("rdma: write without a NIC")
	}
	if err := p.dev.WholeRegion().WriteRaw(off, data); err != nil {
		return err
	}
	nic.charge(clk, WriteLatency, int64(len(data)))
	return nil
}

// Send models a two-sided RDMA message of size bytes (invalidation traffic
// in the RDMA-MP baseline). No data lands in the pool; only costs apply.
func (n *NIC) Send(clk *simclock.Clock, size int64) {
	n.charge(clk, WriteLatency, size)
}
