package bench

import "fmt"

func init() {
	register(Experiment{ID: "cxl3", Title: "Projection: CXL 3.0 hardware coherency vs the software protocol", Run: runCXL3})
}

// runCXL3 sweeps the shared-data percentage for point-update on 8 nodes and
// compares three coherency regimes.
func runCXL3(cfg Config) ([]*Table, error) {
	nodes := 8
	pagesPerGroup := cfg.ops(8, 64)
	t := &Table{ID: "cxl3", Title: "Point-update, 8 nodes: RDMA-MP vs CXL 2.0 software coherency vs CXL 3.0 hardware",
		Headers: []string{"shared %", "RDMA K-QPS", "CXL2 sw K-QPS", "CXL3 hw K-QPS", "hw vs sw", "sw hold us", "hw hold us"}}
	for _, pct := range []int{0, 20, 40, 60, 80, 100} {
		rRes, _, err := sharingPoint(cfg, "rdma", nodes, pagesPerGroup, pct, pointUpdateWL, 0.30)
		if err != nil {
			return nil, err
		}
		cRes, cDem, err := sharingPoint(cfg, "cxl", nodes, pagesPerGroup, pct, pointUpdateWL, 0)
		if err != nil {
			return nil, err
		}
		hRes, hDem, err := sharingPoint(cfg, "cxl3", nodes, pagesPerGroup, pct, pointUpdateWL, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d%%", pct),
			kqps(rRes.Throughput), kqps(cRes.Throughput), kqps(hRes.Throughput),
			fmt.Sprintf("%+.0f%%", (hRes.Throughput/cRes.Throughput-1)*100),
			f1(cDem.LockHoldNs/1000), f1(hDem.LockHoldNs/1000))
	}
	t.Notes = append(t.Notes,
		"the paper's software protocol exists because CXL 2.0 switches lack coherency (§3.3);",
		"this projection removes the clflush-on-release and flag traffic that hardware coherency makes redundant.",
		"Frame recycling still uses removal flags — capacity management is not a coherency problem.")
	return []*Table{t}, nil
}
