package bench

import (
	"io"
	"strconv"
	"strings"
	"testing"
)

// run executes an experiment in quick mode and returns its tables. Any
// BENCH_*.json it emits goes to a per-test temporary directory.
func run(t *testing.T, id string) []*Table {
	t.Helper()
	return runIn(t, id, t.TempDir())
}

// runIn is run with the experiment's JSON documents written to dir.
func runIn(t *testing.T, id, dir string) []*Table {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	tabs, err := e.Run(Config{Quick: true, OutDir: dir})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tabs) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	for _, tb := range tabs {
		tb.Print(io.Discard)
		if len(tb.Headers) == 0 || len(tb.Rows) == 0 {
			t.Fatalf("%s: empty table %q", id, tb.Title)
		}
		for _, r := range tb.Rows {
			if len(r) != len(tb.Headers) {
				t.Fatalf("%s: ragged row %v vs headers %v", id, r, tb.Headers)
			}
		}
	}
	return tabs
}

func cell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSuffix(tb.Rows[row][col], "%"), "x")
	s = strings.TrimPrefix(s, "+")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell [%d][%d] = %q not numeric: %v", row, col, tb.Rows[row][col], err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "table3", "fig1", "fig3", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "ablate-tier", "ablate-meta", "ablate-sync", "cxl3",
		"doorbell", "mp-engine", "dataplane"}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(Experiments()) < len(want) {
		t.Fatalf("registry has %d experiments, want >= %d", len(Experiments()), len(want))
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID found a nonexistent experiment")
	}
}

func TestTable1EchoesCalibration(t *testing.T) {
	tb := run(t, "table1")[0]
	// measured == paper for every profile (columns: local, remote, paper-local, paper-remote).
	for i := range tb.Rows {
		if tb.Rows[i][1] != tb.Rows[i][3] || tb.Rows[i][2] != tb.Rows[i][4] {
			t.Fatalf("row %v: measured != calibrated", tb.Rows[i])
		}
	}
}

func TestTable2ShapeCXLFasterSmall(t *testing.T) {
	tb := run(t, "table2")[0]
	// At 64B CXL must be ~5-6x faster in both directions (paper: 5.74x/6.07x).
	rw, cw := cell(t, tb, 0, 1), cell(t, tb, 0, 2)
	rr, cr := cell(t, tb, 0, 3), cell(t, tb, 0, 4)
	if rw/cw < 3 || rr/cr < 3 {
		t.Fatalf("64B CXL advantage too small: write %f/%f read %f/%f", rw, cw, rr, cr)
	}
	// CXL latency grows faster with size than RDMA (the §2.3 observation).
	last := len(tb.Rows) - 1
	cxlGrowth := cell(t, tb, last, 4) / cr
	rdmaGrowth := cell(t, tb, last, 3) / rr
	if cxlGrowth <= rdmaGrowth {
		t.Fatalf("CXL growth %.2f not larger than RDMA growth %.2f", cxlGrowth, rdmaGrowth)
	}
}

func TestFig1ShapeLBPReducesBandwidth(t *testing.T) {
	tabs := run(t, "fig1")
	for _, tb := range tabs {
		first := cell(t, tb, 0, 2)             // GB/s at LBP-10%
		last := cell(t, tb, len(tb.Rows)-1, 2) // GB/s at LBP-100%
		if last >= first {
			t.Fatalf("%s: bandwidth did not fall with LBP size: %f -> %f", tb.Title, first, last)
		}
	}
}

func TestFig3ShapeCXLWithinReach(t *testing.T) {
	tabs := run(t, "fig3")
	// Point-select at max scale: CXL within 25% of DRAM (paper: ~7%).
	tb := tabs[0]
	last := len(tb.Rows) - 1
	dram, cxl := cell(t, tb, last, 1), cell(t, tb, last, 4)
	if cxl > dram {
		t.Logf("note: CXL above DRAM (%f > %f); acceptable but unusual", cxl, dram)
	}
	if cxl < dram*0.75 {
		t.Fatalf("CXL-BP %f more than 25%% below DRAM-BP %f at 12 instances", cxl, dram)
	}
}

func TestFig7ShapeRDMASaturatesCXLScales(t *testing.T) {
	tb := run(t, "fig7")[0]
	n := len(tb.Rows)
	// RDMA throughput at 12 instances must be well below 12x its 1-instance
	// value (saturation), while CXL stays near-linear.
	r1, r12 := cell(t, tb, 0, 1), cell(t, tb, n-1, 1)
	c1, c12 := cell(t, tb, 0, 4), cell(t, tb, n-1, 4)
	if r12 > 6*r1 {
		t.Fatalf("RDMA did not saturate: %f -> %f", r1, r12)
	}
	if c12 < 9*c1 {
		t.Fatalf("CXL did not scale: %f -> %f", c1, c12)
	}
	// RDMA bandwidth pinned at the NIC limit at max scale.
	if bw := cell(t, tb, n-1, 3); bw < 11 || bw > 12.5 {
		t.Fatalf("saturated RDMA bandwidth %f GB/s, want ~12", bw)
	}
	// RDMA latency rises steeply past the knee; CXL latency stays flat-ish.
	rLat1, rLatN := cell(t, tb, 0, 2), cell(t, tb, n-1, 2)
	cLat1, cLatN := cell(t, tb, 0, 5), cell(t, tb, n-1, 5)
	if rLatN < 2*rLat1 {
		t.Fatalf("RDMA latency did not climb: %f -> %f", rLat1, rLatN)
	}
	if cLatN > 1.5*cLat1 {
		t.Fatalf("CXL latency climbed: %f -> %f", cLat1, cLatN)
	}
}

func TestFig10ShapeRecoveryOrdering(t *testing.T) {
	tabs := run(t, "fig10")
	// Every "Recovery summary" table: vanilla >= rdma >= polarrecv, and
	// vanilla at least 5x polarrecv.
	checked := 0
	for _, tb := range tabs {
		if !strings.Contains(tb.Title, "summary") {
			continue
		}
		vanilla := cell(t, tb, 0, 1)
		rdma := cell(t, tb, 1, 1)
		recv := cell(t, tb, 2, 1)
		if !(recv <= rdma && rdma <= vanilla) {
			t.Fatalf("%s: ordering violated: %f / %f / %f", tb.Title, vanilla, rdma, recv)
		}
		if vanilla > 0 && vanilla < 5*maxf(recv, 0.0001) {
			t.Fatalf("%s: vanilla %f not >> polarrecv %f", tb.Title, vanilla, recv)
		}
		checked++
	}
	if checked != 3 {
		t.Fatalf("found %d summary tables, want 3", checked)
	}
}

func TestFig11ShapeCXLWinsEverywhere(t *testing.T) {
	tb := run(t, "fig11")[0]
	for i := range tb.Rows {
		if imp := cell(t, tb, i, 3); imp <= 0 {
			t.Fatalf("row %s: improvement %f not positive", tb.Rows[i][0], imp)
		}
	}
	// Throughput decreases with sharing for both systems (contention).
	if cell(t, tb, len(tb.Rows)-1, 1) >= cell(t, tb, 0, 1) {
		t.Fatal("RDMA throughput did not fall with sharing")
	}
	if cell(t, tb, len(tb.Rows)-1, 2) >= cell(t, tb, 0, 2) {
		t.Fatal("CXL throughput did not fall with sharing")
	}
}

func TestFig13ShapeLBPClosesGapButNeverWins(t *testing.T) {
	tb := run(t, "fig13")[0]
	for i := range tb.Rows {
		lbp10 := cell(t, tb, i, 1)
		lbp100 := cell(t, tb, i, 5)
		cxl := cell(t, tb, i, 6)
		if lbp100 < lbp10 {
			t.Fatalf("row %s: larger LBP got slower (%f < %f)", tb.Rows[i][0], lbp100, lbp10)
		}
		if cxl < lbp100*0.95 {
			t.Fatalf("row %s: CXL %f lost to LBP-100%% %f", tb.Rows[i][0], cxl, lbp100)
		}
	}
}

func TestTable3ShapeCXLBest(t *testing.T) {
	tb := run(t, "table3")[0]
	// TpmC and TATP QPS rows: CXL column (4) >= both RDMA columns.
	for _, row := range tb.Rows {
		if row[1] != "TpmC (M)" && row[1] != "QPS (M)" {
			continue
		}
		r10, _ := strconv.ParseFloat(row[2], 64)
		r30, _ := strconv.ParseFloat(row[3], 64)
		cxl, _ := strconv.ParseFloat(row[4], 64)
		if cxl < r10 || cxl < r30 {
			t.Fatalf("row %v: CXL not best", row)
		}
	}
}

func TestAblationsShape(t *testing.T) {
	tier := run(t, "ablate-tier")[0]
	if amp := cell(t, tier, 0, 1) / maxf(cell(t, tier, 1, 1), 1); amp < 5 {
		t.Fatalf("tier amplification only %.1fx", amp)
	}
	meta := run(t, "ablate-meta")[0]
	if cell(t, meta, 0, 1) >= cell(t, meta, 1, 1) {
		t.Fatal("PolarRecv not faster than DRAM-metadata recovery")
	}
	sync := run(t, "ablate-sync")[0]
	// Amplification monotonically decreasing with dirtied span.
	prev := cell(t, sync, 0, 3)
	for i := 1; i < len(sync.Rows); i++ {
		cur := cell(t, sync, i, 3)
		if cur > prev {
			t.Fatalf("sync amplification not decreasing: %f after %f", cur, prev)
		}
		prev = cur
	}
}

func TestCXL3ShapeHardwareAtLeastAsGood(t *testing.T) {
	tb := run(t, "cxl3")[0]
	for i := range tb.Rows {
		sw := cell(t, tb, i, 2)
		hw := cell(t, tb, i, 3)
		if hw < sw*0.98 {
			t.Fatalf("row %s: hardware coherency (%f) lost to software (%f)", tb.Rows[i][0], hw, sw)
		}
	}
}

func TestDoorbellShape(t *testing.T) {
	tb := run(t, "doorbell")[0]
	last := len(tb.Rows) - 1
	// RDMA IOPS must plateau at the doorbell wall while CXL keeps scaling.
	if tb.Rows[last][2] != "doorbell" {
		t.Fatalf("RDMA bottleneck at max cores = %q, want doorbell", tb.Rows[last][2])
	}
	if cell(t, tb, last, 3) < 3*cell(t, tb, last, 1) {
		t.Fatalf("CXL (%s M) not well past the RDMA wall (%s M)", tb.Rows[last][3], tb.Rows[last][1])
	}
}

func TestMPEngineShape(t *testing.T) {
	tb := run(t, "mp-engine")[0]
	for i := range tb.Rows {
		if imp := cell(t, tb, i, 3); imp <= 0 {
			t.Fatalf("row %s: full-engine improvement %f not positive", tb.Rows[i][0], imp)
		}
		// Byte amplification: the RDMA engine moves at least 5x the CXL
		// fabric bytes per statement.
		if cell(t, tb, i, 4) < 5*cell(t, tb, i, 5) {
			t.Fatalf("row %s: amplification gap missing (%s vs %s B/stmt)",
				tb.Rows[i][0], tb.Rows[i][4], tb.Rows[i][5])
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Headers: []string{"a", "b"}, Rows: [][]string{{"1", "x,y"}, {"2", "plain"}}}
	var sb strings.Builder
	tb.CSV(&sb)
	want := "a,b\n1,\"x,y\"\n2,plain\n"
	if sb.String() != want {
		t.Fatalf("csv = %q, want %q", sb.String(), want)
	}
}
