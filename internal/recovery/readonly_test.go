package recovery

import (
	"bytes"
	"testing"

	"polarcxlmem/internal/simclock"
)

// readsThenRecover preloads a table, commits one writer, runs reads
// read-only transactions, crashes the host and runs PolarRecv, with no
// checkpoints at all. It returns the recovery's log-scan bytes and redo
// record count.
func readsThenRecover(t *testing.T, reads int) (scanBytes int64, redoRecords int) {
	t.Helper()
	const rows = 200
	r := newCXLRig(t, 64)
	tr, err := r.eng.CreateTable(r.clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	preload := r.eng.Begin(r.clk)
	for k := int64(0); k < rows; k++ {
		if err := preload.Insert(tr, k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := preload.Commit(); err != nil {
		t.Fatal(err)
	}
	writer := r.eng.Begin(r.clk)
	if err := writer.Update(tr, 7, []byte("the-last-write")); err != nil {
		t.Fatal(err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < reads; i++ {
		tx := r.eng.Begin(r.clk)
		if _, err := tx.Get(tr, int64(i*13)%rows); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	_, eng2, res := r.crashAndRecover(t)
	clk := simclock.New()
	tr2, err := eng2.Table(clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < rows; k++ {
		want := val(k)
		if k == 7 {
			want = []byte("the-last-write")
		}
		if v, err := tr2.Get(clk, k); err != nil || !bytes.Equal(v, want) {
			t.Fatalf("after %d reads: Get(%d) = %q, %v; want %q", reads, k, v, err, want)
		}
	}
	return res.LogScanBytes, res.RedoRecords
}

// TestPolarRecvScansNoLogPastLastWriter: read-only transactions write no
// log, so with checkpoints off the log PolarRecv scans ends at the last
// writer however many reads ran after it.
func TestPolarRecvScansNoLogPastLastWriter(t *testing.T) {
	scan0, redo0 := readsThenRecover(t, 0)
	scan, redo := readsThenRecover(t, 1000)
	if scan != scan0 || redo != redo0 {
		t.Fatalf("after 1000 reads recovery scanned %d B and %d redo records, want %d B and %d as with none",
			scan, redo, scan0, redo0)
	}
}
