package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from the current code")

// goldenIDs are the quick-mode experiments whose printed tables are pinned
// byte for byte. Every one is deterministic in virtual time. "commit" is
// left out because it writes BENCH_commit.json into the working directory;
// TestCommitPointReproducible pins its determinism instead.
var goldenIDs = []string{
	"ablate-meta", "ablate-tier", "cxl3", "doorbell", "fig7", "fig11", "fig13",
	"mp-crash", "mp-engine", "table1", "table2", "table3",
}

// TestQuickGolden runs the goldenIDs experiments in quick mode and compares
// their printed tables with testdata/quick.golden. A change that should move
// a result regenerates the file with
//
//	go test ./internal/bench -run TestQuickGolden -update
//
// and ships the diff for review.
func TestQuickGolden(t *testing.T) {
	var got bytes.Buffer
	for _, id := range goldenIDs {
		for _, tb := range run(t, id) {
			tb.Print(&got)
		}
	}
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (go test ./internal/bench -run TestQuickGolden -update): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl := strings.Split(got.String(), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("quick-mode tables drifted from %s at line %d:\n  want %q\n   got %q", path, i+1, w, g)
		}
	}
}
