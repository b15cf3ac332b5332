// Package bench regenerates every table and figure of the paper's
// evaluation (§4). Each experiment builds the relevant functional rig, runs
// the workload to measure per-operation demands, feeds them to the
// closed-network solver in internal/perf, and prints the same rows/series
// the paper reports. DESIGN.md carries the experiment index; EXPERIMENTS.md
// records paper-vs-measured for each artifact.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"polarcxlmem/internal/obs"
)

// Table is one experiment's printable output.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Print renders the table.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n=== %s — %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// CSV renders the table as RFC-4180-ish CSV (quoted cells where needed).
func (t *Table) CSV(w io.Writer) {
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				fmt.Fprintf(w, "%q", c)
			} else {
				fmt.Fprint(w, c)
			}
		}
		fmt.Fprintln(w)
	}
	row(t.Headers)
	for _, r := range t.Rows {
		row(r)
	}
}

// Experiment is a runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) ([]*Table, error)
}

// Config scales experiments: Quick keeps functional op counts small enough
// for unit-test latency; the full size is the default for the CLI. OutDir,
// when set, is where the experiments with a JSON document (commit, fabric,
// dataplane, tiering) write their BENCH_*.json; when empty they write none.
// Registry (nil for none) is handed to the rigs an experiment builds as
// they are constructed: substrate devices, RPC fabrics, frame tables, the
// sharing protocol, and recovery all report there, and the trace-backed
// invariant checkers see the full event stream.
type Config struct {
	Quick    bool
	OutDir   string
	Registry *obs.Registry
}

// writeJSON writes doc as indented JSON to name under c.OutDir and returns
// the table note saying so. With no OutDir it writes nothing and returns no
// note.
func (c Config) writeJSON(name string, doc any) ([]string, error) {
	if c.OutDir == "" {
		return nil, nil
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(c.OutDir, name)
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("writing %s: %w", name, err)
	}
	return []string{"full results written to " + path}, nil
}

// ops picks an op count by mode.
func (c Config) ops(quick, full int) int {
	if c.Quick {
		return quick
	}
	return full
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments lists all registered experiments sorted by id.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// formatting helpers

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func kqps(v float64) string { return fmt.Sprintf("%.0f", v/1e3) }

func gbps(v float64) string { return fmt.Sprintf("%.2f", v/1e9) }

func us(v float64) string { return fmt.Sprintf("%.0f", v*1e6) }

func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
