// Command polarbench regenerates the paper's tables and figures.
//
// Usage:
//
//	polarbench list               # show available experiment ids
//	polarbench all [-quick]       # run everything
//	polarbench fig7 table3 ...    # run specific experiments
//
// -quick shrinks functional op counts (CI-sized); the default sizes match
// the results recorded in EXPERIMENTS.md.
//
// -o DIR writes the JSON documents of the commit, fabric, dataplane and
// tiering experiments (BENCH_*.json) into DIR; without it they write none,
// so a quick run never overwrites the checked-in full-mode files.
//
// -metrics FILE writes a JSON snapshot of every runtime metric (counters,
// gauges, virtual-time histograms) plus any invariant-checker violations on
// exit; -trace FILE dumps the sampled trace-event ring as JSON lines. Both
// run the stale-read / lock-leak / frame-leak checkers over the full event
// stream and report violations on stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"polarcxlmem/internal/bench"
	"polarcxlmem/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "CI-sized runs (smaller datasets and op counts)")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	outDir := flag.String("o", "", "write BENCH_*.json documents into this directory (none when empty)")
	metricsPath := flag.String("metrics", "", "write a JSON metrics snapshot to this file on exit")
	tracePath := flag.String("trace", "", "write the sampled trace events (JSON lines) to this file on exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: polarbench [-quick] [-o dir] list|all|<experiment-id>...\n\nexperiments:\n")
		for _, e := range bench.Experiments() {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.ID, e.Title)
		}
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if args[0] == "list" {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	var ids []string
	if args[0] == "all" {
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = args
	}
	var reg *obs.Registry
	if *metricsPath != "" || *tracePath != "" {
		reg = obs.New(obs.Options{})
		for _, c := range obs.DefaultCheckers() {
			reg.AddChecker(c)
		}
	}
	cfg := bench.Config{Quick: *quick, OutDir: *outDir, Registry: reg}
	for _, id := range ids {
		e, ok := bench.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "polarbench: unknown experiment %q (try 'list')\n", id)
			os.Exit(1)
		}
		start := time.Now()
		tables, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "polarbench: %s failed: %v\n", id, err)
			os.Exit(1)
		}
		for i, t := range tables {
			t.Print(os.Stdout)
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					fmt.Fprintln(os.Stderr, "polarbench:", err)
					os.Exit(1)
				}
				name := filepath.Join(*csvDir, fmt.Sprintf("%s_%d.csv", id, i))
				f, err := os.Create(name)
				if err != nil {
					fmt.Fprintln(os.Stderr, "polarbench:", err)
					os.Exit(1)
				}
				t.CSV(f)
				f.Close()
			}
		}
		// Progress only — wall time varies per machine, so it goes to stderr;
		// stdout carries nothing but virtual-time results and is byte-for-byte
		// reproducible across machines (the recorded BENCH outputs depend on
		// that).
		fmt.Fprintf(os.Stderr, "  [%s completed in %.1fs wall time]\n", id, time.Since(start).Seconds())
	}
	if reg == nil {
		return
	}
	violations := reg.Finish()
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "polarbench: invariant violation [%s]: %s\n", v.Checker, v.Detail)
	}
	writeTo := func(path string, write func(io.Writer) error) {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "polarbench:", err)
			os.Exit(1)
		}
		werr := write(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "polarbench: writing %s: %v\n", path, werr)
			os.Exit(1)
		}
	}
	if *metricsPath != "" {
		writeTo(*metricsPath, reg.WriteJSON)
	}
	if *tracePath != "" {
		writeTo(*tracePath, reg.WriteTrace)
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
}
