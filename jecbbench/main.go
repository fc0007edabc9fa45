// Command jecbbench is the repository benchmark. It drives the same public
// entry points cmd/jecb calls — load, trace generation, JECB partitioning,
// evaluation, routing, and the 2PC and quorum-replicated commit replays —
// on one workload, checks every output, and prints one JSON line of
// metrics. NOTES.md defines the workloads and every metric.
//
// Usage, from the repository root:
//
//	bash jecbbench/run.sh --workload tpcc --seed 1 --seconds 24 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans around
// every layer call, reports the per-layer metrics and writes the spans as
// JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	_ "repro/internal/workloads/all"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain parses args, runs one workload, prints the result line to
// stdout and returns the exit code. Progress and failures go to stderr.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jecbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloadTable {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "workload seed: drives data, trace, split and partitioner")
	seconds := fs.Float64("seconds", 24, "measuring time, shared equally by the run's datasets")
	traceFlag := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
	workDir := fs.String("work-dir", ".bench_build", "directory for WAL files and span dumps")
	spansOut := fs.String("spans-out", "", "traced runs write spans here (default <work-dir>/spans/<workload>-seed<n>.json)")
	quick := fs.Bool("quick", false, "scale every workload down (harness smoke test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "jecbbench: --trace must be 0 or 1")
		return 2
	}
	var w workload
	found := false
	for _, cand := range workloadTable {
		if cand.name == *name {
			w, found = cand, true
		}
	}
	if !found {
		fmt.Fprintf(stderr, "jecbbench: unknown workload %q (have: %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *quick {
		w = quickTable[w.name]
	}
	if *spansOut == "" {
		*spansOut = filepath.Join(*workDir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "jecbbench:", err)
		return 1
	}
	res, err := run(w, runConfig{seed: *seed, seconds: *seconds, traced: *traceFlag == 1,
		workDir: *workDir, spansOut: *spansOut, log: stderr})
	if err != nil {
		fmt.Fprintln(stderr, "jecbbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "jecbbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
