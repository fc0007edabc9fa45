// Parallel-search benchmarks and the BENCH_parallel.json exporter: the
// full JECB search (core.Partition, phases 1–3) on TPC-C and SEATS at a
// sweep of worker counts. Loading the database and generating the trace
// happen once per case, outside the timed loop. Phase-level benchmarks
// live in internal/core/parallel_bench_test.go and the evaluator's in
// internal/eval/parallel_bench_test.go.
//
// Run:
//
//	go test -bench=BenchmarkPartition -benchmem .       # timings only
//	BENCH_EXPORT=1 go test -run TestParallelBenchExport -v .
//
// or `make bench-export`. The export records wall-clock at Parallelism 1
// and 8 plus the speedup ratio and the host's CPU count — on a
// single-core host the ratio is necessarily ~1x, so num_cpu is part of
// the record, not an excuse left to the reader.
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workloads"
	_ "repro/internal/workloads/all"
)

// parallelBenchCase is one (benchmark, scale, txns) pipeline workload.
type parallelBenchCase struct {
	name  string
	scale int
	txns  int
}

var parallelBenchCases = []parallelBenchCase{
	{"tpcc", 8, 2000},
	{"seats", 300, 2000},
}

// pipelineInput loads the case's database and generates its trace: the
// set-up the pipeline benchmarks keep outside the timed loop.
func pipelineInput(tb testing.TB, c parallelBenchCase) core.Input {
	tb.Helper()
	b, ok := workloads.Get(c.name)
	if !ok {
		tb.Fatalf("unknown benchmark %q", c.name)
	}
	d, err := b.Load(workloads.Config{Scale: c.scale, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	full := workloads.GenerateTrace(b, d, c.txns, 2)
	train, test := full.TrainTest(0.5, rand.New(rand.NewSource(3)))
	return core.Input{DB: d, Procedures: workloads.Procedures(b), Train: train, Test: test}
}

// partitionOnce runs the JECB search (core.Partition) at the given worker
// count and returns the canonical solution JSON (the determinism
// fingerprint).
func partitionOnce(tb testing.TB, in core.Input, workers int) []byte {
	tb.Helper()
	sol, _, err := core.Partition(context.Background(), in,
		core.Options{K: 8, Seed: 42, Parallelism: workers})
	if err != nil {
		tb.Fatal(err)
	}
	data, err := json.Marshal(sol)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func benchPartition(b *testing.B, c parallelBenchCase) {
	in := pipelineInput(b, c)
	for _, workers := range []int{1, 2, 8} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				partitionOnce(b, in, workers)
			}
		})
	}
}

func BenchmarkPartitionTPCC(b *testing.B)  { benchPartition(b, parallelBenchCases[0]) }
func BenchmarkPartitionSEATS(b *testing.B) { benchPartition(b, parallelBenchCases[1]) }

// parallelRecord is one (benchmark, parallelism) timing in the export.
type parallelRecord struct {
	Benchmark   string  `json:"benchmark"`
	Parallelism int     `json:"parallelism"`
	NsPerOp     float64 `json:"ns_per_op"`
}

// parallelSpeedup summarizes one benchmark's 1-vs-8 worker ratio.
type parallelSpeedup struct {
	Benchmark string  `json:"benchmark"`
	SpeedupP8 float64 `json:"speedup_p8_vs_p1"`
	// Identical reports whether the solution JSON was byte-identical
	// across the measured worker counts (the determinism contract).
	Identical bool `json:"solutions_identical"`
}

// parallelExport is the BENCH_parallel.json document.
type parallelExport struct {
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	WrittenAt  string            `json:"written_at"`
	Results    []parallelRecord  `json:"results"`
	Speedups   []parallelSpeedup `json:"speedups"`
}

// TestParallelBenchExport writes BENCH_parallel.json when BENCH_EXPORT is
// set (a value other than "1" overrides the output path): core.Partition
// wall-clock on TPC-C and SEATS at Parallelism 1 and 8, the resulting
// speedup ratio, and a byte-identity check of the solutions the two
// worker counts produced.
func TestParallelBenchExport(t *testing.T) {
	dest := os.Getenv("BENCH_EXPORT")
	if dest == "" {
		t.Skip("set BENCH_EXPORT=1 (or a path) to export parallel benchmark results")
	}
	if dest == "1" {
		dest = "BENCH_parallel.json"
	}
	doc := parallelExport{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		WrittenAt:  time.Now().UTC().Format(time.RFC3339),
	}
	for _, c := range parallelBenchCases {
		in := pipelineInput(t, c)
		perWorkers := map[int]float64{}
		var fingerprints [][]byte
		for _, workers := range []int{1, 8} {
			workers := workers
			fingerprints = append(fingerprints, partitionOnce(t, in, workers))
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					partitionOnce(b, in, workers)
				}
			})
			if res.N == 0 {
				t.Fatalf("%s/p%d: benchmark did not run", c.name, workers)
			}
			ns := float64(res.T.Nanoseconds()) / float64(res.N)
			perWorkers[workers] = ns
			doc.Results = append(doc.Results, parallelRecord{
				Benchmark: c.name, Parallelism: workers, NsPerOp: ns,
			})
			t.Logf("%-8s p=%d %12.0f ns/op", c.name, workers, ns)
		}
		identical := len(fingerprints) == 2 && bytes.Equal(fingerprints[0], fingerprints[1])
		if !identical {
			t.Errorf("%s: solutions differ across worker counts", c.name)
		}
		doc.Speedups = append(doc.Speedups, parallelSpeedup{
			Benchmark: c.name,
			SpeedupP8: perWorkers[1] / perWorkers[8],
			Identical: identical,
		})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dest, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("parallel benchmark results written to %s", dest)
}
