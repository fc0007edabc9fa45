// Benchmark export: TestBenchExport re-runs the micro-benchmarks under
// testing.Benchmark and writes their results as JSON, so successive
// changes leave a machine-readable perf trajectory next to the repo.
//
// The export is opt-in (it costs benchmark time on every run otherwise):
//
//	BENCH_EXPORT=1 go test -run TestBenchExport .     # writes BENCH_obs.json
//	BENCH_EXPORT=perf.json go test -run TestBenchExport .
//
// or `make bench-export`.
package repro_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

// benchRecord is one exported benchmark result.
type benchRecord struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchExport is the BENCH_obs.json document.
type benchExport struct {
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	NumCPU    int           `json:"num_cpu"`
	WrittenAt string        `json:"written_at"`
	Results   []benchRecord `json:"results"`
}

// TestBenchExport writes the micro-benchmark results to BENCH_obs.json
// when BENCH_EXPORT is set (a value other than "1" overrides the output
// path). It is a test rather than a benchmark so one `go test` invocation
// produces the artifact deterministically, without -bench flag plumbing.
func TestBenchExport(t *testing.T) {
	dest := os.Getenv("BENCH_EXPORT")
	if dest == "" {
		t.Skip("set BENCH_EXPORT=1 (or a path) to export benchmark results")
	}
	if dest == "1" {
		dest = "BENCH_obs.json"
	}
	// Micro-benchmarks only: the experiment-scale benchmarks take minutes
	// and belong to `go test -bench`, not the perf-trajectory artifact.
	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"PathEval", BenchmarkPathEval},
		{"Evaluate", BenchmarkEvaluate},
		{"EvaluateLegacy", BenchmarkEvaluateLegacy},
		{"GraphPartition", BenchmarkGraphPartition},
		{"RouterNew", func(b *testing.B) { benchRouterNew(b, "tpcc", 8) }},
		{"ValueHash", BenchmarkValueHash},
		{"HDRObserve", BenchmarkHDRObserve},
		{"TraceEvent", BenchmarkTraceEvent},
		{"TraceEventDisabled", BenchmarkTraceEventDisabled},
	}
	doc := benchExport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		WrittenAt: time.Now().UTC().Format(time.RFC3339),
	}
	for _, b := range benches {
		res := testing.Benchmark(b.fn)
		if res.N == 0 {
			t.Fatalf("%s: benchmark did not run", b.name)
		}
		doc.Results = append(doc.Results, benchRecord{
			Name:        b.name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
		t.Logf("%-16s %12.0f ns/op %8d allocs/op %10d B/op",
			b.name, doc.Results[len(doc.Results)-1].NsPerOp,
			res.AllocsPerOp(), res.AllocedBytesPerOp())
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dest, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("benchmark results written to %s", dest)
}
