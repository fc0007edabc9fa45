package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the harness must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestHarnessEmitsEveryMetric runs every workload of BENCHMARK.json at
// smoke-test size, untraced and traced, and checks that each run passes
// its correctness checks and emits exactly the metrics BENCHMARK.json
// names, each with its unit.
func TestHarnessEmitsEveryMetric(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadTable) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(sp.Workloads), len(workloadTable))
	}
	for _, w := range sp.Workloads {
		for trace, want := range map[string][]specMetric{"0": sp.EndToEnd, "1": sp.PerLayer} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				dir := t.TempDir()
				spans := filepath.Join(dir, "spans.json")
				var stdout, stderr bytes.Buffer
				code := realMain([]string{"--workload", w.Name, "--seed", "7", "--seconds", "0",
					"--trace", trace, "--quick", "--work-dir", dir, "--spans-out", spans}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				_, err := os.Stat(spans)
				if traced := trace == "1"; traced != (err == nil) {
					t.Errorf("traced=%v but spans file stat: %v", traced, err)
				}
			})
		}
	}
}

// TestUnknownWorkloadFails checks that a bad invocation prints no result.
func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}
