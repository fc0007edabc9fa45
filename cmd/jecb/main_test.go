package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/workloads"
	_ "repro/internal/workloads/all"
)

func TestRunAllAlgorithms(t *testing.T) {
	for _, algo := range []string{"jecb", "schism", "horticulture"} {
		sol, err := run(context.Background(), "tatp", algo, 4, 100, 400, 0.5, 1, 0, algo == "jecb", chaosOpts{}, driftOpts{}, serveOpts{}, "", "")
		if err != nil {
			t.Errorf("%s: %v", algo, err)
			continue
		}
		if sol == nil || sol.K != 4 {
			t.Errorf("%s: solution = %+v", algo, sol)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := run(context.Background(), "nope", "jecb", 4, 0, 100, 0.5, 1, 0, false, chaosOpts{}, driftOpts{}, serveOpts{}, "", ""); err == nil {
		t.Error("unknown benchmark must error")
	}
	if _, err := run(context.Background(), "tatp", "nope", 4, 100, 100, 0.5, 1, 0, false, chaosOpts{}, driftOpts{}, serveOpts{}, "", ""); err == nil {
		t.Error("unknown algorithm must error")
	}
	// A -train outside (0, 1] is a plain error, not a panic out of the
	// trace split.
	for _, frac := range []float64{1.5, 0, -0.25, math.NaN()} {
		_, err := run(context.Background(), "synthetic", "jecb", 2, 0, 200, frac, 1, 0, false, chaosOpts{}, driftOpts{}, serveOpts{}, "", "")
		if err == nil || !strings.Contains(err.Error(), "-train") {
			t.Errorf("-train %v: err = %v, want a -train error", frac, err)
		}
	}
}

func TestEffectiveScale(t *testing.T) {
	// Covered implicitly by TestRunAllAlgorithms; check the default path.
	if _, err := run(context.Background(), "synthetic", "jecb", 2, 0, 200, 0.5, 1, 0, false, chaosOpts{}, driftOpts{}, serveOpts{}, "", ""); err != nil {
		t.Errorf("default scale: %v", err)
	}
}

// TestRealMainArtifacts exercises the single exit path: solution JSON,
// metrics JSON, and trace report all produced from one run.
func TestRealMainArtifacts(t *testing.T) {
	dir := t.TempDir()
	solPath := filepath.Join(dir, "sol.json")
	metricsPath := filepath.Join(dir, "m.json")
	flightPath := filepath.Join(dir, "flight.json")
	if err := realMain("tatp", "jecb", 2, 50, 200, 0.5, 1, 0,
		false, solPath, metricsPath, true, "", chaosOpts{}, driftOpts{},
		flightOpts{dump: flightPath, cap: 1 << 16}, serveOpts{}, "", ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(solPath)
	if err != nil {
		t.Fatal(err)
	}
	var sol partition.Solution
	if err := json.Unmarshal(data, &sol); err != nil {
		t.Fatal(err)
	}
	if sol.K != 2 || sol.Table("SUBSCRIBER") == nil {
		t.Errorf("reloaded solution = %+v", sol)
	}
	mdata, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]json.RawMessage
	if err := json.Unmarshal(mdata, &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) == 0 {
		t.Error("metrics JSON is empty")
	}
	fdata, err := os.ReadFile(flightPath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]json.RawMessage
	if err := json.Unmarshal(fdata, &events); err != nil {
		t.Fatal(err)
	}
	// A plain run still records the routing decision stream.
	if len(events) == 0 {
		t.Error("flight dump is empty; expected route events from routeStage")
	}
}

// TestRunChaosStage exercises the -chaos pipeline tail: builtin scenario
// by name and scenario loaded from a JSON file.
func TestRunChaosStage(t *testing.T) {
	if _, err := run(context.Background(), "synthetic", "jecb", 2, 0, 200, 0.5, 1, 0, false,
		chaosOpts{enabled: true, seed: 7, scenario: "rolling"}, driftOpts{}, serveOpts{}, "", ""); err != nil {
		t.Errorf("builtin scenario: %v", err)
	}
	path := filepath.Join(t.TempDir(), "sc.json")
	scJSON := `{"name":"one-node-blip","crashes":[{"node":0,"start":1,"end":2}],"msg_loss_prob":0.05}`
	if err := os.WriteFile(path, []byte(scJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), "synthetic", "jecb", 2, 0, 200, 0.5, 1, 0, false,
		chaosOpts{enabled: true, seed: 7, scenario: path}, driftOpts{}, serveOpts{}, "", ""); err != nil {
		t.Errorf("file scenario: %v", err)
	}
	// Malformed scenario files surface as errors, not panics.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), "synthetic", "jecb", 2, 0, 200, 0.5, 1, 0, false,
		chaosOpts{enabled: true, seed: 7, scenario: bad}, driftOpts{}, serveOpts{}, "", ""); err == nil {
		t.Error("malformed scenario must error")
	}

	// With -wal-dir, the durable replay follows on one of three engines,
	// each of which leaves its logs in the directory: the in-process 2PC
	// engine, networked 2PC (-transport bus -standby) and replica groups
	// (-replicate -commit-rule quorum).
	for _, c := range []struct {
		name string
		co   chaosOpts
		logs string
		n    int
	}{
		{"durable", chaosOpts{scenario: "part-crash"}, "partition-*.wal", 2},
		{"twopc", chaosOpts{scenario: "coord-crash", transport: "bus", standby: true}, "partition-*.wal", 2},
		{"repl", chaosOpts{scenario: "single-crash", replicate: true, replicas: 2, commitRule: "quorum"}, "group-*-m*.wal", 6},
	} {
		t.Run(c.name, func(t *testing.T) {
			co := c.co
			co.enabled, co.seed, co.walDir = true, 7, t.TempDir()
			if _, err := run(context.Background(), "synthetic", "jecb", 2, 0, 200, 0.5, 1, 0, false,
				co, driftOpts{}, serveOpts{}, "", ""); err != nil {
				t.Fatal(err)
			}
			logs, err := filepath.Glob(filepath.Join(co.walDir, c.logs))
			if err != nil {
				t.Fatal(err)
			}
			if len(logs) != c.n {
				t.Errorf("%d logs matching %s in the WAL dir, want %d: %v", len(logs), c.logs, c.n, logs)
			}
		})
	}
}

// TestRunDriftStage exercises the -drift pipeline tail: the drift
// replay runs after partitioning, on the same benchmark and seed.
func TestRunDriftStage(t *testing.T) {
	if _, err := run(context.Background(), "synthetic", "jecb", 2, 0, 400, 0.5, 1, 0, false,
		chaosOpts{}, driftOpts{scenario: "mix-flip", budget: 500, window: 100}, serveOpts{}, "", ""); err != nil {
		t.Errorf("drift stage: %v", err)
	}
	// Unknown scenarios surface as errors, not panics.
	if _, err := run(context.Background(), "synthetic", "jecb", 2, 0, 400, 0.5, 1, 0, false,
		chaosOpts{}, driftOpts{scenario: "nope", budget: 500, window: 100}, serveOpts{}, "", ""); err == nil {
		t.Error("unknown drift scenario must error")
	}
}

// TestRunServeStage exercises the -serve pipeline tail: the serving
// engine runs after partitioning, on the test trace, under an optional
// chaos scenario shared with the -chaos flags.
func TestRunServeStage(t *testing.T) {
	if _, err := run(context.Background(), "synthetic", "jecb", 2, 0, 300, 0.5, 1, 0, false,
		chaosOpts{}, driftOpts{}, serveOpts{enabled: true, load: 1, duration: 0.3, admission: true, seed: 3}, "", ""); err != nil {
		t.Errorf("serve stage: %v", err)
	}
	// The scenario is shared with the chaos bundle and validated the
	// same way: unknown names surface as errors, not panics.
	if _, err := run(context.Background(), "synthetic", "jecb", 2, 0, 300, 0.5, 1, 0, false,
		chaosOpts{}, driftOpts{}, serveOpts{enabled: true, load: 1, duration: 0.3, admission: true, seed: 3, scenario: "nope"}, "", ""); err == nil {
		t.Error("unknown serve scenario must error")
	}
	// So do unknown arrival processes.
	if _, err := run(context.Background(), "synthetic", "jecb", 2, 0, 300, 0.5, 1, 0, false,
		chaosOpts{}, driftOpts{}, serveOpts{enabled: true, load: 1, duration: 0.3, admission: true, seed: 3, arrival: "lumpy"}, "", ""); err == nil {
		t.Error("unknown arrival process must error")
	}
}

// TestRunTraceInput exercises -trace-in in both formats: a columnar file
// streams through the pipeline (partition, streaming evaluation, routing),
// a jsonl file loads whole; both must produce a solution.
func TestRunTraceInput(t *testing.T) {
	b, ok := workloads.Get("synthetic")
	if !ok {
		t.Fatal("synthetic benchmark missing")
	}
	d, err := b.Load(workloads.Config{Scale: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := workloads.GenerateTrace(b, d, 300, 2)
	dir := t.TempDir()

	colPath := filepath.Join(dir, "t.col")
	f, err := os.Create(colPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteColumnar(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Training takes the first 0.3·300 = 90 transactions; evaluation
	// and routing see only the 210 after them.
	var sol *partition.Solution
	out := stdout(t, func() {
		sol, err = run(context.Background(), "synthetic", "jecb", 2, 0, 0, 0.3, 1, 0, false,
			chaosOpts{}, driftOpts{}, serveOpts{}, colPath, "")
	})
	if err != nil {
		t.Fatalf("columnar -trace-in: %v", err)
	}
	if sol == nil || sol.K != 2 {
		t.Errorf("columnar -trace-in: solution = %+v", sol)
	}
	if !regexp.MustCompile(`jecb \(k=2\): .* \(\d+/210\)\n`).MatchString(out) {
		t.Errorf("columnar -trace-in must evaluate the 210 transactions after training:\n%s", out)
	}
	if !strings.Contains(out, "(210 invocations)") {
		t.Errorf("columnar -trace-in must route the 210 transactions after training:\n%s", out)
	}

	jsonlPath := filepath.Join(dir, "t.trace")
	jf, err := os.Create(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.WriteTo(jf); err != nil {
		t.Fatal(err)
	}
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), "synthetic", "jecb", 2, 0, 0, 0.5, 1, 0, false,
		chaosOpts{}, driftOpts{}, serveOpts{}, jsonlPath, ""); err != nil {
		t.Fatalf("jsonl -trace-in: %v", err)
	}

	// The columnar path rejects a bad -train as the generated one does.
	if _, err := run(context.Background(), "synthetic", "jecb", 2, 0, 0, 1.5, 1, 0, false,
		chaosOpts{}, driftOpts{}, serveOpts{}, colPath, ""); err == nil {
		t.Error("columnar -trace-in with -train 1.5 must error")
	}
	// Chaos replay needs the test trace in memory; a streamed columnar
	// input must be rejected, not silently materialized.
	if _, err := run(context.Background(), "synthetic", "jecb", 2, 0, 0, 0.5, 1, 0, false,
		chaosOpts{enabled: true, scenario: "rolling"}, driftOpts{}, serveOpts{}, colPath, ""); err == nil {
		t.Error("columnar -trace-in with -chaos must error")
	}
	// Missing files surface as errors.
	if _, err := run(context.Background(), "synthetic", "jecb", 2, 0, 0, 0.5, 1, 0, false,
		chaosOpts{}, driftOpts{}, serveOpts{}, filepath.Join(dir, "missing.col"), ""); err == nil {
		t.Error("missing -trace-in must error")
	}
}

// TestRunDBIn exercises -db-in: the trace's row universe comes from a
// tracegen -db-out snapshot instead of stub seeding, and the flag is
// rejected without -trace-in.
func TestRunDBIn(t *testing.T) {
	b, ok := workloads.Get("synthetic")
	if !ok {
		t.Fatal("synthetic benchmark missing")
	}
	d, err := b.Load(workloads.Config{Scale: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := workloads.GenerateTrace(b, d, 300, 2)
	dir := t.TempDir()

	colPath := filepath.Join(dir, "t.col")
	f, err := os.Create(colPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteColumnar(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "t.snap")
	if err := os.WriteFile(snapPath, d.EncodeSnapshot(), 0o644); err != nil {
		t.Fatal(err)
	}

	sol, err := run(context.Background(), "synthetic", "jecb", 2, 0, 0, 0.5, 1, 0, false,
		chaosOpts{}, driftOpts{}, serveOpts{}, colPath, snapPath)
	if err != nil {
		t.Fatalf("-trace-in with -db-in: %v", err)
	}
	if sol == nil || sol.K != 2 {
		t.Errorf("-db-in: solution = %+v", sol)
	}

	if _, err := run(context.Background(), "synthetic", "jecb", 2, 0, 300, 0.5, 1, 0, false,
		chaosOpts{}, driftOpts{}, serveOpts{}, "", snapPath); err == nil {
		t.Error("-db-in without -trace-in must error")
	}
	if _, err := run(context.Background(), "synthetic", "jecb", 2, 0, 0, 0.5, 1, 0, false,
		chaosOpts{}, driftOpts{}, serveOpts{}, colPath, filepath.Join(dir, "missing.snap")); err == nil {
		t.Error("missing -db-in must error")
	}
	if err := os.WriteFile(snapPath, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), "synthetic", "jecb", 2, 0, 0, 0.5, 1, 0, false,
		chaosOpts{}, driftOpts{}, serveOpts{}, colPath, snapPath); err == nil {
		t.Error("corrupt -db-in must error")
	}
}

// TestRunRecoveredConvertsPanics pins the panic boundary: an invariant
// violation inside the pipeline becomes an error with a stack trace.
func TestRunRecoveredConvertsPanics(t *testing.T) {
	// k <= 0 reaches partitioner internals that enforce invariants with
	// panics; the boundary must convert, not crash.
	_, err := runRecovered(context.Background(), "synthetic", "jecb", -3, 0, 100, 0.5, 1, 0, false, chaosOpts{}, driftOpts{}, serveOpts{}, "", "")
	if err == nil {
		t.Error("negative k must error")
	}
}

func TestRealMainError(t *testing.T) {
	if err := realMain("nope", "jecb", 2, 0, 100, 0.5, 1, 0,
		false, "", "", false, "", chaosOpts{}, driftOpts{}, flightOpts{}, serveOpts{}, "", ""); err == nil {
		t.Error("unknown benchmark must propagate from realMain")
	}
}

// stdout returns what f writes to the process's standard output.
func stdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	f()
	os.Stdout = saved
	w.Close()
	return <-out
}
