package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/db"
	"repro/internal/faults"
	"repro/internal/fixture"
	"repro/internal/partition"
	"repro/internal/repl"
	"repro/internal/trace"
)

// chaosScenario, durableScenario and driftScenario are the package's
// test-side entry points: every sim test reaches the engines the way
// callers do, through New(Scenario{...}).Run(ctx), and unwraps the
// mode's result pointer.
func chaosScenario(d *db.DB, sol *partition.Solution, tr *trace.Trace,
	cfg ChaosConfig, sc *faults.Scenario, seed int64) (*ChaosResult, error) {
	res, err := New(Scenario{
		Mode: ModeChaos, DB: d, Solution: sol, Trace: tr,
		Chaos: cfg, Faults: sc, Seed: seed,
	}).Run(context.Background())
	if err != nil {
		return nil, err
	}
	return res.Chaos, nil
}

func durableScenario(d *db.DB, sol *partition.Solution, tr *trace.Trace,
	cfg DurableConfig, sc *faults.Scenario, seed int64, walDir string) (*DurableResult, error) {
	res, err := New(Scenario{
		Mode: ModeDurable, DB: d, Solution: sol, Trace: tr,
		Durable: cfg, Faults: sc, Seed: seed, WALDir: walDir,
	}).Run(context.Background())
	if err != nil {
		return nil, err
	}
	return res.Durable, nil
}

func driftScenario(mode Mode, d *db.DB, sol *partition.Solution, tr *trace.Trace,
	cfg DriftConfig, repart RepartitionFunc) (*DriftResult, error) {
	res, err := New(Scenario{
		Mode: mode, DB: d, Solution: sol, Trace: tr,
		Drift: cfg, Repartition: repart,
	}).Run(context.Background())
	if err != nil {
		return nil, err
	}
	return res.Drift, nil
}

func scenarioSolution(k int) *partition.Solution {
	sol := partition.NewSolution("scatter", k)
	sol.Set(partition.NewByPath("TRADE", singleCol("TRADE", "T_ID"), partition.NewHash(k)))
	sol.Set(partition.NewByPath("CUSTOMER_ACCOUNT", singleCol("CUSTOMER_ACCOUNT", "CA_ID"), partition.NewHash(k)))
	sol.Set(partition.NewReplicated("HOLDING_SUMMARY"))
	return sol
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestScenarioMatchesEngines pins the dispatch contract: New(Scenario{
// ...}).Run produces byte-identical results to calling the underlying
// mode engine directly, for every mode — the scenario layer adds
// wiring, never behavior. (The deprecated per-mode wrappers this test
// once compared against are gone; the engines are the ground truth.)
func TestScenarioMatchesEngines(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 2)
	sol := scenarioSolution(2)
	ctx := context.Background()

	t.Run("plain", func(t *testing.T) {
		want, err := runPlain(d, sol, tr, Config{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := New(Scenario{DB: d, Solution: sol, Trace: tr}).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got.Plain == nil || got.Mode != ModePlain {
			t.Fatalf("plain result missing: %+v", got)
		}
		if !bytes.Equal(mustJSON(t, want), mustJSON(t, got.Plain)) {
			t.Error("scenario plain result diverged from runPlain")
		}
	})

	t.Run("chaos", func(t *testing.T) {
		fsc, err := faults.Builtin("flaky-network", 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runChaos(ctx, d, sol, tr, ChaosConfig{}, fsc, 7)
		if err != nil {
			t.Fatal(err)
		}
		got, err := New(Scenario{
			Mode: ModeChaos, DB: d, Solution: sol, Trace: tr,
			Faults: fsc, Seed: 7,
		}).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, want), mustJSON(t, got.Chaos)) {
			t.Error("scenario chaos result diverged from the chaos engine")
		}
	})

	t.Run("durable", func(t *testing.T) {
		fsc, err := faults.Builtin("part-crash", 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runChaosDurable(ctx, d, sol, tr, DurableConfig{}, fsc, 7, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		got, err := New(Scenario{
			Mode: ModeDurable, DB: d, Solution: sol, Trace: tr,
			Faults: fsc, Seed: 7, WALDir: t.TempDir(),
		}).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, want), mustJSON(t, got.Durable)) {
			t.Error("scenario durable result diverged from the durable engine")
		}
	})

	t.Run("replicated", func(t *testing.T) {
		fsc, err := faults.Builtin("single-crash", 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := repl.Run(ctx, d, sol, tr, repl.Config{
			Scenario: fsc, Seed: 7, WALDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := New(Scenario{
			Mode: ModeReplicated, DB: d, Solution: sol, Trace: tr,
			Faults: fsc, Seed: 7, WALDir: t.TempDir(),
		}).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got.Repl == nil || got.Mode != ModeReplicated {
			t.Fatalf("replicated result missing: %+v", got)
		}
		if !got.Repl.OracleOK {
			t.Error("replicated scenario run failed its consistency oracle")
		}
		if !bytes.Equal(mustJSON(t, want), mustJSON(t, got.Repl)) {
			t.Error("scenario replicated result diverged from the repl engine")
		}
	})

	t.Run("drift-static", func(t *testing.T) {
		want, err := runDrift(ctx, d, sol, tr, DriftConfig{WindowSize: 100}, modeStatic, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := New(Scenario{
			Mode: ModeDriftStatic, DB: d, Solution: sol, Trace: tr,
			Drift: DriftConfig{WindowSize: 100},
		}).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, want), mustJSON(t, got.Drift)) {
			t.Error("scenario drift-static result diverged from the drift engine")
		}
	})
}

// TestScenarioValidation covers the config-first API's error paths.
func TestScenarioValidation(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 50, 2)
	sol := scenarioSolution(2)
	ctx := context.Background()
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"nil db", Scenario{Solution: sol, Trace: tr}},
		{"nil solution", Scenario{DB: d, Trace: tr}},
		{"nil trace", Scenario{DB: d, Solution: sol}},
		{"durable without wal dir", Scenario{Mode: ModeDurable, DB: d, Solution: sol, Trace: tr}},
		{"replicated without wal dir", Scenario{Mode: ModeReplicated, DB: d, Solution: sol, Trace: tr}},
		{"adaptive without repart", Scenario{Mode: ModeDriftAdaptive, DB: d, Solution: sol, Trace: tr}},
		{"oracle without repart", Scenario{Mode: ModeDriftOracle, DB: d, Solution: sol, Trace: tr}},
		{"unknown mode", Scenario{Mode: Mode(99), DB: d, Solution: sol, Trace: tr}},
	}
	for _, c := range cases {
		if _, err := New(c.sc).Run(ctx); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestScenarioChaosDefaultsToNoFaults: a chaos scenario without Faults
// runs against the builtin "none" scenario (no injected failures).
func TestScenarioChaosDefaultsToNoFaults(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 200, 2)
	sol := scenarioSolution(2)
	got, err := New(Scenario{Mode: ModeChaos, DB: d, Solution: sol, Trace: tr, Seed: 1}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Chaos.PermanentFailures != 0 {
		t.Errorf("no-fault chaos run lost %d transactions", got.Chaos.PermanentFailures)
	}
	if got.Chaos.Committed != got.Chaos.Offered {
		t.Errorf("committed %d of %d offered under no faults", got.Chaos.Committed, got.Chaos.Offered)
	}
}
