package experiments

// Durability under chaos: the JECB solution replayed through the durable
// 2PC execution layer (internal/sim, durable mode) under each fault
// scenario, including the scripted mid-2PC crash points. Every cell ends
// with a simulated full-cluster crash, WAL recovery with presumed-abort
// resolution, and the consistency oracle: the recovered per-table digests
// must match a fault-free re-execution of exactly the committed set.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/faults"
	"repro/internal/sim"
)

// DurabilityRow is one scenario's durable-replay outcome.
type DurabilityRow struct {
	Scenario string
	Result   *sim.DurableResult
}

// Durability replays the benchmark's test trace through the durable 2PC
// state machine under each scenario. walRoot hosts the per-scenario WAL
// directories; empty means a fresh temporary directory (removed on
// return).
func Durability(benchmark string, scenarios []string, k, scale, txns int, seed int64, walRoot string) ([]DurabilityRow, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("experiments: durability needs at least one scenario")
	}
	if walRoot == "" {
		tmp, err := os.MkdirTemp("", "jecb-wal-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		walRoot = tmp
	}
	r, err := load(benchmark, scale, txns, 0.5, seed)
	if err != nil {
		return nil, err
	}
	sol, _, err := r.jecb(k)
	if err != nil {
		return nil, err
	}

	var rows []DurabilityRow
	for _, scName := range scenarios {
		sc, err := faults.LoadScenario(scName, k)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(walRoot, sc.Name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		res, err := sim.RunDurable(context.Background(), r.db, sol, r.test, sim.DurableConfig{
			ChaosConfig: sim.ChaosConfig{Scenario: sc, Seed: seed}, WALDir: dir,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: durable replay under %q: %w", sc.Name, err)
		}
		rows = append(rows, DurabilityRow{Scenario: sc.Name, Result: res})
	}
	return rows, nil
}
