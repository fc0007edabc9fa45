package experiments

// Throughput degradation under failures: the chaos-mode counterpart of
// Figure 7. Each partitioner's solution is replayed by the fault-injected
// cluster simulator (internal/sim, chaos mode) under a set of failure
// scenarios; better partitionings — fewer distributed transactions —
// should also degrade more gracefully, because a transaction pinned to
// one partition has fewer ways to be blocked by a crashed node or a lost
// coordination message.

import (
	"context"
	"fmt"

	"repro/internal/faults"
	"repro/internal/partition"
	"repro/internal/schism"
	"repro/internal/sim"
)

// DegradationRow is one partitioner's line in the degradation table.
type DegradationRow struct {
	Approach string
	// BaselineTPS is the failure-free analytic throughput of the
	// approach's solution (identical across the row's cells).
	BaselineTPS float64
	// Cells holds the approach's outcome under each scenario, in the
	// order the scenarios were given.
	Cells []*sim.ChaosResult
}

// Degradation compares how the three partitioners' solutions survive each
// fault scenario on one benchmark: every solution replays the same test
// trace under the same scenarios and chaos seed.
func Degradation(benchmark string, scenarios []string, k, scale, txns int, seed int64) ([]DegradationRow, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("experiments: degradation needs at least one scenario")
	}
	r, err := load(benchmark, scale, txns, 0.5, seed)
	if err != nil {
		return nil, err
	}
	jsol, _, err := r.jecb(k)
	if err != nil {
		return nil, err
	}
	ssol, _, err := schism.Partition(schism.Input{DB: r.db, Train: r.train},
		schism.Options{K: k, Seed: seed})
	if err != nil {
		return nil, err
	}
	hsol, err := hcSolution(r, k, seed)
	if err != nil {
		return nil, err
	}

	approaches := []struct {
		name string
		sol  *partition.Solution
	}{
		{"JECB", jsol}, {"Schism", ssol}, {"Horticulture", hsol},
	}
	var rows []DegradationRow
	for _, ap := range approaches {
		row := DegradationRow{Approach: ap.name}
		for _, scName := range scenarios {
			sc, err := faults.LoadScenario(scName, k)
			if err != nil {
				return nil, err
			}
			res, err := sim.RunChaos(context.Background(), r.db, ap.sol, r.test, sim.ChaosConfig{Scenario: sc, Seed: seed})
			if err != nil {
				return nil, fmt.Errorf("experiments: %s under %q: %w", ap.name, sc.Name, err)
			}
			row.BaselineTPS = res.BaselineTPS
			row.Cells = append(row.Cells, res)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
