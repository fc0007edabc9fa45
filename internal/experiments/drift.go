package experiments

// Workload-drift adaptation: static vs adaptive vs oracle. Each builtin
// drift scenario (internal/drift) generates a synthetic trace that shifts
// mid-run; the same trace replays three times under the drift engine
// (internal/sim): once with the pre-drift solution frozen (static), once
// with the full detect → warm-repartition → bounded-migrate loop
// (adaptive), and once with a free clairvoyant swap at the drift point
// (oracle). The post-drift distributed fraction orders the three:
// oracle <= adaptive < static on every builtin scenario — the acceptance
// bar of the drift work.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/workloads/synthetic"
)

// DriftRow is one scenario's line in the drift-adaptation table.
type DriftRow struct {
	Scenario string
	// Static, Adaptive, Oracle are the three replays of the same trace.
	Static, Adaptive, Oracle *sim.DriftResult
}

// Drift runs the drift-adaptation experiment: for each named scenario it
// generates a drifting synthetic trace, trains the initial solution on
// the pre-drift prefix, and replays the full trace under the three
// controllers. window is the detection window in transactions; budget the
// total moved-tuple allowance of the adaptive controller (<= 0 means
// unbounded). Deterministic per seed.
func Drift(scenarios []string, k, scale, txns, window, budget int, seed int64) ([]DriftRow, error) {
	if len(scenarios) == 0 {
		scenarios = drift.BuiltinNames()
	}
	b := synthetic.New()
	procs := workloads.Procedures(b)
	var rows []DriftRow
	for _, name := range scenarios {
		sc, err := drift.BuiltinScenario(name)
		if err != nil {
			return nil, err
		}
		d, err := b.Load(workloads.Config{Scale: scale, Seed: seed})
		if err != nil {
			return nil, err
		}
		tr, driftAt := sc.GenerateTrace(d, txns, seed+1)
		if driftAt <= 0 || driftAt >= tr.Len() {
			return nil, fmt.Errorf("experiments: scenario %q: drift point %d outside trace of %d",
				name, driftAt, tr.Len())
		}

		// The deployed starting point: JECB trained on pre-drift traffic.
		ctx := context.Background()
		opts := withParallelism(core.Options{K: k, Seed: seed})
		sol0, _, err := core.Partition(ctx, core.Input{
			DB: d, Procedures: procs, Train: tr.Head(driftAt),
		}, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %q: initial solution: %w", name, err)
		}

		// The adaptive (and oracle) repartitioner: warm-started JECB on
		// the drifted window, previous solution as the incumbent.
		repart := func(win *trace.Trace, prev *partition.Solution) (*partition.Solution, error) {
			res, err := core.Repartition(ctx, core.Input{
				DB: d, Procedures: procs, Train: win,
			}, opts, prev, 0)
			if err != nil {
				return nil, err
			}
			return res.Solution, nil
		}

		row := DriftRow{Scenario: name}
		row.Static, row.Adaptive, row.Oracle, err = sim.CompareDrift(ctx, d, sol0, tr,
			sim.DriftConfig{WindowSize: window, Budget: budget, DriftAt: driftAt}, repart)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %q %w", name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
