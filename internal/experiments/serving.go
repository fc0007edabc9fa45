package experiments

// Live serving under overload: the JECB solution driven by the serving
// engine (internal/serve) instead of a replay. A seeded load generator
// offers Poisson arrivals at a multiple of the worker pool's analytic
// capacity; the protection layer — token-bucket + queue-depth admission,
// per-partition circuit breakers, deadlines with retry budgets, and the
// SLO-driven AIMD guardrail — either holds the executed tail and the
// goodput (admission on) or is switched off to demonstrate the collapse
// (admission off). Chaos scenarios overlay node crashes and a flaky
// network on top of the offered load, making the breakers load-bearing.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/faults"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// ServingRow is one (scenario, offered-load multiple, admission) cell.
type ServingRow struct {
	Scenario   string
	LoadFactor float64
	Admission  bool
	Result     *serve.Result
}

// Serving runs the serving engine over every (scenario, load factor,
// admission on/off) cell on the benchmark's JECB solution. durationSec
// is the arrival horizon (builtin crash scenarios are timed for a ~6s
// run). walRoot hosts per-cell WAL directories; empty means a fresh
// temporary directory (removed on return).
func Serving(benchmark string, scenarios []string, loadFactors []float64, k, scale, txns int,
	durationSec float64, seed int64, walRoot string) ([]ServingRow, error) {
	if len(scenarios) == 0 || len(loadFactors) == 0 {
		return nil, fmt.Errorf("experiments: serving needs at least one scenario and one load factor")
	}
	if walRoot == "" {
		tmp, err := os.MkdirTemp("", "jecb-serve-*")
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

	var rows []ServingRow
	for _, scName := range scenarios {
		sc, err := faults.LoadScenario(scName, k)
		if err != nil {
			return nil, err
		}
		for _, lf := range loadFactors {
			for _, admission := range []bool{true, false} {
				adm := "off"
				if admission {
					adm = "on"
				}
				dir := filepath.Join(walRoot, fmt.Sprintf("%s-%gx-%s", sc.Name, lf, adm))
				if err := os.MkdirAll(dir, 0o755); err != nil {
					return nil, err
				}
				res, err := serve.Run(context.Background(), r.db, sol, r.test, serve.Config{
					Load:       serve.LoadConfig{LoadFactor: lf, DurationSec: durationSec},
					Admission:  serve.AdmissionConfig{Enabled: admission},
					Procedures: workloads.Procedures(r.bench),
					Scenario:   sc,
					Seed:       seed,
					WALDir:     dir,
				})
				if err != nil {
					return nil, fmt.Errorf("experiments: serving under %q %gx admission=%s: %w",
						sc.Name, lf, adm, err)
				}
				rows = append(rows, ServingRow{
					Scenario: sc.Name, LoadFactor: lf, Admission: admission, Result: res,
				})
			}
		}
	}
	return rows, nil
}
