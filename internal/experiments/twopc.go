package experiments

// Networked 2PC under chaos: the JECB solution replayed through the
// transport-backed commit protocol (internal/twopc) under each fault
// scenario. Unlike the in-process durable replay, every prepare, vote
// and decision crosses a real wire — the in-proc chaos bus drops and
// delays frames per the scenario, retransmission is capped-exponential,
// and a standby coordinator takes over when a coordinator-partition
// crash silences the leader's heartbeats. Every cell still ends with
// full-cluster recovery and the consistency oracle.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/faults"
	"repro/internal/twopc"
)

// TwoPCRow is one scenario's networked-replay outcome.
type TwoPCRow struct {
	Scenario string
	Result   *twopc.Result
}

// TwoPC replays the benchmark's test trace through the networked 2PC
// engine over the chaos bus (standby coordinator enabled) under each
// scenario. walRoot hosts the per-scenario WAL directories; empty means
// a fresh temporary directory (removed on return).
func TwoPC(benchmark string, scenarios []string, k, scale, txns int, seed int64, walRoot string) ([]TwoPCRow, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("experiments: twopc needs at least one scenario")
	}
	if walRoot == "" {
		tmp, err := os.MkdirTemp("", "jecb-twopc-*")
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

	var rows []TwoPCRow
	for _, scName := range scenarios {
		sc, err := faults.LoadScenario(scName, k)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(walRoot, sc.Name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		res, err := twopc.Run(context.Background(), r.db, sol, r.test, twopc.Config{
			Scenario: sc, Seed: seed, WALDir: dir, Transport: "bus", Standby: true,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: networked replay under %q: %w", sc.Name, err)
		}
		rows = append(rows, TwoPCRow{Scenario: sc.Name, Result: res})
	}
	return rows, nil
}
