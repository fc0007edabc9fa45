package experiments

// Replica groups under chaos: the JECB solution replayed through the
// replication engine (internal/repl), where every partition is a group
// of one primary plus R WAL-backed backups. The primary ships its log
// over the chaos bus, commits observe the configured rule (async or
// quorum ack), and a heartbeat failure detector promotes the most
// caught-up backup when a primary crashes. Every cell still ends with a
// full-cluster crash, per-member recovery, and the consistency oracle —
// plus the replication-specific ledger: acknowledged commits a crash
// destroyed (the async rule's exposure, provably zero under quorum for
// single crashes), promotions, and anti-entropy volume.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/faults"
	"repro/internal/repl"
)

// ReplicationRow is one (scenario, commit rule) cell's replicated-replay
// outcome.
type ReplicationRow struct {
	Scenario   string
	CommitRule string
	Result     *repl.Result
}

// Replication replays the benchmark's test trace through the replica-
// group engine over the chaos bus under each (scenario, rule) pair.
// walRoot hosts the per-cell WAL directories; empty means a fresh
// temporary directory (removed on return).
func Replication(benchmark string, scenarios, rules []string, k, replicas, scale, txns int, seed int64, walRoot string) ([]ReplicationRow, error) {
	if len(scenarios) == 0 || len(rules) == 0 {
		return nil, fmt.Errorf("experiments: replication needs at least one scenario and one commit rule")
	}
	if walRoot == "" {
		tmp, err := os.MkdirTemp("", "jecb-repl-*")
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

	var rows []ReplicationRow
	for _, scName := range scenarios {
		sc, err := faults.LoadScenario(scName, k)
		if err != nil {
			return nil, err
		}
		for _, rule := range rules {
			dir := filepath.Join(walRoot, sc.Name+"-"+rule)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			res, err := repl.Run(context.Background(), r.db, sol, r.test, repl.Config{
				Scenario: sc, Seed: seed, WALDir: dir,
				Transport: "bus", Replicas: replicas, CommitRule: rule,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: replicated replay under %q/%s: %w", sc.Name, rule, err)
			}
			rows = append(rows, ReplicationRow{Scenario: sc.Name, CommitRule: rule, Result: res})
		}
	}
	return rows, nil
}
