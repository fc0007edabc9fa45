package repl

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/faults"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/workloads/tpcc"
)

// tpccWindow loads a small TPC-C (4 warehouses, 1,200 txns), partitions
// the training half at K=8 and returns the first 600 test transactions
// as the commit window.
func tpccWindow(b *testing.B) (*db.DB, *partition.Solution, *trace.Trace) {
	b.Helper()
	bm := tpcc.New()
	d, err := bm.Load(workloads.Config{Scale: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	full := workloads.GenerateTrace(bm, d, 1200, 2)
	train, test := full.TrainTest(0.5, rand.New(rand.NewSource(3)))
	sol, _, err := core.Partition(context.Background(), core.Input{
		DB: d, Procedures: workloads.Procedures(bm), Train: train, Test: test,
	}, core.Options{K: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return d, sol, test.Head(600)
}

// BenchmarkReplQuorumWindow replays a TPC-C commit window through the
// replica-group engine — two backups per group, quorum commit rule, the
// in-process bus, no faults — including the end-of-run recovery and
// oracle. Set-up (load, trace, partitioning) is outside the timed loop.
func BenchmarkReplQuorumWindow(b *testing.B) {
	d, sol, window := tpccWindow(b)
	sc, err := faults.Builtin("none", sol.K)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), d, sol, window, Config{
			Scenario: sc, Seed: 1, WALDir: dir, Replicas: 2, CommitRule: RuleQuorum,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.OracleOK || res.Committed != res.Offered {
			b.Fatalf("window did not commit cleanly: %s", res)
		}
	}
}
