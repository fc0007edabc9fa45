package eval_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/workloads/auctionmark"
	"repro/internal/workloads/seats"
	"repro/internal/workloads/tatp"
	"repro/internal/workloads/tpcc"
	"repro/internal/workloads/tpce"
)

// paperBenches are the five paper benchmarks at small scales; the
// equivalence contract is representation-independence, not absolute cost,
// so small traces suffice.
var paperBenches = []struct {
	name  string
	bench workloads.Benchmark
	scale int
}{
	{"tpcc", tpcc.New(), 4},
	{"tatp", tatp.New(), 200},
	{"tpce", tpce.New(), 100},
	{"seats", seats.New(), 150},
	{"auctionmark", auctionmark.New(), 150},
}

// canonicalResult renders a Result into the byte form two evaluation paths
// must agree on exactly.
func canonicalResult(t *testing.T, r *eval.Result) string {
	t.Helper()
	type classJSON struct {
		Class       string `json:"class"`
		Total       int    `json:"total"`
		Distributed int    `json:"distributed"`
	}
	classes := make([]classJSON, 0)
	for _, c := range r.Classes() {
		classes = append(classes, classJSON{c.Class, c.Total, c.Distributed})
	}
	b, err := json.Marshal(struct {
		Solution    string      `json:"solution"`
		K           int         `json:"k"`
		Total       int         `json:"total"`
		Distributed int         `json:"distributed"`
		Classes     []classJSON `json:"classes"`
	}{r.Solution, r.K, r.Total, r.Distributed, classes})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func writeColumnarFile(t *testing.T, tr *trace.Trace, chunkTxns int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.col")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cw := trace.NewColumnarWriter(f, chunkTxns)
	for _, txn := range tr.All() {
		if err := cw.Add(txn); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestEvaluateRepresentationEquivalence is the acceptance gate for the
// columnar substrate: on all five paper benchmarks, evaluating the JECB
// solution over the legacy row trace, the in-memory columnar trace, and
// the streaming on-disk trace yields byte-identical results, and a
// partitioning run over a disk-round-tripped trace yields a byte-identical
// solution.
func TestEvaluateRepresentationEquivalence(t *testing.T) {
	for _, pb := range paperBenches {
		pb := pb
		t.Run(pb.name, func(t *testing.T) {
			t.Parallel()
			d, err := pb.bench.Load(workloads.Config{Scale: pb.scale, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			full := workloads.GenerateTrace(pb.bench, d, 600, 2)
			train, test := full.TrainTest(0.5, rand.New(rand.NewSource(3)))
			sol, rep, err := core.Partition(context.Background(), core.Input{
				DB: d, Procedures: workloads.Procedures(pb.bench), Train: train, Test: test,
			}, core.Options{K: 4, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			a, err := eval.NewAssigner(d, sol)
			if err != nil {
				t.Fatal(err)
			}

			want := canonicalResult(t, a.Evaluate(test, runtime.GOMAXPROCS(0)))
			if got := canonicalResult(t, a.EvaluateColumnar(trace.Columnarize(test))); got != want {
				t.Errorf("columnar result diverged\n got %s\nwant %s", got, want)
			}
			path := writeColumnarFile(t, test, 64) // force several chunks
			s, err := trace.OpenColumnar(path)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := a.EvaluateStream(s, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := canonicalResult(t, sr); got != want {
				t.Errorf("stream result diverged\n got %s\nwant %s", got, want)
			}

			// A full partitioning run over the disk-round-tripped training
			// trace must reproduce the solution byte for byte.
			trainPath := writeColumnarFile(t, train, 64)
			ts, err := trace.OpenColumnar(trainPath)
			if err != nil {
				t.Fatal(err)
			}
			var txns []trace.Txn
			for _, txn := range ts.All() {
				txns = append(txns, txn.Clone())
			}
			if err := ts.Err(); err != nil {
				t.Fatal(err)
			}
			train2 := trace.FromTxns(txns)
			sol2, rep2, err := core.Partition(context.Background(), core.Input{
				DB: d, Procedures: workloads.Procedures(pb.bench), Train: train2, Test: test,
			}, core.Options{K: 4, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if sol2.String() != sol.String() {
				t.Errorf("solution diverged after disk round trip\n got %s\nwant %s", sol2, sol)
			}
			if rep2.K != rep.K || len(rep2.Replicated) != len(rep.Replicated) {
				t.Errorf("report diverged after disk round trip: k %d/%d, replicated %d/%d",
					rep2.K, rep.K, len(rep2.Replicated), len(rep.Replicated))
			}
			if got := canonicalResult(t, a.Evaluate(train2, runtime.GOMAXPROCS(0))); got != canonicalResult(t, a.Evaluate(train, runtime.GOMAXPROCS(0))) {
				t.Error("evaluating round-tripped training trace diverged from original")
			}
		})
	}
}
