package core

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/workloads"
	"repro/internal/workloads/seats"
	"repro/internal/workloads/tatp"
	"repro/internal/workloads/tpcc"
	"repro/internal/workloads/tpce"
)

// runFingerprint executes one full JECB run and returns the canonical
// Solution and Report JSON — the two artifacts the determinism contract
// (DESIGN.md) pins byte-for-byte across worker counts and repeated runs.
func runFingerprint(t *testing.T, b workloads.Benchmark, scale, txns int, opts Options) (solJSON, repJSON string) {
	t.Helper()
	d, err := b.Load(workloads.Config{Scale: scale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := workloads.GenerateTrace(b, d, txns, 2)
	train, test := full.TrainTest(0.5, rand.New(rand.NewSource(3)))
	sol, rep, err := Partition(context.Background(), Input{
		DB:         d,
		Procedures: workloads.Procedures(b),
		Train:      train,
		Test:       test,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := json.Marshal(sol)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(sb), string(rb)
}

// TestDeterminismMatrix is the cross-worker-count half of the contract:
// the same seed at Parallelism 1, 2 and 8 produces byte-identical
// Solution and Report JSON on the TPC-C, TATP, SEATS and TPC-E fixtures.
// TPC-E is the case with min-cut fallbacks, so it covers lookup mappers
// through phases 2 and 3. The K=8 rows are the inputs of the pipeline
// benchmarks (BenchmarkPartitionTPCC and BenchmarkPartitionSEATS).
func TestDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full-workload matrix; skipped in -short")
	}
	cases := []struct {
		name  string
		bench workloads.Benchmark
		scale int
		txns  int
		k     int
	}{
		{"tpcc", tpcc.New(), 4, 600, 4},
		{"tatp", tatp.New(), 400, 600, 4},
		{"seats", seats.New(), 300, 600, 4},
		{"tpce", tpce.New(), 100, 600, 4},
		{"tpcc-k8", tpcc.New(), 8, 2000, 8},
		{"seats-k8", seats.New(), 300, 2000, 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var wantSol, wantRep string
			for _, par := range []int{1, 2, 8} {
				sol, rep := runFingerprint(t, c.bench, c.scale, c.txns,
					Options{K: c.k, Seed: 42, Parallelism: par})
				if wantSol == "" {
					wantSol, wantRep = sol, rep
					continue
				}
				if sol != wantSol {
					t.Errorf("parallelism=%d: Solution JSON diverged from parallelism=1", par)
				}
				if rep != wantRep {
					t.Errorf("parallelism=%d: Report JSON diverged from parallelism=1", par)
				}
			}
		})
	}
}

// TestRepeatedRunByteIdentity is the map-iteration-order regression test
// (the bug this PR fixed: rootValueSets leaked Go map ordering into
// min-cut vertex indexing). Two runs of the same seeded search in the
// same process must produce byte-identical artifacts; before the
// sortValues fix this failed with measurable probability per run pair.
func TestRepeatedRunByteIdentity(t *testing.T) {
	b := tpcc.New()
	var wantSol, wantRep string
	for run := 0; run < 3; run++ {
		sol, rep := runFingerprint(t, b, 2, 400, Options{K: 4, Seed: 7, Parallelism: 2})
		if run == 0 {
			wantSol, wantRep = sol, rep
			continue
		}
		if sol != wantSol {
			t.Fatalf("run %d: Solution JSON diverged from run 0", run)
		}
		if rep != wantRep {
			t.Fatalf("run %d: Report JSON diverged from run 0", run)
		}
	}
}
