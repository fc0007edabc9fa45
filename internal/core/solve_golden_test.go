package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/partition"
	"repro/internal/router"
	"repro/internal/sqlparse"
	"repro/internal/trace"
	"repro/internal/workloads"
	_ "repro/internal/workloads/all"
)

// solveGoldenTxns is the generated trace length of every solve pin: the
// same length the workloads package pins its generated traces at, so
// every class runs, including the ones that delete rows they looked up.
const solveGoldenTxns = 2000

// smallScale is each benchmark's small test scale.
func smallScale(name string) int {
	switch name {
	case "tpcc":
		return 2
	case "tatp":
		return 50
	default:
		return 30
	}
}

// solveGolden pins the SHA-256 of the solve pipeline's three outputs per
// benchmark at seed 1: the partition.Solution JSON, the eval.Result on
// the test half (totals plus the sorted per-class tallies), and the
// partition list of every Route decision on the test half. A change to
// the search, the evaluator or the router that moves any placement fails
// here.
var solveGolden = map[string][3]string{
	"auctionmark": {
		"fed9ee7529b86e9139b7db1f98b9bcf25163f39fb39ef784af7db711f5056f70",
		"5e16a5d100b3c5e9bc72318164447642049bd9a929c30aa470719346a014c4e7",
		"f7d909db3c3a4a3c3e53d1b83714c4e6b4ca8acf0bfa0da4f8f17c602ff424aa",
	},
	"seats": {
		"905f70c80b08ffffde75bfac9618943b60d0369ba36e1a0b196c1840db830c71",
		"698b96cdc62536c74054b150d25622951755ac14d83a7a80710f954b5f839206",
		"bc482c0cb1f270d95f1b5199855a476f3a4e66119873ddf49a8f5f5f8fc1886f",
	},
	"synthetic": {
		"79ff3e8756b1a573fd1cbd2994f00b92dbdd6b8ac6c6504ba10eaf1e1f8ede59",
		"2c814fa27abb16705f4f136f239355737a27f6ef1e867056e7d76052ba50338f",
		"7546712f08be39514b9938bee618b38cc021ab39f8e2eec04d7577f4582af66a",
	},
	"tatp": {
		"6d34f0d1c96e6cb3bdc9489ce24e73622966d312eb1e0226d70d6cba16a5e7e4",
		"ac17c240bd21c5a6aa6988d3866c4c89eca85cd1968da5e7c2964f9c569e878d",
		"1d17d5a9f6b8f0e06dc5399ad73cf65dba3e7c0c0fa559ff4319b3986b9a625c",
	},
	"tpcc": {
		"872baddf0d8a187d69d1a89767d5edfb2c8b6a15c05c03792d121503cb88b962",
		"a3067d0409be299877988da953e50eff1fc222e6268f856818221f2c345864b6",
		"9f5d76b98867535259186ee4274ae621d20f3d30fa6283c9c752eeac6b8023cf",
	},
	"tpce": {
		"2b5b93d0daedcdf22b2bf01426ac58b9d5eb0d2e66261a84a3a6eae4040a2a7f",
		"6831458fe773490a7d493e77f41abafd195a302725e2732a2b7ca401210e5e3a",
		"9cdf6a2cc6d9f3b88f85fcf3e75e5234992c68f892b5721182458a883fbb2d8f",
	},
}

func TestSolveGolden(t *testing.T) {
	names := workloads.Names()
	if len(names) != 6 {
		t.Fatalf("registry holds %d benchmarks, want 6: %v", len(names), names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			got := solvePins(t, name, 1)
			want, ok := solveGolden[name]
			if !ok {
				t.Fatalf("no golden hashes for %s; got %q", name, got)
			}
			labels := [3]string{"solution", "evaluate", "route"}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s hash = %s, want %s", labels[i], got[i], want[i])
				}
			}
		})
	}
}

// smallSolve loads one benchmark at its small test scale, generates and
// splits a solveGoldenTxns trace, seeded as cmd/jecb seeds them (load
// seed, generate seed+1, split seed+2), and partitions the training half
// with K=4.
func smallSolve(t *testing.T, name string, seed int64) (d *db.DB, train, test *trace.Trace, sol *partition.Solution) {
	t.Helper()
	b, _ := workloads.Get(name)
	d, err := b.Load(workloads.Config{Scale: smallScale(name), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	full := workloads.GenerateTrace(b, d, solveGoldenTxns, seed+1)
	train, test = full.TrainTest(0.5, rand.New(rand.NewSource(seed+2)))
	sol, _, err = Partition(context.Background(), Input{
		DB: d, Procedures: workloads.Procedures(b), Train: train, Test: test,
	}, Options{K: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return d, train, test, sol
}

// solvePins runs the jecb pipeline on one benchmark (smallSolve, then
// evaluation and routing of the test half) and hashes its solution,
// evaluation and routing decisions.
func solvePins(t *testing.T, name string, seed int64) [3]string {
	t.Helper()
	d, _, test, sol := smallSolve(t, name, seed)
	solJSON, err := json.Marshal(sol)
	if err != nil {
		t.Fatal(err)
	}

	res, err := eval.Evaluate(d, sol, test)
	if err != nil {
		t.Fatal(err)
	}
	// touch sums, over the distributed test transactions, the partitions
	// each touches (Span.Touched); the evaluation hash covers it.
	a, err := eval.NewAssigner(d, sol)
	if err != nil {
		t.Fatal(err)
	}
	v := d.View()
	touch := 0
	for _, txn := range test.All() {
		if s := a.Span(v, txn); s.Distributed() {
			touch += s.Touched(sol.K)
		}
	}
	v.Close()
	eh := sha256.New()
	fmt.Fprintf(eh, "%s k=%d total=%d dist=%d touch=%d\n", res.Solution, res.K, res.Total, res.Distributed, touch)
	for _, c := range res.Classes() {
		fmt.Fprintf(eh, "%s %d %d\n", c.Class, c.Total, c.Distributed)
	}

	b, _ := workloads.Get(name)
	procs := workloads.Procedures(b)
	analyses := make([]*sqlparse.Analysis, 0, len(procs))
	for _, p := range procs {
		a, err := sqlparse.Analyze(p, d.Schema())
		if err != nil {
			t.Fatal(err)
		}
		analyses = append(analyses, a)
	}
	rt, err := router.New(d, sol, analyses)
	if err != nil {
		t.Fatal(err)
	}
	rh := sha256.New()
	ctx := context.Background()
	for _, txn := range test.All() {
		dec, err := rt.Route(ctx, router.Request{Class: txn.Class, Params: txn.Params})
		if err != nil {
			t.Fatalf("route %s: %v", txn.Class, err)
		}
		fmt.Fprintln(rh, dec.Partitions)
	}
	sum := sha256.Sum256(solJSON)
	return [3]string{
		hex.EncodeToString(sum[:]),
		hex.EncodeToString(eh.Sum(nil)),
		hex.EncodeToString(rh.Sum(nil)),
	}
}
