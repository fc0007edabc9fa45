package router

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/partition"
	"repro/internal/sqlparse"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// solved is a benchmark's database, the JECB solution (K=8) of a
// 2000-transaction trace's training half, the test half, and every
// procedure's SQL analysis. Tests share it read-only: a test that
// mutates a solution works on solution().
type solved struct {
	d        *db.DB
	sol      *partition.Solution
	test     *trace.Trace
	analyses []*sqlparse.Analysis
}

// solution returns a copy of the solved solution with its own Tables
// map; the table solutions themselves are shared, as placements are
// never mutated in place.
func (s *solved) solution() *partition.Solution {
	return &partition.Solution{Name: s.sol.Name, K: s.sol.K, Tables: maps.Clone(s.sol.Tables)}
}

var (
	solvedMu    sync.Mutex
	solvedCache = map[string]*solved{}
)

// solvedScale is each benchmark's scale in solvedSetup.
var solvedScale = map[string]int{
	"tpcc": 4, "tpce": 200, "seats": 100, "auctionmark": 100, "tatp": 50, "synthetic": 50,
}

// solvedSetup partitions one benchmark at its solvedScale, once per test
// binary.
func solvedSetup(t testing.TB, name string) *solved {
	t.Helper()
	return solvedAt(t, name, solvedScale[name])
}

// solvedAt partitions one benchmark at the given scale, once per test
// binary.
func solvedAt(t testing.TB, name string, scale int) *solved {
	t.Helper()
	solvedMu.Lock()
	defer solvedMu.Unlock()
	key := fmt.Sprintf("%s/%d", name, scale)
	if s, ok := solvedCache[key]; ok {
		return s
	}
	b, _ := workloads.Get(name)
	d, err := b.Load(workloads.Config{Scale: scale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := workloads.GenerateTrace(b, d, 2000, 2)
	train, test := full.TrainTest(0.5, rand.New(rand.NewSource(3)))
	procs := workloads.Procedures(b)
	sol, _, err := core.Partition(context.Background(), core.Input{
		DB: d, Procedures: procs, Train: train, Test: test,
	}, core.Options{K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := &solved{d: d, sol: sol, test: test}
	for _, proc := range procs {
		a, err := sqlparse.Analyze(proc, d.Schema())
		if err != nil {
			t.Fatal(err)
		}
		s.analyses = append(s.analyses, a)
	}
	solvedCache[key] = s
	return s
}
