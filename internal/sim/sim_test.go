package sim

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workloads"
	_ "repro/internal/workloads/all"
)

func custInfoSolution(k int) *partition.Solution {
	sol := partition.NewSolution("jecb", k)
	sol.Set(partition.NewByPath("TRADE", fixture.TradePath(), partition.NewHash(k)))
	sol.Set(partition.NewByPath("HOLDING_SUMMARY", fixture.HSPath(), partition.NewHash(k)))
	sol.Set(partition.NewByPath("CUSTOMER_ACCOUNT", fixture.CAPath(), partition.NewHash(k)))
	return sol
}

func TestPerfectPartitioningScales(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 2)
	r1, err := runPlain(d, custInfoSolution(1), tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runPlain(d, custInfoSolution(2), tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Distributed != 0 {
		t.Fatalf("perfect partitioning must have 0 distributed; got %d", r2.Distributed)
	}
	// Two customers, two partitions: throughput roughly doubles (modulo
	// customer-load imbalance in the trace).
	if r2.ThroughputTPS < r1.ThroughputTPS*1.5 {
		t.Errorf("k=2 tps %.0f should be ≈2x k=1 tps %.0f", r2.ThroughputTPS, r1.ThroughputTPS)
	}
	if r2.Speedup < 1.5 || r2.Speedup > 2.01 {
		t.Errorf("speedup = %.2f", r2.Speedup)
	}
	if !strings.Contains(r2.String(), "tps") {
		t.Errorf("String = %q", r2.String())
	}
}

// TestDistributedOverheadHurts: a scattering solution gains little or
// nothing from parallelism — the paper's motivating claim.
func TestDistributedOverheadHurts(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 2)
	// Partition TRADE by T_ID: every CustInfo scatters.
	bad := partition.NewSolution("bad", 4)
	bad.Set(partition.NewByPath("TRADE",
		singleCol("TRADE", "T_ID"), partition.NewHash(4)))
	bad.Set(partition.NewByPath("CUSTOMER_ACCOUNT",
		singleCol("CUSTOMER_ACCOUNT", "CA_ID"), partition.NewHash(4)))
	bad.Set(partition.NewReplicated("HOLDING_SUMMARY"))
	good := custInfoSolution(4)
	rb, err := runPlain(d, bad, tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := runPlain(d, good, tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rb.ThroughputTPS >= rg.ThroughputTPS {
		t.Errorf("scattering (%.0f tps) must underperform co-location (%.0f tps)",
			rb.ThroughputTPS, rg.ThroughputTPS)
	}
	if rb.Distributed == 0 {
		t.Error("bad solution should distribute transactions")
	}
}

// singleCol builds the within-table path {PK} → {col} (identity when col
// is the PK).
func singleCol(table, col string) schema.JoinPath {
	sc := fixture.CustInfoSchema()
	t := sc.Table(table)
	if len(t.PrimaryKey) == 1 && t.PrimaryKey[0] == col {
		return schema.NewJoinPath(schema.ColumnSet{Table: table, Columns: []string{col}})
	}
	return schema.NewJoinPath(
		schema.ColumnSet{Table: table, Columns: append([]string(nil), t.PrimaryKey...)},
		schema.ColumnSet{Table: table, Columns: []string{col}},
	)
}

// TestSweepMonotoneShape: under the JECB TATP solution, throughput grows
// with nodes (single-subscriber transactions parallelize cleanly).
func TestSweepMonotoneShape(t *testing.T) {
	b, _ := workloads.Get("tatp")
	d, err := b.Load(workloads.Config{Scale: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := workloads.GenerateTrace(b, d, 1500, 2)
	train, test := full.TrainTest(0.5, rand.New(rand.NewSource(3)))
	// The low replication threshold keeps the rarely-written
	// SPECIAL_FACILITY partitioned: replicated writes would serialize the
	// cluster (every write charges every node), which is precisely the
	// effect the simulator exists to expose.
	results, err := Sweep(d, test, []int{1, 2, 4, 8}, Config{}, func(k int) (*partition.Solution, error) {
		sol, _, err := core.Partition(context.Background(), core.Input{
			DB: d, Procedures: workloads.Procedures(b), Train: train, Test: test,
		}, core.Options{K: k, ReadMostlyThreshold: 0.005})
		return sol, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].ThroughputTPS < results[i-1].ThroughputTPS {
			t.Errorf("throughput must not regress: k=%d %.0f < k=%d %.0f",
				results[i].Nodes, results[i].ThroughputTPS,
				results[i-1].Nodes, results[i-1].ThroughputTPS)
		}
	}
	// Near-linear at k=8 for a perfectly partitionable workload.
	if results[3].Speedup < 5 {
		t.Errorf("k=8 speedup = %.2f, want near-linear", results[3].Speedup)
	}
}

func TestReplicatedWriteChargesEveryone(t *testing.T) {
	d := fixture.CustInfoDB()
	sol := partition.NewSolution("rep", 4)
	for _, tbl := range []string{"TRADE", "HOLDING_SUMMARY", "CUSTOMER_ACCOUNT"} {
		sol.Set(partition.NewReplicated(tbl))
	}
	col := trace.NewCollector()
	col.Begin("W", nil)
	col.Write("TRADE", value.MakeKey(value.NewInt(1)))
	col.Commit()
	r, err := runPlain(d, sol, col.Trace(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Distributed != 1 {
		t.Fatalf("replicated write must be distributed")
	}
	for n, w := range r.NodeWork {
		if w <= 0 {
			t.Errorf("node %d idle; replicated write must charge every node", n)
		}
	}
}

func TestEmptyTraceAndDefaults(t *testing.T) {
	d := fixture.CustInfoDB()
	r, err := runPlain(d, custInfoSolution(2), &trace.Trace{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.ThroughputTPS != 0 || r.Speedup != 0 {
		t.Errorf("empty trace: %+v", r)
	}
	// Invalid solutions are rejected.
	if _, err := runPlain(d, partition.NewSolution("bad", 0), &trace.Trace{}, Config{}); err == nil {
		t.Error("invalid solution must error")
	}
}

// TestWorkConservationProperty: total node work equals the sum of
// per-transaction charges, and throughput never exceeds nodes*capacity /
// localwork per second equivalent.
func TestWorkConservationProperty(t *testing.T) {
	d := fixture.CustInfoDB()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(80)
		tr := fixture.MixedTrace(d, n, seed)
		k := 1 + rng.Intn(8)
		r, err := runPlain(d, custInfoSolution(k), tr, Config{})
		if err != nil {
			return false
		}
		if r.Local+r.Distributed != tr.Len() {
			return false
		}
		total := 0.0
		for _, w := range r.NodeWork {
			if w < 0 {
				return false
			}
			total += w
		}
		// Each local txn charges 1; each distributed at least coord+2
		// participants.
		min := float64(r.Local) + float64(r.Distributed)*2
		return total >= min-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
