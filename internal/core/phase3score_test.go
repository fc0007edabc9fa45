package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/fixture"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workloads"
	"repro/internal/workloads/auctionmark"
	"repro/internal/workloads/seats"
	"repro/internal/workloads/tatp"
	"repro/internal/workloads/tpcc"
	"repro/internal/workloads/tpce"
)

// evaluatorCost is the reference cost the scorer must reproduce exactly.
func evaluatorCost(t *testing.T, d *db.DB, sol *partition.Solution, tr *trace.Trace) float64 {
	t.Helper()
	a, err := eval.NewAssigner(d, sol)
	if err != nil {
		t.Fatal(err)
	}
	return a.Evaluate(tr, 1).Cost()
}

// resolved resolves tr's accesses against d, as phase 1 does, in a view
// that stays open until the test ends.
func resolved(t *testing.T, d *db.DB, tr *trace.Trace) resolvedStream {
	t.Helper()
	v := d.View()
	t.Cleanup(v.Close)
	rs, err := resolveTrace(context.Background(), d, v, tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// scoreAll places every option of sols and returns each solution's cost.
func scoreAll(t *testing.T, d *db.DB, tr *trace.Trace, sols ...*partition.Solution) (*comboScorer, []float64) {
	t.Helper()
	s := newComboScorer(resolved(t, d, tr))
	if err := s.place(context.Background(), d, 2, sols); err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, len(sols))
	for i, sol := range sols {
		c, err := s.cost(d.Schema(), sol)
		if err != nil {
			t.Fatalf("%s: %v", sol.Name, err)
		}
		costs[i] = c
	}
	return s, costs
}

// TestComboScorerMatchesEvaluator: on all five paper benchmarks, the
// scorer's cost of every enumerated phase-3 candidate and of a warm
// incumbent equals eval.Assigner.Evaluate's exactly, and phase 3 seeds
// the warm incumbent at that cost.
func TestComboScorerMatchesEvaluator(t *testing.T) {
	cases := []struct {
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
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, err := c.bench.Load(workloads.Config{Scale: c.scale, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			full := workloads.GenerateTrace(c.bench, d, 800, 2)
			train, test := full.TrainTest(0.5, rand.New(rand.NewSource(3)))
			procs := workloads.Procedures(c.bench)

			// The warm incumbent: the solution JECB finds on the other
			// half of the trace.
			warm, _, err := Partition(context.Background(), Input{
				DB: d, Procedures: procs, Train: test,
			}, Options{K: 4, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}

			p, err := New(Input{DB: d, Procedures: procs, Train: train, Test: test},
				Options{K: 4, Seed: 42, Warm: warm})
			if err != nil {
				t.Fatal(err)
			}
			v := p.in.DB.View()
			defer v.Close()
			pre, err := p.phase1(context.Background(), v)
			if err != nil {
				t.Fatal(err)
			}
			classes, err := p.phase2(context.Background(), pre)
			if err != nil {
				t.Fatal(err)
			}
			byTable := harvestTableCandidates(classes)
			compat := newAttrCompat(d.Schema())
			cands, err := p.enumerateCandidates(pre, byTable, p.candidateAttributes(byTable, compat), compat)
			if err != nil {
				t.Fatal(err)
			}
			if len(cands) == 0 {
				t.Fatal("no candidates enumerated")
			}
			sols := []*partition.Solution{warm}
			for _, cand := range cands {
				sols = append(sols, cand.sol)
			}
			_, costs := scoreAll(t, d, train, sols...)
			for i, sol := range sols {
				if want := evaluatorCost(t, d, sol, train); costs[i] != want {
					t.Errorf("solution %d (%s): scorer cost %v, evaluator %v", i, sol.Name, costs[i], want)
				}
			}

			_, rep, err := p.phase3(context.Background(), pre, classes)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.WarmSeeded || rep.WarmCost != costs[0] {
				t.Errorf("warm seeded=%v at %v, want true at %v", rep.WarmSeeded, rep.WarmCost, costs[0])
			}
		})
	}
}

// TestComboScorerFixtureCases pins Definition 5's edge cases on the
// paper's running example, one single-transaction trace per case: the
// scorer must call each distributed exactly when the evaluator does.
func TestComboScorerFixtureCases(t *testing.T) {
	d := fixture.CustInfoDB()
	// TRADE 100 references the missing account 99: a dangling foreign key.
	d.Table("TRADE").MustInsert(value.NewInt(100), value.NewInt(99), value.NewInt(1))

	const k = 4
	full := partition.NewSolution("full", k)
	full.Set(partition.NewByPath("TRADE", fixture.TradePath(), partition.NewHash(k)))
	full.Set(partition.NewByPath("CUSTOMER_ACCOUNT", fixture.CAPath(), partition.NewHash(k)))
	full.Set(partition.NewReplicated("HOLDING_SUMMARY"))
	tradeOnly := partition.NewSolution("trade-only", k)
	tradeOnly.Set(full.Table("TRADE"))

	trade := func(id int64, write bool) trace.Access {
		return trace.Access{Table: "TRADE", Key: value.MakeKey(value.NewInt(id)), Write: write}
	}
	account := func(id int64) trace.Access {
		return trace.Access{Table: "CUSTOMER_ACCOUNT", Key: value.MakeKey(value.NewInt(id))}
	}
	holding := func(write bool) trace.Access {
		return trace.Access{Table: "HOLDING_SUMMARY",
			Key: value.MakeKey(value.NewString("ADLAE"), value.NewInt(1)), Write: write}
	}
	cases := []struct {
		name     string
		sol      *partition.Solution
		accesses []trace.Access
		want     bool // distributed
	}{
		{"one customer", full, []trace.Access{trade(1, true), account(1), trade(7, false)}, false},
		{"dangling foreign key", full, []trace.Access{trade(100, false)}, true},
		{"missing source row", full, []trace.Access{account(1), trade(555, false)}, true},
		{"read of replicated table", full, []trace.Access{holding(false), trade(1, false)}, false},
		{"write to replicated table", full, []trace.Access{trade(1, false), holding(true)}, true},
		{"table not covered", tradeOnly, []trace.Access{trade(1, false), account(1)}, true},
		{"covered tables only", tradeOnly, []trace.Access{trade(1, true), trade(7, false)}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := trace.FromTxns([]trace.Txn{{Class: "c", Accesses: c.accesses}})
			_, costs := scoreAll(t, d, tr, c.sol)
			want := evaluatorCost(t, d, c.sol, tr)
			if costs[0] != want {
				t.Fatalf("scorer cost %v, evaluator %v", costs[0], want)
			}
			if got := costs[0] == 1; got != c.want {
				t.Fatalf("distributed = %v, want %v", got, c.want)
			}
		})
	}

	// All cases in one trace: per-table ordinals interleave across
	// transactions.
	var txns []trace.Txn
	for _, c := range cases {
		txns = append(txns, trace.Txn{Class: c.name, Accesses: c.accesses})
	}
	tr := trace.FromTxns(txns)
	_, costs := scoreAll(t, d, tr, full, tradeOnly)
	for i, sol := range []*partition.Solution{full, tradeOnly} {
		if want := evaluatorCost(t, d, sol, tr); costs[i] != want {
			t.Errorf("%s on the combined trace: scorer cost %v, evaluator %v", sol.Name, costs[i], want)
		}
	}
}

// TestComboScorerErrors: a solution that fails validation, or whose join
// path does not compile against the database, reports the error without
// failing other solutions placed alongside it.
func TestComboScorerErrors(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 50, 1)

	good := partition.NewSolution("good", 2)
	good.Set(partition.NewByPath("TRADE", fixture.TradePath(), partition.NewHash(2)))
	badK := partition.NewSolution("bad-k", 2)
	badK.Set(partition.NewByPath("TRADE", fixture.TradePath(), partition.NewHash(3)))
	// Valid against the schema, but the database it is placed on lacks
	// the path's tables.
	noTables := db.New(schema.New("empty").MustValidate())
	uncompiled := partition.NewSolution("uncompiled", 2)
	uncompiled.Set(partition.NewByPath("CUSTOMER_ACCOUNT", fixture.CAPath(), partition.NewHash(2)))

	s := newComboScorer(resolved(t, d, tr))
	ctx := context.Background()
	if err := s.place(ctx, d, 2, []*partition.Solution{good, badK}); err != nil {
		t.Fatal(err)
	}
	if err := s.place(ctx, noTables, 2, []*partition.Solution{uncompiled}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.cost(d.Schema(), badK); err == nil {
		t.Error("mapper k mismatch: want a validation error")
	}
	if _, err := s.cost(d.Schema(), uncompiled); err == nil {
		t.Error("path over missing tables: want a compile error")
	}
	got, err := s.cost(d.Schema(), good)
	if err != nil {
		t.Fatal(err)
	}
	if want := evaluatorCost(t, d, good, tr); got != want {
		t.Errorf("good: scorer cost %v, evaluator %v", got, want)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := newComboScorer(resolved(t, d, tr)).place(cancelled, d, 2, []*partition.Solution{good}); err == nil {
		t.Error("cancelled placement: want the context's error")
	}
}

// TestComboScanZeroAlloc: scanning one combination's columns allocates
// nothing.
func TestComboScanZeroAlloc(t *testing.T) {
	b := tpcc.New()
	d, err := b.Load(workloads.Config{Scale: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := workloads.GenerateTrace(b, d, 300, 2)
	sol, _, err := Partition(context.Background(), Input{
		DB: d, Procedures: workloads.Procedures(b), Train: tr,
	}, Options{K: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := scoreAll(t, d, tr, sol)
	cols, err := s.columns(sol)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { s.distributed(cols) }); allocs != 0 {
		t.Fatalf("combination scan: %v allocs/op, want 0", allocs)
	}
}
