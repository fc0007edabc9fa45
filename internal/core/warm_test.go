package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/fixture"
	"repro/internal/partition"
	"repro/internal/schema"
)

// TestRepartitionWarmAccept: a deployed solution that still fits the new
// window is kept by pointer identity, with no full search.
func TestRepartitionWarmAccept(t *testing.T) {
	in, _ := custInfoInput(t, 400)
	prev, _, err := Partition(context.Background(), in, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Same workload shape: the deployed trees still cost 0.
	searches := cFullSearches.Value()
	res, err := Repartition(context.Background(), in, Options{K: 2}, prev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Warm {
		t.Fatalf("expected a warm accept: %+v", res)
	}
	if res.Solution != prev {
		t.Error("warm accept must keep the previous solution's identity")
	}
	if cFullSearches.Value() != searches {
		t.Error("warm accept must not run the full search")
	}
	if res.Cost != res.PrevCost {
		t.Errorf("cost %v != prev cost %v", res.Cost, res.PrevCost)
	}
	if s := res.String(); !strings.Contains(s, "warm") {
		t.Errorf("String() = %q", s)
	}
}

// TestRepartitionRegressionRunsSearch: a deployed solution that routes
// everything to distributed transactions regresses past any tolerance,
// so the full (warm-seeded) search runs and beats it.
func TestRepartitionRegressionRunsSearch(t *testing.T) {
	in, _ := custInfoInput(t, 400)
	// A deliberately terrible deployment: hash TRADE by its own primary
	// key, scattering each customer's trades, so the CustInfo AVG and the
	// TradeUpdate writes go distributed.
	bad := partition.NewSolution("bad", 2)
	bad.Set(partition.NewByPath("TRADE", schema.NewJoinPath(
		schema.ColumnSet{Table: "TRADE", Columns: []string{"T_ID"}},
		schema.ColumnSet{Table: "TRADE", Columns: []string{"T_ID"}},
	), partition.NewHash(2)))
	bad.Set(partition.NewByPath("HOLDING_SUMMARY", fixture.HSPath(), partition.NewHash(2)))
	bad.Set(partition.NewByPath("CUSTOMER_ACCOUNT", fixture.CAPath(), partition.NewHash(2)))
	searches := cFullSearches.Value()
	res, err := Repartition(context.Background(), in, Options{K: 2}, bad, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if res.Warm {
		t.Fatalf("regressed deployment must trigger a search: %+v", res)
	}
	if cFullSearches.Value() != searches+1 {
		t.Fatal("a regressed deployment must run one full search")
	}
	if res.Cost >= res.PrevCost {
		t.Errorf("search cost %v must beat the regressed deployment %v", res.Cost, res.PrevCost)
	}
	if res.Solution == bad {
		t.Error("accepted solution must be the search winner, not the regressed deployment")
	}
	if s := res.String(); !strings.Contains(s, "full search") {
		t.Errorf("String() = %q", s)
	}
}

// TestRepartitionErrors: nil previous solution, K mismatch, and empty
// training traces are typed errors.
func TestRepartitionErrors(t *testing.T) {
	in, _ := custInfoInput(t, 100)
	prev, _, err := Partition(context.Background(), in, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Repartition(context.Background(), in, Options{K: 2}, nil, 0); err == nil {
		t.Error("nil previous solution must error")
	}
	if _, err := Repartition(context.Background(), in, Options{K: 4}, prev, 0); err == nil {
		t.Error("k mismatch must error")
	}
	empty := in
	empty.Train = nil
	empty.Test = nil
	if _, err := Repartition(context.Background(), empty, Options{K: 2}, prev, 0); err == nil {
		t.Error("empty training trace must error")
	}
}
