package sim

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/fixture"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/value"
)

// badTradeSolution scatters TRADE by its primary key: every CustInfo and
// TradeUpdate transaction goes distributed.
func badTradeSolution(k int) *partition.Solution {
	sol := partition.NewSolution("bad", k)
	sol.Set(partition.NewByPath("TRADE", singleCol("TRADE", "T_ID"), partition.NewHash(k)))
	sol.Set(partition.NewByPath("HOLDING_SUMMARY", fixture.HSPath(), partition.NewHash(k)))
	sol.Set(partition.NewByPath("CUSTOMER_ACCOUNT", fixture.CAPath(), partition.NewHash(k)))
	return sol
}

// rotMapper rotates an inner mapper's partitions by one: every tuple
// changes node, guaranteeing a non-empty migration delta.
type rotMapper struct{ inner partition.Mapper }

func (m rotMapper) Map(v value.Value) int { return (m.inner.Map(v) + 1) % m.inner.K() }
func (m rotMapper) K() int                { return m.inner.K() }
func (m rotMapper) Name() string          { return m.inner.Name() + "+rot" }

// rotatedSolution returns a same-K copy of sol with TRADE's partitions
// rotated by one.
func rotatedSolution(sol *partition.Solution) *partition.Solution {
	out := partition.NewSolution(sol.Name+"+rot", sol.K)
	for name, ts := range sol.Tables {
		if ts.Replicate || name != "TRADE" {
			out.Tables[name] = ts
			continue
		}
		out.Set(partition.NewByPath(name, ts.Path, rotMapper{ts.Mapper}))
	}
	return out
}

// mixFlipTrace is a hand-rolled drifting trace: the first half is pure
// CustInfo traffic, the second half a pure "Audit" class touching the
// same rows — a guaranteed class-mix flip at the midpoint.
func mixFlipTrace(d *db.DB, half int) *trace.Trace {
	first := fixture.CustInfoTrace(d, half, 3)
	col := trace.NewCollector()
	tr := d.Table("TRADE")
	for i := 0; i < half; i++ {
		cust := value.NewInt(1 + int64(i%2))
		col.Begin("Audit", map[string]value.Value{"cust_id": cust})
		ca := d.Table("CUSTOMER_ACCOUNT")
		for _, caRow := range ca.LookupRows("CA_C_ID", cust) {
			col.Read("CUSTOMER_ACCOUNT", ca.PKOf(caRow))
			for _, row := range tr.LookupRows("T_CA_ID", caRow[0]) {
				col.Write("TRADE", tr.PKOf(row))
			}
		}
		col.Commit()
	}
	return first.Concat(col.Trace())
}

// TestDriftStaticMatchesRunTotals: without adaptation the drift replay is
// Run in windows — same transaction classification, same totals.
func TestDriftStaticMatchesRunTotals(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 2)
	sol := custInfoSolution(2)
	base, err := runPlain(d, sol, tr)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := runDrift(context.Background(), d, sol, tr, DriftConfig{WindowSize: 100}, modeStatic, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Total != tr.Len() || dr.Distributed != base.Distributed || dr.Local != base.Local {
		t.Errorf("drift static totals %d/%d/%d != Run %d/%d/%d",
			dr.Total, dr.Local, dr.Distributed, tr.Len(), base.Local, base.Distributed)
	}
	if dr.Windows != 4 || len(dr.WindowDistFrac) != 4 {
		t.Errorf("windows = %d, curve = %v", dr.Windows, dr.WindowDistFrac)
	}
	if dr.Repartitions != 0 || dr.Swaps != 0 || dr.MovedTuples != 0 || dr.DualRouted != 0 {
		t.Errorf("static run adapted: %+v", dr)
	}
	if !strings.Contains(dr.String(), "static") {
		t.Errorf("String = %q", dr.String())
	}
}

// TestDriftAdaptiveSwapsAndCharges: a mix flip trips the detector; the
// injected repartitioner hands back a rotated solution, so the engine
// must plan a migration with real flows, charge movement work to nodes,
// and swap.
func TestDriftAdaptiveSwapsAndCharges(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := mixFlipTrace(d, 100)
	good := custInfoSolution(2)
	flip := rotatedSolution(good)
	calls := 0
	repart := func(win *trace.Trace, prev *partition.Solution) (*partition.Solution, error) {
		calls++
		return flip, nil
	}
	res, err := runDrift(context.Background(), d, good, tr, DriftConfig{WindowSize: 50, DriftAt: 100}, modeAdaptive, repart)
	if err != nil {
		t.Fatal(err)
	}
	if res.Swaps == 0 || res.Repartitions == 0 || calls == 0 {
		t.Fatalf("mix flip must trigger a swap: %+v", res)
	}
	if res.MovedTuples != d.Table("TRADE").Len() {
		t.Errorf("moved = %d, want every TRADE row (%d)", res.MovedTuples, d.Table("TRADE").Len())
	}
	if res.MigrationWork == 0 {
		t.Error("movement must charge migration work to nodes")
	}
	if len(res.Events) == 0 || res.Events[0].Warm {
		t.Errorf("events = %+v, want a non-warm migration event", res.Events)
	}
	// Settling window: Audit transactions touch the migrated TRADE and
	// the unmigrated CUSTOMER_ACCOUNT, so they must dual-route.
	if res.DualRouted == 0 {
		t.Error("settling window must dual-route transactions spanning the swap")
	}
	// Migration work landed on node budgets: total node work exceeds the
	// static replay's by at least the migration work.
	static, err := runDrift(context.Background(), d, good, tr, DriftConfig{WindowSize: 50, DriftAt: 100}, modeStatic, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	if sum(res.NodeWork) < sum(static.NodeWork)+res.MigrationWork-1e-9 {
		t.Errorf("adaptive node work %.1f must include migration work %.1f over static %.1f",
			sum(res.NodeWork), res.MigrationWork, sum(static.NodeWork))
	}
}

// TestDriftWarmAcceptDoesNotSwap: a repartitioner that keeps the deployed
// solution (pointer identity) must count a warm accept and move nothing.
func TestDriftWarmAcceptDoesNotSwap(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := mixFlipTrace(d, 100)
	good := custInfoSolution(2)
	repart := func(win *trace.Trace, prev *partition.Solution) (*partition.Solution, error) {
		return prev, nil // deployed trees still fit
	}
	res, err := runDrift(context.Background(), d, good, tr, DriftConfig{WindowSize: 50}, modeAdaptive, repart)
	if err != nil {
		t.Fatal(err)
	}
	if res.Repartitions == 0 || res.WarmAccepts != res.Repartitions {
		t.Fatalf("want only warm accepts: %+v", res)
	}
	if res.Swaps != 0 || res.MovedTuples != 0 || res.MigrationWork != 0 {
		t.Errorf("warm accepts must not deploy: %+v", res)
	}
	for _, ev := range res.Events {
		if !ev.Warm {
			t.Errorf("event %+v must be warm", ev)
		}
	}
}

// TestDriftOracleSwapsOnceAtDriftPoint: the oracle swaps exactly once, in
// the window containing DriftAt, for free.
func TestDriftOracleSwapsOnceAtDriftPoint(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := mixFlipTrace(d, 100)
	good := custInfoSolution(2)
	repart := func(win *trace.Trace, prev *partition.Solution) (*partition.Solution, error) {
		return rotatedSolution(prev), nil
	}
	res, err := runDrift(context.Background(), d, good, tr, DriftConfig{WindowSize: 50, DriftAt: 100}, modeOracle, repart)
	if err != nil {
		t.Fatal(err)
	}
	if res.Swaps != 1 || res.Repartitions != 1 {
		t.Fatalf("oracle must swap exactly once: %+v", res)
	}
	if res.MovedTuples != 0 || res.MigrationWork != 0 || res.DualRouted != 0 {
		t.Errorf("oracle movement must be free: %+v", res)
	}
	if len(res.Events) != 1 || len(res.Events[0].Reasons) != 1 || res.Events[0].Reasons[0] != "oracle" {
		t.Errorf("events = %+v", res.Events)
	}
	if res.Events[0].Window != 2 {
		t.Errorf("oracle swapped in window %d, want 2 (DriftAt 100, window 50)", res.Events[0].Window)
	}
}

// TestDriftErrors: CompareDrift rejects a nil repart func, a missing
// DriftAt and an empty trace.
func TestDriftErrors(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 100, 2)
	sol := custInfoSolution(2)
	keep := func(w *trace.Trace, p *partition.Solution) (*partition.Solution, error) { return p, nil }
	for _, c := range []struct {
		name   string
		tr     *trace.Trace
		cfg    DriftConfig
		repart RepartitionFunc
	}{
		{"without repart func", tr, DriftConfig{DriftAt: 50}, nil},
		{"without DriftAt", tr, DriftConfig{}, keep},
		{"negative DriftAt", tr, DriftConfig{DriftAt: -1}, keep},
		{"empty trace", &trace.Trace{}, DriftConfig{DriftAt: 50}, keep},
	} {
		if _, _, _, err := CompareDrift(context.Background(), d, sol, c.tr, c.cfg, c.repart); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestDriftResultJSONDeterministic: two identical replays marshal
// byte-identically (the CI diff contract at the sim layer).
func TestDriftResultJSONDeterministic(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 300, 2)
	sol := badTradeSolution(2)
	run := func() []byte {
		r, err := runDrift(context.Background(), d, sol, tr, DriftConfig{WindowSize: 75, DriftAt: 150}, modeStatic, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := run(), run(); string(a) != string(b) {
		t.Error("same-input drift results differ")
	}
}
