package experiments

import (
	"testing"

	_ "repro/internal/workloads/all"
)

// The experiment drivers run at reduced scales here; the full paper-scale
// runs live in cmd/experiments.

func TestTPCCScalingShape(t *testing.T) {
	res, err := TPCCScaling(16, []float64{0.05, 0.20}, []int{2, 8, 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JECB) != 3 {
		t.Fatalf("result shape: %+v", res)
	}
	// JECB stays flat and low across partition counts (Figure 5's line).
	for _, p := range res.JECB {
		if p.Cost > 0.15 {
			t.Errorf("JECB at k=%d: %.3f, want < 0.15", p.Partitions, p.Cost)
		}
	}
	// Schism degrades as partitions grow relative to coverage: its cost
	// at the highest k must exceed JECB's.
	for label, series := range res.Schism {
		last := series[len(series)-1]
		jecbLast := res.JECB[len(res.JECB)-1]
		if last.Cost < jecbLast.Cost {
			t.Errorf("%s at k=%d (%.3f) beats JECB (%.3f)", label, last.Partitions, last.Cost, jecbLast.Cost)
		}
	}
	// Higher coverage helps Schism (paper: quality increases with
	// training size) — compare the two series at the largest k.
	lo := res.Schism["schism 5%"][2].Cost
	hi := res.Schism["schism 20%"][2].Cost
	if hi > lo+0.05 {
		t.Errorf("more coverage should not hurt: 5%%=%.3f 20%%=%.3f", lo, hi)
	}
}

func TestTPCCResourcesShape(t *testing.T) {
	byApproach := func(rows []ResourceRow) map[string]ResourceRow {
		m := map[string]ResourceRow{}
		for _, r := range rows {
			m[r.Approach] = r
		}
		return m
	}
	sizes := []TrainSize{{"5%", 300}, {"20%", 1200}}
	small, err := TPCCResources(8, sizes, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	bigSizes := []TrainSize{{"5%", 1200}, {"20%", 4800}}
	big, err := TPCCResources(32, bigSizes, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sm, bg := byApproach(small), byApproach(big)
	// Tables 1–2 shape, claim 1: Schism's footprint grows with coverage.
	if bg["schism 20%"].RAMMB < bg["schism 5%"].RAMMB {
		t.Errorf("schism RAM must grow with coverage: %.1f vs %.1f",
			bg["schism 5%"].RAMMB, bg["schism 20%"].RAMMB)
	}
	// Claim 2: Schism's footprint grows with database size (same
	// coverage fraction, 4x the warehouses).
	if bg["schism 20%"].RAMMB < 2*sm["schism 20%"].RAMMB {
		t.Errorf("schism RAM must grow with DB size: %.1f (8wh) vs %.1f (32wh)",
			sm["schism 20%"].RAMMB, bg["schism 20%"].RAMMB)
	}
	// Claim 3: JECB's consumption does not depend on the database size.
	if bg["JECB"].RAMMB > 3*sm["JECB"].RAMMB+8 {
		t.Errorf("JECB RAM must stay flat: %.1f (8wh) vs %.1f (32wh)",
			sm["JECB"].RAMMB, bg["JECB"].RAMMB)
	}
	for _, r := range append(small, big...) {
		if r.CPUSeconds <= 0 || r.RAMMB <= 0 {
			t.Errorf("%s: empty measurements %+v", r.Approach, r)
		}
	}
}

func TestQualityShape(t *testing.T) {
	rows, err := Quality([]string{"tatp", "seats"}, 8, 1500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.JECB > r.Schism+0.01 {
			t.Errorf("%s: JECB (%.3f) worse than Schism (%.3f)", r.Benchmark, r.JECB, r.Schism)
		}
	}
	// Figure 7's SEATS gap: JECB clearly beats published Horticulture.
	for _, r := range rows {
		if r.Benchmark == "seats" && r.JECB > r.Horticulture-0.1 {
			t.Errorf("seats: JECB (%.3f) should beat Horticulture (%.3f) decisively",
				r.JECB, r.Horticulture)
		}
	}
}

func TestTPCEDeepDive(t *testing.T) {
	res, err := TPCE(200, 4000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.JECBCost < 0.10 || res.JECBCost > 0.35 {
		t.Errorf("JECB TPC-E cost = %.3f, want ≈0.21", res.JECBCost)
	}
	// Figure 7's TPC-E bars: Horticulture well above JECB.
	if res.HCCost <= res.JECBCost {
		t.Errorf("HC (%.3f) should be worse than JECB (%.3f)", res.HCCost, res.JECBCost)
	}
	// Figure 9 vs Figure 8: Horticulture loses the classes JECB
	// partitions completely (§7.5's closing comparison).
	for _, class := range []string{"Customer-Position", "Market-Watch"} {
		if res.PerClassJECB[class] > 0.05 {
			t.Errorf("JECB %s = %.3f, want ~0", class, res.PerClassJECB[class])
		}
		if res.PerClassHC[class] < 0.3 {
			t.Errorf("HC %s = %.3f, want high (Figure 9)", class, res.PerClassHC[class])
		}
	}
	// Horticulture wins Broker-Volume by replicating its tables.
	if res.PerClassHC["Broker-Volume"] > res.PerClassJECB["Broker-Volume"] {
		t.Errorf("HC Broker-Volume (%.3f) should beat JECB (%.3f)",
			res.PerClassHC["Broker-Volume"], res.PerClassJECB["Broker-Volume"])
	}
	// ...but pays with Trade-Order, which updates the replicated
	// TRADE_REQUEST (§7.5).
	if res.PerClassHC["Trade-Order"] < 0.9 {
		t.Errorf("HC Trade-Order = %.3f, want ~1 (writes replicated TRADE_REQUEST)",
			res.PerClassHC["Trade-Order"])
	}
	if len(res.Report.Table3()) != 15 {
		t.Errorf("Table 3 rows = %d", len(res.Report.Table3()))
	}
}

func TestSyntheticSweepShape(t *testing.T) {
	pts, err := SyntheticSweep([]float64{0.9, 0.1}, 16, 150, 800, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %+v", pts)
	}
	// Schema-dominant: JECB good. Implicit-dominant: column-based good.
	if pts[0].JECB > 0.2 {
		t.Errorf("JECB at 90%% schema mix = %.3f", pts[0].JECB)
	}
	if pts[1].ColumnBased > 0.3 {
		t.Errorf("column-based at 10%% schema mix = %.3f", pts[1].ColumnBased)
	}
}

func TestDegradationShape(t *testing.T) {
	rows, err := Degradation("synthetic", []string{"none", "single-crash"}, 2, 100, 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if len(r.Cells) != 2 {
			t.Fatalf("%s: cells = %+v", r.Approach, r.Cells)
		}
		if r.BaselineTPS <= 0 {
			t.Errorf("%s: baseline = %v", r.Approach, r.BaselineTPS)
		}
		none, crash := r.Cells[0], r.Cells[1]
		if none.Aborts != 0 || none.AvailabilityPct != 100 {
			t.Errorf("%s: none scenario not clean: %+v", r.Approach, none)
		}
		// A crash can only hurt: effective throughput must not exceed the
		// fault-free replay's.
		if crash.EffectiveTPS > none.EffectiveTPS+1e-9 {
			t.Errorf("%s: crash tps %.1f exceeds fault-free %.1f",
				r.Approach, crash.EffectiveTPS, none.EffectiveTPS)
		}
	}
	if _, err := Degradation("synthetic", nil, 2, 100, 600, 1); err == nil {
		t.Error("empty scenario list must error")
	}
	if _, err := Degradation("synthetic", []string{"nope"}, 2, 100, 600, 1); err == nil {
		t.Error("unknown scenario must error")
	}
}

func TestLoadUnknownBenchmark(t *testing.T) {
	if _, err := load("nope", 0, 10, 0.5, 1); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestAblations(t *testing.T) {
	rows, err := Ablations(150, 2000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %+v", rows)
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	full := byName["full jecb"]
	if full.Attributes == 0 || full.Combos == 0 {
		t.Errorf("full row empty: %+v", full)
	}
	// Join extension is the headline: removing it must not help.
	if byName["intra-table only"].Cost < full.Cost-1e-9 {
		t.Errorf("intra-table (%.3f) beats full JECB (%.3f)",
			byName["intra-table only"].Cost, full.Cost)
	}
	for _, r := range rows {
		if r.Cost < 0 || r.Cost > 1 {
			t.Errorf("%s: cost %v out of range", r.Name, r.Cost)
		}
	}
}
