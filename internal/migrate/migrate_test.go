package migrate

import (
	"reflect"
	"testing"

	"repro/internal/fixture"
	"repro/internal/partition"
	"repro/internal/value"
)

func hashSolution(name string, k int) *partition.Solution {
	sol := partition.NewSolution(name, k)
	sol.Set(partition.NewByPath("TRADE", fixture.TradePath(), partition.NewHash(k)))
	sol.Set(partition.NewByPath("HOLDING_SUMMARY", fixture.HSPath(), partition.NewHash(k)))
	sol.Set(partition.NewByPath("CUSTOMER_ACCOUNT", fixture.CAPath(), partition.NewHash(k)))
	return sol
}

func TestComputeKMismatchErrors(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 50, 1)
	if _, err := Compute(d, hashSolution("a", 2), hashSolution("b", 4), tr, -1); err == nil {
		t.Fatal("k mismatch must error")
	}
}

// TestComputeIdenticalSolutionsIsEmpty: no fingerprint differs, so the
// plan is empty, full (not partial), and free.
func TestComputeIdenticalSolutionsIsEmpty(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 100, 1)
	plan, err := Compute(d, hashSolution("a", 4), hashSolution("b", 4), tr, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Units) != 0 || plan.MovedTuples != 0 || plan.Partial {
		t.Errorf("plan = %+v, want empty", plan)
	}
	if plan.CostOld != plan.CostNew || plan.CostPlanned != plan.CostOld {
		t.Errorf("costs %v/%v/%v must agree", plan.CostOld, plan.CostPlanned, plan.CostNew)
	}
}

// TestComputeToReplicatedChargesCopies: partitioned → replicated copies
// every row to the K-1 nodes lacking it.
func TestComputeToReplicatedChargesCopies(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 100, 1)
	const k = 4
	old := hashSolution("old", k)
	new := hashSolution("new", k)
	new.Set(partition.NewReplicated("HOLDING_SUMMARY"))
	plan, err := Compute(d, old, new, tr, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Units) != 1 || plan.Units[0].Table != "HOLDING_SUMMARY" {
		t.Fatalf("units = %+v", plan.Units)
	}
	rows := d.Table("HOLDING_SUMMARY").Len()
	want := rows * (k - 1)
	if plan.MovedTuples != want {
		t.Errorf("moved = %d, want rows(%d) x (k-1) = %d", plan.MovedTuples, rows, want)
	}
	// Each flow's destination differs from its source.
	for _, f := range plan.Units[0].Flows {
		if f.From == f.To {
			t.Errorf("self-flow %+v", f)
		}
	}
}

// TestComputeFromReplicatedIsFree: replicated → partitioned drops
// replicas; every node already holds the rows.
func TestComputeFromReplicatedIsFree(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 100, 1)
	old := hashSolution("old", 4)
	old.Set(partition.NewReplicated("HOLDING_SUMMARY"))
	new := hashSolution("new", 4)
	plan, err := Compute(d, old, new, tr, 0) // zero budget: only free units fit
	if err != nil {
		t.Fatal(err)
	}
	if plan.MovedTuples != 0 {
		t.Errorf("moved = %d, want 0 (replica drop is free)", plan.MovedTuples)
	}
	if len(plan.Units) != 1 || plan.Units[0].Table != "HOLDING_SUMMARY" {
		t.Fatalf("units = %+v, want the free HOLDING_SUMMARY unit selected", plan.Units)
	}
}

// TestComputeBudgetClampAndHybrid: a tight budget defers the expensive
// unit; the hybrid solution mixes new (migrated) and old (deferred)
// placements and stays valid.
func TestComputeBudgetClampAndHybrid(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 100, 1)
	const k = 4
	old := hashSolution("old", k)
	// New solution flips TRADE to a lookup (cheap-ish delta) and
	// replicates HOLDING_SUMMARY (expensive: rows x (k-1)).
	new := hashSolution("new", k)
	new.Set(partition.NewReplicated("HOLDING_SUMMARY"))
	flip := map[value.Value]int{}
	v := d.View()
	for _, row := range v.Rows(d.Table("CUSTOMER_ACCOUNT")) {
		flip[row[1]] = 0 // CA_C_ID -> partition 0
	}
	v.Close()
	new.Set(partition.NewByPath("TRADE", fixture.TradePath(), partition.NewLookup(k, flip, partition.NewHash(k))))

	full, err := Compute(d, old, new, tr, -1)
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial || full.DeferredTuples != 0 {
		t.Fatalf("unbounded plan clamped: %+v", full)
	}
	total := full.MovedTuples
	hsRows := d.Table("HOLDING_SUMMARY").Len() * (k - 1)
	budget := total - hsRows // enough for everything except the replication unit... unless TRADE is bigger
	if budget <= 0 {
		t.Skip("fixture too small to split units")
	}

	clamped, err := Compute(d, old, new, tr, budget)
	if err != nil {
		t.Fatal(err)
	}
	if clamped.MovedTuples > budget {
		t.Errorf("moved %d over budget %d", clamped.MovedTuples, budget)
	}
	if !clamped.Partial || clamped.DeferredTuples == 0 {
		t.Errorf("plan must be partial: %+v", clamped)
	}
	if clamped.MovedTuples+clamped.DeferredTuples != total {
		t.Errorf("moved %d + deferred %d != full delta %d",
			clamped.MovedTuples, clamped.DeferredTuples, total)
	}

	hybrid := clamped.Hybrid(old, new)
	if err := hybrid.Validate(d.Schema()); err != nil {
		t.Fatalf("hybrid invalid: %v", err)
	}
	selected := map[string]bool{}
	for _, u := range clamped.Units {
		selected[u.Table] = true
	}
	for name := range hybrid.Tables {
		wantFP := old.Table(name).Fingerprint()
		if selected[name] {
			wantFP = new.Table(name).Fingerprint()
		}
		if got := hybrid.Table(name).Fingerprint(); got != wantFP {
			t.Errorf("%s: hybrid placement on the wrong side of the plan", name)
		}
	}
}

// TestComputeDeterministic: two identical Compute calls return deeply
// equal plans (unit order, flows, costs).
func TestComputeDeterministic(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 100, 1)
	old := hashSolution("old", 4)
	new := hashSolution("new", 4)
	new.Set(partition.NewReplicated("HOLDING_SUMMARY"))
	new.Set(partition.NewByPath("TRADE", fixture.TradePath(), partition.NewHash(4)))
	new.Set(partition.NewByPath("CUSTOMER_ACCOUNT", fixture.CAPath(),
		partition.NewLookup(4, map[value.Value]int{value.NewInt(1): 3}, partition.NewHash(4))))
	a, err := Compute(d, old, new, tr, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compute(d, old, new, tr, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("plans differ:\n a = %+v\n b = %+v", a, b)
	}
	// Flows are sorted by (From, To).
	for _, u := range a.Units {
		for i := 1; i < len(u.Flows); i++ {
			p, q := u.Flows[i-1], u.Flows[i]
			if p.From > q.From || (p.From == q.From && p.To >= q.To) {
				t.Errorf("%s: flows out of order: %+v", u.Table, u.Flows)
			}
		}
	}
}
