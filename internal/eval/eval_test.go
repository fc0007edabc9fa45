package eval

import (
	"strings"
	"testing"

	"repro/internal/fixture"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/value"
)

func singleColPath(table string, cols ...string) schema.JoinPath {
	nodes := make([]schema.ColumnSet, len(cols))
	for i, c := range cols {
		nodes[i] = schema.ColumnSet{Table: table, Columns: []string{c}}
	}
	return schema.NewJoinPath(nodes...)
}

// joinExtensionSolution is the paper's ideal CustInfo partitioning: every
// table by CA_C_ID via join paths (Figure 1's red/blue split).
func joinExtensionSolution(k int) *partition.Solution {
	sol := partition.NewSolution("join-extension", k)
	sol.Set(partition.NewByPath("TRADE", fixture.TradePath(), partition.NewHash(k)))
	sol.Set(partition.NewByPath("HOLDING_SUMMARY", fixture.HSPath(), partition.NewHash(k)))
	sol.Set(partition.NewByPath("CUSTOMER_ACCOUNT", fixture.CAPath(), partition.NewHash(k)))
	return sol
}

// naiveSolution partitions each table by an intra-table attribute — the
// strategy the paper's Example 1 shows cannot make CustInfo
// single-partition.
func naiveSolution(k int) *partition.Solution {
	sol := partition.NewSolution("naive", k)
	sol.Set(partition.NewByPath("TRADE",
		singleColPath("TRADE", "T_ID", "T_CA_ID"), partition.NewHash(k)))
	sol.Set(partition.NewByPath("CUSTOMER_ACCOUNT",
		singleColPath("CUSTOMER_ACCOUNT", "CA_ID"), partition.NewHash(k)))
	hs := schema.NewJoinPath(
		schema.ColumnSet{Table: "HOLDING_SUMMARY", Columns: []string{"HS_S_SYMB", "HS_CA_ID"}},
		schema.ColumnSet{Table: "HOLDING_SUMMARY", Columns: []string{"HS_CA_ID"}},
	)
	sol.Set(partition.NewByPath("HOLDING_SUMMARY", hs, partition.NewHash(k)))
	return sol
}

// TestJoinExtensionIsPerfect reproduces the §3 claim: partitioning all
// three tables by CA_C_ID makes every CustInfo transaction
// single-partition for any number of partitions.
func TestJoinExtensionIsPerfect(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.CustInfoTrace(d, 200, 1)
	for _, k := range []int{2, 4, 8} {
		r, err := Evaluate(d, joinExtensionSolution(k), tr)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cost() != 0 {
			t.Errorf("k=%d: cost = %v, want 0", k, r.Cost())
		}
		if r.Total != 200 {
			t.Errorf("k=%d: total = %d", k, r.Total)
		}
	}
}

// TestNaiveIsImperfect: the intra-table strategy distributes essentially
// every CustInfo transaction (each customer's accounts hash apart).
func TestNaiveIsImperfect(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.CustInfoTrace(d, 200, 1)
	r, err := Evaluate(d, naiveSolution(8), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost() < 0.5 {
		t.Errorf("naive cost = %v, expected high", r.Cost())
	}
	a, err := NewAssigner(d, naiveSolution(8))
	if err != nil {
		t.Fatal(err)
	}
	v := d.View()
	defer v.Close()
	touched := 0
	for _, txn := range tr.All() {
		if s := a.Span(v, txn); s.Distributed() {
			touched += s.Touched(8)
		}
	}
	if avg := float64(touched) / float64(r.Distributed); avg < 1.5 {
		t.Errorf("avg touched = %v", avg)
	}
}

func TestReplicatedReadsAreFree(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.CustInfoTrace(d, 100, 2)
	// Replicate everything: read-only transactions stay local.
	sol := partition.NewSolution("all-replicated", 4)
	for _, tbl := range []string{"TRADE", "HOLDING_SUMMARY", "CUSTOMER_ACCOUNT"} {
		sol.Set(partition.NewReplicated(tbl))
	}
	r, err := Evaluate(d, sol, tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost() != 0 {
		t.Errorf("read-only on replicated tables: cost = %v", r.Cost())
	}
}

func TestReplicatedWriteIsDistributed(t *testing.T) {
	d := fixture.CustInfoDB()
	sol := partition.NewSolution("rep", 4)
	for _, tbl := range []string{"TRADE", "HOLDING_SUMMARY", "CUSTOMER_ACCOUNT"} {
		sol.Set(partition.NewReplicated(tbl))
	}
	col := trace.NewCollector()
	col.Begin("W", nil)
	col.Write("TRADE", value.MakeKey(value.NewInt(1)))
	col.Commit()
	r, err := Evaluate(d, sol, col.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if r.Distributed != 1 {
		t.Errorf("write to replicated tuple must be distributed (Def 5.1); got %d", r.Distributed)
	}
}

func TestUnplaceableTupleDistributes(t *testing.T) {
	d := fixture.CustInfoDB()
	// Dangling FK: trade 100 references a missing account.
	d.Table("TRADE").MustInsert(value.NewInt(100), value.NewInt(999), value.NewInt(1))
	col := trace.NewCollector()
	col.Begin("X", nil)
	col.Read("TRADE", value.MakeKey(value.NewInt(100)))
	col.Commit()
	r, err := Evaluate(d, joinExtensionSolution(2), col.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if r.Distributed != 1 {
		t.Error("unplaceable tuple must make the transaction distributed")
	}
}

func TestMissingTableSolutionDistributes(t *testing.T) {
	d := fixture.CustInfoDB()
	sol := partition.NewSolution("partial", 2)
	sol.Set(partition.NewByPath("TRADE", fixture.TradePath(), partition.NewHash(2)))
	col := trace.NewCollector()
	col.Begin("X", nil)
	col.Read("HOLDING_SUMMARY", value.MakeKey(value.NewString("BLS"), value.NewInt(8)))
	col.Commit()
	r, err := Evaluate(d, sol, col.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if r.Distributed != 1 {
		t.Error("access to uncovered table must be distributed")
	}
}

func TestPerClassBreakdown(t *testing.T) {
	d := fixture.CustInfoDB()
	col := trace.NewCollector()
	// Class L: local single-tuple reads.
	for i := 0; i < 3; i++ {
		col.Begin("L", nil)
		col.Read("TRADE", value.MakeKey(value.NewInt(1)))
		col.Commit()
	}
	// Class D: cross-customer reads (distributed whenever the two
	// customers map to different partitions — with k=2 and the lookup
	// mapper below, always).
	col.Begin("D", nil)
	col.Read("TRADE", value.MakeKey(value.NewInt(1))) // customer 1
	col.Read("TRADE", value.MakeKey(value.NewInt(2))) // customer 2
	col.Commit()
	sol := partition.NewSolution("lk", 2)
	lookup := partition.NewLookup(2, map[value.Value]int{
		value.NewInt(1): 0,
		value.NewInt(2): 1,
	}, nil)
	sol.Set(partition.NewByPath("TRADE", fixture.TradePath(), lookup))
	sol.Set(partition.NewByPath("HOLDING_SUMMARY", fixture.HSPath(), lookup))
	sol.Set(partition.NewByPath("CUSTOMER_ACCOUNT", fixture.CAPath(), lookup))
	r, err := Evaluate(d, sol, col.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if r.ByClass["L"].Cost() != 0 {
		t.Errorf("class L cost = %v", r.ByClass["L"].Cost())
	}
	if r.ByClass["D"].Cost() != 1 {
		t.Errorf("class D cost = %v", r.ByClass["D"].Cost())
	}
	classes := r.Classes()
	if len(classes) != 2 || classes[0].Class != "D" || classes[1].Class != "L" {
		t.Errorf("Classes() = %v", classes)
	}
	if !strings.Contains(r.String(), "25.0%") {
		t.Errorf("String = %q", r.String())
	}
}

func TestAssignerPlaceKey(t *testing.T) {
	d := fixture.CustInfoDB()
	sol := joinExtensionSolution(2)
	a, err := NewAssigner(d, sol)
	if err != nil {
		t.Fatal(err)
	}
	v := d.View()
	defer v.Close()
	p1, ok := a.PlaceKey(v, trace.Access{Table: "TRADE", Key: value.MakeKey(value.NewInt(1))})
	if !ok {
		t.Fatal("place failed")
	}
	p7, ok := a.PlaceKey(v, trace.Access{Table: "TRADE", Key: value.MakeKey(value.NewInt(7))})
	if !ok || p1 != p7 {
		t.Error("same-customer trades must co-locate")
	}
	if _, ok := a.PlaceKey(v, trace.Access{Table: "NOPE", Key: value.MakeKey(value.NewInt(1))}); ok {
		t.Error("unknown table must not place")
	}
}

// TestPlaceKeyZeroAlloc gates placement at zero allocations: a compiled
// navigation plus a mapper call, for partitioned, replicated and
// uncovered tables alike.
func TestPlaceKeyZeroAlloc(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 50, 3)
	sol := joinExtensionSolution(4)
	sol.Set(partition.NewReplicated("CUSTOMER_ACCOUNT"))
	a, err := NewAssigner(d, sol)
	if err != nil {
		t.Fatal(err)
	}
	var accs []trace.Access
	for _, txn := range tr.All() {
		accs = append(accs, txn.Accesses...)
	}
	accs = append(accs, trace.Access{Table: "NOPE", Key: value.MakeKey(value.NewInt(1))})
	v := d.View()
	defer v.Close()
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		a.PlaceKey(v, accs[i%len(accs)])
		i++
	})
	if allocs != 0 {
		t.Errorf("PlaceKey = %.2f allocs/op, want 0", allocs)
	}
}

func TestEvaluateRejectsInvalidSolution(t *testing.T) {
	d := fixture.CustInfoDB()
	bad := partition.NewSolution("bad", 0)
	if _, err := Evaluate(d, bad, &trace.Trace{}); err == nil {
		t.Error("invalid solution must be rejected")
	}
}

func TestEmptyTraceCost(t *testing.T) {
	d := fixture.CustInfoDB()
	r, err := Evaluate(d, joinExtensionSolution(2), &trace.Trace{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost() != 0 || r.Distributed != 0 {
		t.Errorf("empty trace: cost=%v distributed=%v", r.Cost(), r.Distributed)
	}
}

func TestMeasure(t *testing.T) {
	res, err := Measure(func() error {
		buf := make([]byte, 1<<20)
		_ = buf
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllocBytes < 1<<20 {
		t.Errorf("alloc bytes = %d, want >= 1MiB", res.AllocBytes)
	}
	if res.AllocMB() < 1 {
		t.Errorf("AllocMB = %v", res.AllocMB())
	}
	if res.CPU <= 0 {
		t.Errorf("CPU = %v", res.CPU)
	}
}

// TestSpanDefinition5 pins the classifier access by access: replicated
// reads add nothing, a replicated write or an unplaceable tuple spans
// every partition, and two real partitions make a transaction
// distributed. Touched counts all k for a spanning transaction and
// never fewer than two.
func TestSpanDefinition5(t *testing.T) {
	const r, u = PlaceReplicated, PlaceUnplaced
	cases := []struct {
		name    string
		place   []int32
		write   []bool
		dist    bool
		all     bool
		parts   string
		touched int // at k = 8
	}{
		{"no accesses", nil, nil, false, false, "{}", 2},
		{"replicated read", []int32{r}, []bool{false}, false, false, "{}", 2},
		{"one partition", []int32{3, r, 3}, []bool{true, false, false}, false, false, "{3}", 2},
		{"two partitions", []int32{1, 5}, []bool{false, false}, true, false, "{1, 5}", 2},
		{"three partitions", []int32{6, 1, 5}, []bool{false, true, false}, true, false, "{1, 5, 6}", 3},
		{"replicated write", []int32{2, r}, []bool{false, true}, true, true, "{2}", 8},
		{"unplaced read", []int32{u, 4}, []bool{false, false}, true, true, "{4}", 8},
	}
	for _, c := range cases {
		var s Span
		for j, p := range c.place {
			s.Add(p, c.write[j])
		}
		if s.Distributed() != c.dist || s.All != c.all || s.Parts.String() != c.parts || s.Touched(8) != c.touched {
			t.Errorf("%s: distributed=%v all=%v parts=%s touched=%d, want %v %v %s %d",
				c.name, s.Distributed(), s.All, s.Parts.String(), s.Touched(8), c.dist, c.all, c.parts, c.touched)
		}
	}
	spanning := Span{All: true}
	if got := spanning.Touched(1); got != 2 {
		t.Errorf("spanning Touched(1) = %d, want 2", got)
	}
}
