package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/fixture"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/trace"
	"repro/internal/value"
)

func custInfoInput(t *testing.T, n int) (Input, *db.DB) {
	t.Helper()
	d := fixture.CustInfoDB()
	full := fixture.MixedTrace(d, n, 7)
	train, test := full.TrainTest(0.5, rand.New(rand.NewSource(7)))
	return Input{
		DB:         d,
		Procedures: []*sqlparse.Procedure{fixture.CustInfoProcedure(), fixture.TradeUpdateProcedure()},
		Train:      train,
		Test:       test,
	}, d
}

// TestJECBCustInfoEndToEnd runs the full pipeline on the paper's running
// example: JECB must discover the join-extension partitioning by customer
// id, replicate the read-only HOLDING_SUMMARY, and achieve zero
// distributed transactions.
func TestJECBCustInfoEndToEnd(t *testing.T) {
	in, d := custInfoInput(t, 400)
	sol, rep, err := Partition(context.Background(), in, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// HOLDING_SUMMARY is read-only: replicated in Phase 1. TRADE and
	// CUSTOMER_ACCOUNT are written by TradeUpdate, so they partition.
	if !rep.Replicated["HOLDING_SUMMARY"] {
		t.Error("HOLDING_SUMMARY must be replicated")
	}
	if rep.Replicated["TRADE"] || rep.Replicated["CUSTOMER_ACCOUNT"] {
		t.Error("written tables must not be replicated")
	}
	// Both partitioned tables end on the customer attribute.
	for _, tbl := range []string{"TRADE", "CUSTOMER_ACCOUNT"} {
		ts := sol.Table(tbl)
		if ts == nil || ts.Replicate {
			t.Fatalf("%s: unexpected placement %v", tbl, ts)
		}
		attr, _ := ts.Attribute()
		if attr.Column != "CA_C_ID" {
			t.Errorf("%s partitioned by %v, want CA_C_ID", tbl, attr)
		}
	}
	// Zero cost on the held-out test trace.
	r, err := eval.Evaluate(d, sol, in.Test)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost() != 0 {
		t.Errorf("test cost = %.3f, want 0", r.Cost())
	}
	if rep.TrainCost != 0 {
		t.Errorf("train cost = %.3f, want 0", rep.TrainCost)
	}
	// Report plumbing.
	if rep.ChosenAttribute.Column != "CA_C_ID" {
		t.Errorf("chosen attribute = %v", rep.ChosenAttribute)
	}
	if len(rep.Table3()) != 2 {
		t.Errorf("table 3 rows = %v", rep.Table3())
	}
	if len(rep.Table4()) != 3 {
		t.Errorf("table 4 rows = %v", rep.Table4())
	}
	if !strings.Contains(rep.String(), "CustInfo") {
		t.Error("report string missing class")
	}
}

// TestJECBPhase2CustInfo checks the per-class outcome matching the §3
// narrative: CustInfo has a mapping-independent total solution rooted at
// the customer attribute.
func TestJECBPhase2CustInfo(t *testing.T) {
	in, _ := custInfoInput(t, 400)
	p, err := New(in, Options{K: 2})
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
	ci := classes["CustInfo"]
	if ci == nil || len(ci.Total) == 0 {
		t.Fatalf("CustInfo result = %+v", ci)
	}
	foundCACID := false
	for _, s := range ci.Total {
		if !s.MappingIndependent {
			t.Error("CustInfo totals must be mapping independent")
		}
		if s.Root().Column == "CA_C_ID" {
			foundCACID = true
		}
		// CA_ID-rooted tree is compatible and coarser... it is finer
		// than CA_C_ID; both may be kept only if incompatible. The
		// coarser (CA_C_ID) tree must have been dropped if compatible.
		if s.Root().Column == "CA_ID" {
			// CA_ID is not mapping independent for CustInfo (customer 1
			// has accounts 1 and 8) — it must not appear as a total.
			t.Error("CA_ID tree is not mapping independent for CustInfo")
		}
	}
	if !foundCACID {
		t.Errorf("no CA_C_ID total solution; totals = %v", ci.Total)
	}
	if ci.Mix < 0.5 || ci.Mix > 0.9 {
		t.Errorf("mix = %v", ci.Mix)
	}
}

// TestJECBIntraTableAblation: without join extension no solution may use
// a cross-table path, and the result can never beat full JECB.
func TestJECBIntraTableAblation(t *testing.T) {
	in, d := custInfoInput(t, 400)
	ablated, _, err := Partition(context.Background(), in, Options{K: 2, IntraTableOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := Partition(context.Background(), in, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for tbl, ts := range ablated.Tables {
		if ts.Replicate {
			continue
		}
		for _, n := range ts.Path.Nodes {
			if n.Table != tbl {
				t.Errorf("%s: ablated solution uses cross-table path %v", tbl, ts.Path)
			}
		}
	}
	ra, err := eval.Evaluate(d, ablated, in.Test)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := eval.Evaluate(d, full, in.Test)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Cost() < rf.Cost() {
		t.Errorf("ablated cost %.3f beats full JECB %.3f", ra.Cost(), rf.Cost())
	}
}

// clusteredPairsDB builds a single-table workload whose transactions
// co-access pairs of rows within disjoint clusters — no mapping
// independent solution exists, but the min-cut fallback finds a perfect
// lookup mapping.
func clusteredPairsDB(t *testing.T, clustered bool) (Input, *db.DB) {
	t.Helper()
	s := schema.New("pairs")
	s.AddTable("ITEMS", schema.Cols("I_ID", schema.Int, "I_QTY", schema.Int), "I_ID")
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	d := db.New(s)
	items := d.Table("ITEMS")
	const nItems = 64
	for i := int64(0); i < nItems; i++ {
		items.MustInsert(value.NewInt(i), value.NewInt(0))
	}
	rng := rand.New(rand.NewSource(3))
	col := trace.NewCollector()
	for i := 0; i < 600; i++ {
		var a, b int64
		if clustered {
			// Strided clusters: items i with i % 8 == c co-access, so a
			// range mapping over the sorted domain is useless while the
			// min-cut lookup mapping is perfect.
			cluster := rng.Int63n(8)
			a = cluster + 8*rng.Int63n(8)
			b = cluster + 8*rng.Int63n(8)
		} else {
			a, b = rng.Int63n(nItems), rng.Int63n(nItems)
		}
		col.Begin("PairUpdate", map[string]value.Value{"a": value.NewInt(a), "b": value.NewInt(b)})
		col.Write("ITEMS", value.MakeKey(value.NewInt(a)))
		col.Write("ITEMS", value.MakeKey(value.NewInt(b)))
		col.Commit()
	}
	full := col.Trace()
	train, test := full.TrainTest(0.5, rand.New(rand.NewSource(4)))
	proc := sqlparse.MustProcedure("PairUpdate", []string{"a", "b"}, `
		UPDATE ITEMS SET I_QTY = 1 WHERE I_ID = @a;
		UPDATE ITEMS SET I_QTY = 1 WHERE I_ID = @b;
	`)
	return Input{DB: d, Procedures: []*sqlparse.Procedure{proc}, Train: train, Test: test}, d
}

func TestJECBMinCutFallback(t *testing.T) {
	in, d := clusteredPairsDB(t, true)
	sol, rep, err := Partition(context.Background(), in, Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	cr := rep.Classes["PairUpdate"]
	if cr.NonPartitionable {
		t.Fatal("clustered pairs must be partitionable via min-cut fallback")
	}
	if len(cr.Total) != 1 || cr.Total[0].MappingIndependent || cr.Total[0].Mapper == nil {
		t.Fatalf("fallback solution = %+v", cr.Total)
	}
	r, err := eval.Evaluate(d, sol, in.Test)
	if err != nil {
		t.Fatal(err)
	}
	// Clusters never cross, so the lookup mapping is near-perfect; hash
	// would distribute ~87% of pairs.
	if r.Cost() > 0.05 {
		t.Errorf("fallback cost = %.3f, want ~0", r.Cost())
	}
	ts := sol.Table("ITEMS")
	if ts.Mapper.Name() != "lookup" {
		t.Errorf("mapper = %s, want lookup", ts.Mapper.Name())
	}
}

func TestJECBNonPartitionable(t *testing.T) {
	in, d := clusteredPairsDB(t, false)
	sol, rep, err := Partition(context.Background(), in, Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	cr := rep.Classes["PairUpdate"]
	if cr.NonPartitionable {
		rows := rep.Table3()
		if rows[0].Total != "No" {
			t.Errorf("table 3 total = %q, want No", rows[0].Total)
		}
		return
	}
	// Min-cut occasionally squeaks past the meaningfulness margin on
	// random data; the solution must still be near-worthless.
	r, err := eval.Evaluate(d, sol, in.Test)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost() < 0.6 {
		t.Errorf("random pairs partitioned with cost %.3f — too good to be true", r.Cost())
	}
}

func TestJECBDisabledFallback(t *testing.T) {
	in, _ := clusteredPairsDB(t, true)
	_, rep, err := Partition(context.Background(), in, Options{K: 8, DisableMinCutFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Classes["PairUpdate"].NonPartitionable {
		t.Error("with fallback disabled the class must be non-partitionable")
	}
}

func TestJECBInputValidation(t *testing.T) {
	in, _ := custInfoInput(t, 50)
	cases := []struct {
		name string
		mut  func(Input) Input
		opts Options
	}{
		{"nil db", func(i Input) Input { i.DB = nil; return i }, Options{K: 2}},
		{"no procs", func(i Input) Input { i.Procedures = nil; return i }, Options{K: 2}},
		{"empty trace", func(i Input) Input { i.Train = &trace.Trace{}; return i }, Options{K: 2}},
		{"bad k", func(i Input) Input { return i }, Options{K: 0}},
	}
	for _, c := range cases {
		if _, err := New(c.mut(in), c.opts); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Trace class without a procedure.
	bad := in
	bad.Procedures = []*sqlparse.Procedure{fixture.CustInfoProcedure()}
	if _, _, err := Partition(context.Background(), bad, Options{K: 2}); err == nil {
		t.Error("missing procedure for a trace class must error")
	}
}

func TestJECBReadOnlyClass(t *testing.T) {
	// A workload that is entirely read-only: everything replicates and
	// every class is flagged read-only.
	d := fixture.CustInfoDB()
	tr := fixture.CustInfoTrace(d, 100, 5)
	sol, rep, err := Partition(context.Background(), Input{
		DB:         d,
		Procedures: []*sqlparse.Procedure{fixture.CustInfoProcedure()},
		Train:      tr,
	}, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Classes["CustInfo"].ReadOnly {
		t.Error("CustInfo must be read-only in a read-only workload")
	}
	for _, tbl := range []string{"TRADE", "CUSTOMER_ACCOUNT", "HOLDING_SUMMARY"} {
		if ts := sol.Table(tbl); ts == nil || !ts.Replicate {
			t.Errorf("%s must be replicated", tbl)
		}
	}
	r, err := eval.Evaluate(d, sol, tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost() != 0 {
		t.Errorf("cost = %v", r.Cost())
	}
}

// TestJECBSubtreePartials exercises partial-solution extraction: a deeper
// chain A -> B -> C where the class is mapping independent at the finest
// root, producing partials at intermediate roots.
func TestJECBSubtreePartials(t *testing.T) {
	s := schema.New("chain")
	s.AddTable("C", schema.Cols("C_ID", schema.Int, "C_G", schema.Int), "C_ID")
	s.AddTable("B", schema.Cols("B_ID", schema.Int, "B_C_ID", schema.Int), "B_ID")
	s.AddTable("A", schema.Cols("A_ID", schema.Int, "A_B_ID", schema.Int, "A_V", schema.Int), "A_ID")
	s.AddFK("B", []string{"B_C_ID"}, "C", []string{"C_ID"})
	s.AddFK("A", []string{"A_B_ID"}, "B", []string{"B_ID"})
	d := db.New(s.MustValidate())
	for i := int64(0); i < 8; i++ {
		d.Table("C").MustInsert(value.NewInt(i), value.NewInt(i%4))
		d.Table("B").MustInsert(value.NewInt(i), value.NewInt(i))
		d.Table("A").MustInsert(value.NewInt(i), value.NewInt(i), value.NewInt(0))
	}
	proc := sqlparse.MustProcedure("Chain", []string{"g"}, `
		SELECT A_V FROM A JOIN B ON A_B_ID = B_ID JOIN C ON B_C_ID = C_ID WHERE C_G = @g;
		UPDATE A SET A_V = 1 WHERE A_ID = @a;
		UPDATE B SET B_C_ID = B_C_ID WHERE B_ID = @a;
		UPDATE C SET C_G = C_G WHERE C_ID = @a;
	`)
	rng := rand.New(rand.NewSource(9))
	col := trace.NewCollector()
	for i := 0; i < 200; i++ {
		g := rng.Int63n(4)
		col.Begin("Chain", map[string]value.Value{"g": value.NewInt(g)})
		ct, bt, at := d.Table("C"), d.Table("B"), d.Table("A")
		for _, cRow := range ct.LookupRows("C_G", value.NewInt(g)) {
			col.Write("C", ct.PKOf(cRow))
			for _, bRow := range bt.LookupRows("B_C_ID", cRow[0]) {
				col.Write("B", bt.PKOf(bRow))
				for _, aRow := range at.LookupRows("A_B_ID", bRow[0]) {
					col.Write("A", at.PKOf(aRow))
				}
			}
		}
		col.Commit()
	}
	in := Input{DB: d, Procedures: []*sqlparse.Procedure{proc}, Train: col.Trace()}
	p, err := New(in, Options{K: 4})
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
	cr := classes["Chain"]
	if len(cr.Total) == 0 {
		t.Fatalf("no total solutions: %+v", cr)
	}
	if cr.Total[0].Root().Column != "C_G" {
		t.Errorf("total root = %v, want C_G", cr.Total[0].Root())
	}
	// Partials rooted at C_ID (and deeper) are NOT mapping independent
	// for this workload (a group touches several C rows); there must be
	// no C_ID partial.
	for _, ps := range cr.Partial {
		if ps.Root().Column == "C_ID" {
			t.Errorf("C_ID partial should not be mapping independent")
		}
	}
}

func TestJECBDeterminism(t *testing.T) {
	in, _ := custInfoInput(t, 200)
	s1, _, err := Partition(context.Background(), in, Options{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := Partition(context.Background(), in, Options{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Errorf("solutions differ:\n%s\n%s", s1, s2)
	}
}

var _ = partition.Replicated // keep import for doc reference
