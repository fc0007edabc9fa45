package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/joingraph"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/trace"
	"repro/internal/value"
)

// mtonWorld is the Example 6 shape as a full workload: HOLDING_SUMMARY
// references both CUSTOMER_ACCOUNT and LAST_TRADE, all three written, so
// the MarketWatch-like class has no root attribute and only partial
// solutions exist.
func mtonWorld(t *testing.T) (Input, *db.DB) {
	t.Helper()
	s := schema.New("mton")
	s.AddTable("CUSTOMER_ACCOUNT",
		schema.Cols("CA_ID", schema.Int, "CA_BAL", schema.Float), "CA_ID")
	s.AddTable("LAST_TRADE",
		schema.Cols("LT_SYMB", schema.String, "LT_PRICE", schema.Float), "LT_SYMB")
	s.AddTable("HOLDING_SUMMARY",
		schema.Cols("HS_CA_ID", schema.Int, "HS_SYMB", schema.String, "HS_QTY", schema.Int),
		"HS_CA_ID", "HS_SYMB")
	s.AddFK("HOLDING_SUMMARY", []string{"HS_CA_ID"}, "CUSTOMER_ACCOUNT", []string{"CA_ID"})
	s.AddFK("HOLDING_SUMMARY", []string{"HS_SYMB"}, "LAST_TRADE", []string{"LT_SYMB"})
	d := db.New(s.MustValidate())
	rng := rand.New(rand.NewSource(11))
	const accounts, symbols = 32, 8
	for a := int64(0); a < accounts; a++ {
		d.Table("CUSTOMER_ACCOUNT").MustInsert(value.NewInt(a), value.NewFloat(0))
	}
	for sy := 0; sy < symbols; sy++ {
		d.Table("LAST_TRADE").MustInsert(value.NewString(sym(sy)), value.NewFloat(25))
	}
	for a := int64(0); a < accounts; a++ {
		seen := map[string]bool{}
		for i := 0; i < 3; i++ {
			sy := sym(rng.Intn(symbols))
			if !seen[sy] {
				seen[sy] = true
				d.Table("HOLDING_SUMMARY").MustInsert(value.NewInt(a), value.NewString(sy), value.NewInt(1))
			}
		}
	}
	proc := sqlparse.MustProcedure("MarketWatch", []string{"ca", "symb"}, `
		UPDATE CUSTOMER_ACCOUNT SET CA_BAL = CA_BAL + 1 WHERE CA_ID = @ca;
		UPDATE HOLDING_SUMMARY SET HS_QTY = HS_QTY + 1 WHERE HS_CA_ID = @ca AND HS_SYMB = @symb;
		UPDATE LAST_TRADE SET LT_PRICE = LT_PRICE + 1 WHERE LT_SYMB = @symb;
	`)
	col := trace.NewCollector()
	for i := 0; i < 300; i++ {
		a := rng.Int63n(accounts)
		hs := d.Table("HOLDING_SUMMARY")
		rows := hs.LookupRows("HS_CA_ID", value.NewInt(a))
		if len(rows) == 0 {
			continue
		}
		row := rows[rng.Intn(len(rows))]
		hk := hs.PKOf(row)
		col.Begin("MarketWatch", map[string]value.Value{"ca": row[0], "symb": row[1]})
		col.Write("CUSTOMER_ACCOUNT", value.MakeKey(row[0]))
		col.Write("HOLDING_SUMMARY", hk)
		// The price update is rare (5%): LAST_TRADE stays above the
		// replication threshold but the account side dominates, so the
		// account-rooted partials win Phase 3.
		if rng.Float64() < 0.05 {
			col.Write("LAST_TRADE", value.MakeKey(row[1]))
		} else {
			col.Read("LAST_TRADE", value.MakeKey(row[1]))
		}
		col.Commit()
	}
	return Input{DB: d, Procedures: []*sqlparse.Procedure{proc}, Train: col.Trace()}, d
}

func sym(i int) string { return string(rune('A'+i)) + "SYM" }

// TestMToNClassYieldsPartials: §5.2 case 2 drives the split path —
// the class has no total solution but partial ones on both sides of the
// HOLDING_SUMMARY junction, and Phase 3 still assembles a working global
// solution.
func TestMToNClassYieldsPartials(t *testing.T) {
	in, d := mtonWorld(t)
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
	cr := classes["MarketWatch"]
	if len(cr.Total) != 0 {
		t.Errorf("m-to-n class must have no total solutions; got %v", cr.Total)
	}
	if len(cr.Partial) == 0 {
		t.Fatal("m-to-n class must yield partial solutions from the split")
	}
	roots := map[string]bool{}
	for _, ps := range cr.Partial {
		roots[ps.Root().Column] = true
	}
	if !roots["CA_ID"] && !roots["HS_CA_ID"] {
		t.Errorf("account-side partial missing; roots = %v", roots)
	}
	if !roots["LT_SYMB"] && !roots["HS_SYMB"] {
		t.Errorf("symbol-side partial missing; roots = %v", roots)
	}
	// End to end: the global solution covers all three tables and beats
	// full replication (which would distribute every writing txn).
	v.Close()
	sol, _, err := Partition(context.Background(), in, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	r, err := eval.Evaluate(d, sol, in.Train)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost() >= 1 {
		t.Errorf("cost = %v; partial solutions must help", r.Cost())
	}
}

// TestMToNKeepAllTrees drives the split path with Definition 9 merging
// disabled.
func TestMToNKeepAllTrees(t *testing.T) {
	in, _ := mtonWorld(t)
	p, err := New(in, Options{K: 4, KeepAllTrees: true})
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
	merged, err := New(in, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	mClasses, err := merged.phase2(context.Background(), pre)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes["MarketWatch"].Partial) < len(mClasses["MarketWatch"].Partial) {
		t.Errorf("keep-all (%d) must not have fewer partials than merged (%d)",
			len(classes["MarketWatch"].Partial), len(mClasses["MarketWatch"].Partial))
	}
}

// TestSplitFailsOnUncompilablePath checks that §5.2 case 2 reports a
// subgraph tree whose join path does not compile, as every other phase-2
// scan does, instead of silently dropping the tree's partial solutions.
// The split graph is built on mtonWorld's schema and scored against a
// database of the same tables whose LAST_TRADE names its key column
// differently, so every path through LT_SYMB fails to compile.
func TestSplitFailsOnUncompilablePath(t *testing.T) {
	in, d := mtonWorld(t)
	p, err := New(in, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	v := d.View()
	defer v.Close()
	pre, err := p.phase1(ctx, v)
	if err != nil {
		t.Fatal(err)
	}
	g := joingraph.Build(pre.Analyses["MarketWatch"], d.Schema(), pre.Replicated)
	if len(g.Trees(maxTreesPerRoot)) != 0 {
		t.Fatal("MarketWatch has a root attribute: the split path is not taken")
	}
	res := &ClassResult{}
	if err := p.addPartialsFromSplit(ctx, res, g, pre.Streams["MarketWatch"]); err != nil || len(res.Partial) == 0 {
		t.Fatalf("on its own database: %d partials, err %v; want partials and no error", len(res.Partial), err)
	}

	s := schema.New("mton-renamed")
	s.AddTable("CUSTOMER_ACCOUNT",
		schema.Cols("CA_ID", schema.Int, "CA_BAL", schema.Float), "CA_ID")
	s.AddTable("LAST_TRADE",
		schema.Cols("LT_SYMBOL", schema.String, "LT_PRICE", schema.Float), "LT_SYMBOL")
	s.AddTable("HOLDING_SUMMARY",
		schema.Cols("HS_CA_ID", schema.Int, "HS_SYMB", schema.String, "HS_QTY", schema.Int),
		"HS_CA_ID", "HS_SYMB")
	s.AddFK("HOLDING_SUMMARY", []string{"HS_CA_ID"}, "CUSTOMER_ACCOUNT", []string{"CA_ID"})
	s.AddFK("HOLDING_SUMMARY", []string{"HS_SYMB"}, "LAST_TRADE", []string{"LT_SYMBOL"})
	p.in.DB = db.New(s.MustValidate())
	res = &ClassResult{}
	err = p.addPartialsFromSplit(ctx, res, g, pre.Streams["MarketWatch"])
	if err == nil || !strings.Contains(err.Error(), "LT_SYMB") {
		t.Fatalf("uncompilable path: err %v; want the compile error naming LT_SYMB", err)
	}
}

// TestCompileTreeUnknownTable checks that compiling a join tree fails on
// a table the database lacks, whether the tree keys the path by it or
// only the path names it, rather than skipping the table.
func TestCompileTreeUnknownTable(t *testing.T) {
	in, _ := mtonWorld(t)
	p, err := New(in, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	ghost := schema.NewJoinPath(schema.ColumnSet{Table: "NO_SUCH_TABLE", Columns: []string{"X"}})
	for _, tbl := range []string{"NO_SUCH_TABLE", "CUSTOMER_ACCOUNT"} {
		tree := &joingraph.Tree{Paths: map[string]schema.JoinPath{tbl: ghost}}
		if _, err := p.compileTree(tree, nil); err == nil || !strings.Contains(err.Error(), "NO_SUCH_TABLE") {
			t.Errorf("tree keyed by %s: err %v; want an error naming NO_SUCH_TABLE", tbl, err)
		}
	}
}
