package joingraph

import (
	"strings"
	"testing"

	"repro/internal/fixture"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

func analyze(t *testing.T, sc *schema.Schema, proc *sqlparse.Procedure) *sqlparse.Analysis {
	t.Helper()
	a, err := sqlparse.Analyze(proc, sc)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestCustInfoRoots(t *testing.T) {
	sc := fixture.CustInfoSchema()
	g := Build(analyze(t, sc, fixture.CustInfoProcedure()), sc, nil)
	if len(g.Tables) != 3 {
		t.Fatalf("tables = %v", g.Tables)
	}
	roots := g.RootAttributes()
	want := []schema.ColumnRef{
		{Table: "CUSTOMER_ACCOUNT", Column: "CA_C_ID"},
		{Table: "CUSTOMER_ACCOUNT", Column: "CA_ID"},
	}
	if len(roots) != 2 || roots[0] != want[0] || roots[1] != want[1] {
		t.Errorf("roots = %v, want %v", roots, want)
	}
}

// TestCustInfoTree reproduces the join tree of Figure 2: every table
// reaches CA_C_ID by a unique path.
func TestCustInfoTree(t *testing.T) {
	sc := fixture.CustInfoSchema()
	g := Build(analyze(t, sc, fixture.CustInfoProcedure()), sc, nil)
	root := schema.ColumnRef{Table: "CUSTOMER_ACCOUNT", Column: "CA_C_ID"}
	trees := g.treesForRoot(root, 0)
	if len(trees) != 1 {
		t.Fatalf("trees = %d, want 1", len(trees))
	}
	tree := trees[0]
	if !tree.Paths["TRADE"].Equal(fixture.TradePath()) {
		t.Errorf("TRADE path = %v", tree.Paths["TRADE"])
	}
	if !tree.Paths["HOLDING_SUMMARY"].Equal(fixture.HSPath()) {
		t.Errorf("HS path = %v", tree.Paths["HOLDING_SUMMARY"])
	}
	if !tree.Paths["CUSTOMER_ACCOUNT"].Equal(fixture.CAPath()) {
		t.Errorf("CA path = %v", tree.Paths["CUSTOMER_ACCOUNT"])
	}
	// Every path must satisfy Definition 2.
	for tbl, p := range tree.Paths {
		if err := p.Validate(sc); err != nil {
			t.Errorf("%s path invalid: %v", tbl, err)
		}
	}
	if got := tree.Tables(); len(got) != 3 {
		t.Errorf("tree tables = %v", got)
	}
	if !strings.Contains(tree.String(), "CA_C_ID") {
		t.Errorf("tree string = %q", tree.String())
	}
}

func TestImplicitJoinConnects(t *testing.T) {
	sc := fixture.CustInfoSchema()
	proc := sqlparse.MustProcedure("Lookup", []string{"t_id"}, `
		SELECT @ca = T_CA_ID FROM TRADE WHERE T_ID = @t_id;
		SELECT CA_C_ID FROM CUSTOMER_ACCOUNT WHERE CA_ID = @ca;
	`)
	g := Build(analyze(t, sc, proc), sc, nil)
	// The implicit join (via @ca data flow) must connect both tables to
	// the common root CA_ID. CA_C_ID appears only in the SELECT list of
	// the rewritten procedure, so it serves as a hop but not as a root
	// (roots come from WHERE/key/FK attributes, §5.1).
	roots := g.RootAttributes()
	if len(roots) != 1 || roots[0] != (schema.ColumnRef{Table: "CUSTOMER_ACCOUNT", Column: "CA_ID"}) {
		t.Errorf("roots = %v, want [CUSTOMER_ACCOUNT.CA_ID]", roots)
	}
	// And the graph must expose a path from TRADE through the implicit
	// join up to CA_C_ID (usable for extension in Phase 3).
	if paths := g.PathsTo("TRADE", schema.ColumnRef{Table: "CUSTOMER_ACCOUNT", Column: "CA_C_ID"}, 0); len(paths) == 0 {
		t.Error("no path from TRADE to CA_C_ID via the implicit join")
	}
}

func TestUnjoinedTablesHaveNoRoots(t *testing.T) {
	sc := fixture.CustInfoSchema()
	// Two tables accessed with no join between them.
	proc := sqlparse.MustProcedure("NoJoin", []string{"a", "b"}, `
		SELECT T_QTY FROM TRADE WHERE T_ID = @a;
		SELECT HS_QTY FROM HOLDING_SUMMARY WHERE HS_S_SYMB = @b;
	`)
	g := Build(analyze(t, sc, proc), sc, nil)
	if roots := g.RootAttributes(); len(roots) != 0 {
		t.Errorf("roots = %v, want none", roots)
	}
	// Split must yield one subgraph per connected component.
	subs := g.Split()
	if len(subs) != 2 {
		t.Fatalf("split into %d subgraphs, want 2", len(subs))
	}
	for _, sub := range subs {
		if len(sub.Tables) != 1 {
			t.Errorf("subgraph tables = %v", sub.Tables)
		}
	}
}

func TestReplicatedTableNotRequired(t *testing.T) {
	sc := fixture.CustInfoSchema()
	// CUSTOMER_ACCOUNT replicated: only TRADE and HOLDING_SUMMARY need
	// covering, but roots can still live in CUSTOMER_ACCOUNT.
	g := Build(analyze(t, sc, fixture.CustInfoProcedure()), sc,
		map[string]bool{"CUSTOMER_ACCOUNT": true})
	if len(g.Tables) != 2 {
		t.Fatalf("tables = %v", g.Tables)
	}
	roots := g.RootAttributes()
	hasCACID := false
	for _, r := range roots {
		if r.Column == "CA_C_ID" {
			hasCACID = true
		}
	}
	if !hasCACID {
		t.Errorf("roots = %v, want CA_C_ID present", roots)
	}
}

// mToNSchema models Example 6: HOLDING_SUMMARY references both
// CUSTOMER_ACCOUNT and LAST_TRADE; with all three partitioned there is no
// root attribute.
func mToNSchema() *schema.Schema {
	s := schema.New("mton")
	s.AddTable("CUSTOMER_ACCOUNT",
		schema.Cols("CA_ID", schema.Int, "CA_C_ID", schema.Int), "CA_ID")
	s.AddTable("LAST_TRADE",
		schema.Cols("LT_S_SYMB", schema.String, "LT_PRICE", schema.Float), "LT_S_SYMB")
	s.AddTable("HOLDING_SUMMARY",
		schema.Cols("HS_S_SYMB", schema.String, "HS_CA_ID", schema.Int, "HS_QTY", schema.Int),
		"HS_S_SYMB", "HS_CA_ID")
	s.AddFK("HOLDING_SUMMARY", []string{"HS_CA_ID"}, "CUSTOMER_ACCOUNT", []string{"CA_ID"})
	s.AddFK("HOLDING_SUMMARY", []string{"HS_S_SYMB"}, "LAST_TRADE", []string{"LT_S_SYMB"})
	return s.MustValidate()
}

func TestMToNSplit(t *testing.T) {
	sc := mToNSchema()
	proc := sqlparse.MustProcedure("MarketWatch", []string{"ca"}, `
		SELECT HS_QTY, LT_PRICE
		FROM HOLDING_SUMMARY
		JOIN CUSTOMER_ACCOUNT ON HS_CA_ID = CA_ID
		JOIN LAST_TRADE ON HS_S_SYMB = LT_S_SYMB
		WHERE CA_ID = @ca;
	`)
	g := Build(analyze(t, sc, proc), sc, nil)
	if len(g.RootAttributes()) != 0 {
		t.Fatalf("m-to-n graph must have no roots; got %v", g.RootAttributes())
	}
	subs := g.Split()
	if len(subs) != 2 {
		t.Fatalf("split into %d subgraphs, want 2 (Example 6)", len(subs))
	}
	var tablesets []string
	for _, sub := range subs {
		tablesets = append(tablesets, strings.Join(sub.Tables, "+"))
		if len(sub.RootAttributes()) == 0 {
			t.Errorf("subgraph %v still has no roots", sub.Tables)
		}
	}
	joined := strings.Join(tablesets, " / ")
	if !strings.Contains(joined, "CUSTOMER_ACCOUNT+HOLDING_SUMMARY") ||
		!strings.Contains(joined, "HOLDING_SUMMARY+LAST_TRADE") {
		t.Errorf("subgraphs = %v", joined)
	}
}

// multiPathSchema has two foreign keys from the child to the same parent
// (Example 9's R2.X1/R2.X2 shape), so two join paths exist.
func multiPathSchema() *schema.Schema {
	s := schema.New("multipath")
	s.AddTable("R1", schema.Cols("X", schema.Int, "A", schema.Int), "X")
	s.AddTable("R2", schema.Cols("Y", schema.Int, "X1", schema.Int, "X2", schema.Int), "Y")
	s.AddFK("R2", []string{"X1"}, "R1", []string{"X"})
	s.AddFK("R2", []string{"X2"}, "R1", []string{"X"})
	return s.MustValidate()
}

func TestMultiplePathsEnumerated(t *testing.T) {
	sc := multiPathSchema()
	proc := sqlparse.MustProcedure("TwoWays", []string{"y"}, `
		SELECT A FROM R2 JOIN R1 ON X1 = X WHERE Y = @y;
		SELECT A FROM R2 JOIN R1 ON X2 = X WHERE Y = @y;
	`)
	g := Build(analyze(t, sc, proc), sc, nil)
	paths := g.PathsTo("R2", schema.ColumnRef{Table: "R1", Column: "A"}, 0)
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2:\n%v", len(paths), paths)
	}
	for _, p := range paths {
		if err := p.Validate(sc); err != nil {
			t.Errorf("path %v invalid: %v", p, err)
		}
	}
	// Trees: R1 has 1 path to A, R2 has 2 -> 2 trees; capped at 1 -> 1.
	trees := g.treesForRoot(schema.ColumnRef{Table: "R1", Column: "A"}, 0)
	if len(trees) != 2 {
		t.Errorf("trees = %d, want 2", len(trees))
	}
	if got := g.treesForRoot(schema.ColumnRef{Table: "R1", Column: "A"}, 1); len(got) != 1 {
		t.Errorf("capped trees = %d, want 1", len(got))
	}
	if g.SolutionCount() < 2 {
		t.Errorf("solution count = %d", g.SolutionCount())
	}
}

func TestPathsToUnknownRoot(t *testing.T) {
	sc := fixture.CustInfoSchema()
	g := Build(analyze(t, sc, fixture.CustInfoProcedure()), sc, nil)
	// HS_S_SYMB never appears in the CustInfo SQL (outside the composite
	// PK set), so it is not a node of the join graph.
	if got := g.PathsTo("TRADE", schema.ColumnRef{Table: "HOLDING_SUMMARY", Column: "HS_S_SYMB"}, 0); len(got) != 0 {
		t.Errorf("paths to absent node = %v", got)
	}
}

func TestTreesAcrossAllRoots(t *testing.T) {
	sc := fixture.CustInfoSchema()
	g := Build(analyze(t, sc, fixture.CustInfoProcedure()), sc, nil)
	trees := g.Trees(0)
	// Two roots (CA_ID, CA_C_ID), one tree each.
	if len(trees) != 2 {
		t.Errorf("trees = %d, want 2", len(trees))
	}
}
