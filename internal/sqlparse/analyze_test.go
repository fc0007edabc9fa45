package sqlparse

import (
	"testing"

	"repro/internal/schema"
)

// custInfoSchema is the three-table fragment of Figure 1.
func custInfoSchema() *schema.Schema {
	s := schema.New("custinfo")
	s.AddTable("CUSTOMER_ACCOUNT",
		schema.Cols("CA_ID", schema.Int, "CA_C_ID", schema.Int),
		"CA_ID")
	s.AddTable("TRADE",
		schema.Cols("T_ID", schema.Int, "T_CA_ID", schema.Int, "T_QTY", schema.Int),
		"T_ID")
	s.AddTable("HOLDING_SUMMARY",
		schema.Cols("HS_S_SYMB", schema.String, "HS_CA_ID", schema.Int, "HS_QTY", schema.Int),
		"HS_S_SYMB", "HS_CA_ID")
	s.AddFK("TRADE", []string{"T_CA_ID"}, "CUSTOMER_ACCOUNT", []string{"CA_ID"})
	s.AddFK("HOLDING_SUMMARY", []string{"HS_CA_ID"}, "CUSTOMER_ACCOUNT", []string{"CA_ID"})
	return s.MustValidate()
}

const custInfoSQL = `
	SELECT SUM(HS_QTY)
	FROM HOLDING_SUMMARY join CUSTOMER_ACCOUNT on HS_CA_ID = CA_ID
	WHERE CA_C_ID = @cust_id;

	SELECT AVG(T_QTY)
	FROM TRADE join CUSTOMER_ACCOUNT on T_CA_ID = CA_ID
	WHERE CA_C_ID = @cust_id;
`

func TestAnalyzeCustInfo(t *testing.T) {
	sc := custInfoSchema()
	proc := MustProcedure("CustInfo", []string{"cust_id"}, custInfoSQL)
	a, err := Analyze(proc, sc)
	if err != nil {
		t.Fatal(err)
	}
	wantTables := []string{"CUSTOMER_ACCOUNT", "HOLDING_SUMMARY", "TRADE"}
	if len(a.Tables) != 3 {
		t.Fatalf("tables = %v", a.Tables)
	}
	for i, w := range wantTables {
		if a.Tables[i] != w {
			t.Errorf("tables[%d] = %s, want %s", i, a.Tables[i], w)
		}
	}
	if len(a.WriteTables) != 0 {
		t.Errorf("write tables = %v", a.WriteTables)
	}
	// Candidate attributes: WHERE/ON columns.
	wantCand := map[schema.ColumnRef]bool{
		{Table: "CUSTOMER_ACCOUNT", Column: "CA_ID"}:   true,
		{Table: "CUSTOMER_ACCOUNT", Column: "CA_C_ID"}: true,
		{Table: "HOLDING_SUMMARY", Column: "HS_CA_ID"}: true,
		{Table: "TRADE", Column: "T_CA_ID"}:            true,
	}
	if len(a.CandidateColumns) != len(wantCand) {
		t.Errorf("candidates = %v", a.CandidateColumns)
	}
	for _, c := range a.CandidateColumns {
		if !wantCand[c] {
			t.Errorf("unexpected candidate %v", c)
		}
	}
	// Explicit equi-joins from both ON clauses.
	joins := map[string]bool{}
	for _, j := range a.EquiJoins {
		joins[j.String()] = true
	}
	if !joins["CUSTOMER_ACCOUNT.CA_ID = HOLDING_SUMMARY.HS_CA_ID"] {
		t.Errorf("missing HS join; have %v", joins)
	}
	if !joins["CUSTOMER_ACCOUNT.CA_ID = TRADE.T_CA_ID"] {
		t.Errorf("missing TRADE join; have %v", joins)
	}
	// @cust_id filters CA_C_ID.
	if cols := a.InputFilters["cust_id"]; len(cols) != 1 ||
		cols[0] != (schema.ColumnRef{Table: "CUSTOMER_ACCOUNT", Column: "CA_C_ID"}) {
		t.Errorf("input filters = %v", a.InputFilters)
	}
}

// TestAnalyzeImplicitJoin reproduces Example 3: the join rewritten as two
// separate queries must still be discovered via @cust_acct data flow.
func TestAnalyzeImplicitJoin(t *testing.T) {
	sc := custInfoSchema()
	proc := MustProcedure("Lookup", []string{"t_id"}, `
		SELECT @cust_acct = T_CA_ID FROM TRADE WHERE T_ID = @t_id;
		SELECT CA_C_ID FROM CUSTOMER_ACCOUNT WHERE CA_ID = @cust_acct;
	`)
	a, err := Analyze(proc, sc)
	if err != nil {
		t.Fatal(err)
	}
	var found *EquiJoin
	for i, j := range a.EquiJoins {
		if j.String() == "CUSTOMER_ACCOUNT.CA_ID = TRADE.T_CA_ID" {
			found = &a.EquiJoins[i]
		}
	}
	if found == nil {
		t.Fatalf("implicit join not discovered; joins = %v", a.EquiJoins)
	}
	if !found.Implicit {
		t.Error("join should be marked implicit")
	}
}

func TestAnalyzeWriteTables(t *testing.T) {
	sc := custInfoSchema()
	proc := MustProcedure("Mixed", []string{"id", "qty"}, `
		SELECT T_QTY FROM TRADE WHERE T_ID = @id;
		UPDATE TRADE SET T_QTY = @qty WHERE T_ID = @id;
		INSERT INTO HOLDING_SUMMARY (HS_S_SYMB, HS_CA_ID, HS_QTY) VALUES (@sym, @ca, @qty);
		DELETE FROM TRADE WHERE T_ID = @id;
	`)
	a, err := Analyze(proc, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.WriteTables) != 2 || a.WriteTables[0] != "HOLDING_SUMMARY" || a.WriteTables[1] != "TRADE" {
		t.Errorf("write tables = %v", a.WriteTables)
	}
	if !(a.Statements[1].WriteTable != "") || (a.Statements[0].WriteTable != "") {
		t.Error("write flags wrong")
	}
}

func TestAnalyzeInsertBindingJoinsViaParam(t *testing.T) {
	sc := custInfoSchema()
	// @ca filters CUSTOMER_ACCOUNT.CA_ID and is inserted into TRADE.T_CA_ID:
	// data flow implies the key-FK join between them.
	proc := MustProcedure("Ins", []string{"ca"}, `
		SELECT CA_C_ID FROM CUSTOMER_ACCOUNT WHERE CA_ID = @ca;
		INSERT INTO TRADE (T_ID, T_CA_ID, T_QTY) VALUES (@tid, @ca, 1);
	`)
	a, err := Analyze(proc, sc)
	if err != nil {
		t.Fatal(err)
	}
	want := "CUSTOMER_ACCOUNT.CA_ID = TRADE.T_CA_ID"
	ok := false
	for _, j := range a.EquiJoins {
		if j.String() == want {
			ok = true
		}
	}
	if !ok {
		t.Errorf("missing join via insert binding; joins = %v", a.EquiJoins)
	}
}

func TestAnalyzeResolutionErrors(t *testing.T) {
	sc := custInfoSchema()
	cases := []string{
		`SELECT X FROM NOPE WHERE X = 1`,                         // unknown table
		`SELECT NOPE FROM TRADE WHERE NOPE = 1`,                  // unknown column
		`SELECT z.T_ID FROM TRADE WHERE T_ID = 1`,                // unknown alias
		`SELECT TRADE.NOPE FROM TRADE WHERE T_ID = 1`,            // unknown qualified column
		`INSERT INTO TRADE (T_ID, NOPE, T_QTY) VALUES (1, 2, 3)`, // bad insert column
		`UPDATE TRADE SET NOPE = 1 WHERE T_ID = 1`,               // bad update column
	}
	for _, src := range cases {
		proc, err := NewProcedure("p", nil, src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Analyze(proc, sc); err == nil {
			t.Errorf("Analyze(%q): expected error", src)
		}
	}
}

func TestAnalyzeAmbiguousColumn(t *testing.T) {
	s := schema.New("amb")
	s.AddTable("A", schema.Cols("ID", schema.Int, "X", schema.Int), "ID")
	s.AddTable("B", schema.Cols("ID2", schema.Int, "X", schema.Int), "ID2")
	s.AddFK("B", []string{"X"}, "A", []string{"ID"})
	proc := MustProcedure("p", nil, `SELECT X FROM A, B WHERE X = 1`)
	if _, err := Analyze(proc, s); err == nil {
		t.Error("ambiguous column must error")
	}
}

func TestAnalyzeSelectColumnsCaptured(t *testing.T) {
	sc := custInfoSchema()
	proc := MustProcedure("p", nil, `SELECT T_CA_ID, SUM(T_QTY) FROM TRADE WHERE T_ID = 1`)
	a, err := Analyze(proc, sc)
	if err != nil {
		t.Fatal(err)
	}
	got := a.Statements[0].SelectColumns
	if len(got) != 2 {
		t.Fatalf("select columns = %v", got)
	}
}

func TestMustProcedurePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad SQL")
		}
	}()
	MustProcedure("bad", nil, "NOT SQL AT ALL")
}

func TestNewProcedureEmpty(t *testing.T) {
	if _, err := NewProcedure("e", nil, "  "); err == nil {
		t.Error("empty body must error")
	}
}
