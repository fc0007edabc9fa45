package sqlparse

import (
	"strings"
	"testing"

	"repro/internal/schema"
)

// These tests exercise the predicate-walking and rendering corners the
// benchmark SQL does not reach: nested NOT/IN/IS NULL/BETWEEN predicates
// inside analysis, operator variants, and canonical String output of
// every node type.

func widecol() *schema.Schema {
	s := schema.New("wide")
	s.AddTable("W", schema.Cols(
		"ID", schema.Int, "A", schema.Int, "B", schema.Int,
		"C", schema.String, "D", schema.Float), "ID")
	return s.MustValidate()
}

func TestCollectPredicatesVariants(t *testing.T) {
	sc := widecol()
	proc := MustProcedure("p", []string{"x", "lo", "hi"}, `
		SELECT A FROM W
		WHERE NOT (A = @x OR B IN (@x, 2, 3))
		  AND C IS NULL AND D IS NOT NULL
		  AND B BETWEEN @lo AND @hi
		  AND @x = A
		  AND C LIKE 'f%';
	`)
	a, err := Analyze(proc, sc)
	if err != nil {
		t.Fatal(err)
	}
	// Every predicated column is a candidate.
	want := map[string]bool{"A": true, "B": true, "C": true, "D": true}
	for _, c := range a.CandidateColumns {
		delete(want, c.Column)
	}
	if len(want) != 0 {
		t.Errorf("missing candidates: %v (got %v)", want, a.CandidateColumns)
	}
	// @x binds A twice (both orientations) — one filter entry.
	if cols := a.InputFilters["x"]; len(cols) != 1 || cols[0].Column != "A" {
		t.Errorf("x filters = %v", cols)
	}
}

func TestCollectPredicatesSingleParamIn(t *testing.T) {
	sc := widecol()
	proc := MustProcedure("p", []string{"x"}, `
		SELECT A FROM W WHERE B IN (@x);
	`)
	a, err := Analyze(proc, sc)
	if err != nil {
		t.Fatal(err)
	}
	// Single-parameter IN behaves as equality for routing.
	if cols := a.InputFilters["x"]; len(cols) != 1 || cols[0].Column != "B" {
		t.Errorf("x filters = %v", cols)
	}
}

func TestColumnsInComplexSelectList(t *testing.T) {
	sc := widecol()
	proc := MustProcedure("p", nil, `
		SELECT A + B, SUM(D), NOT A = 1, B IN (1, A), C IS NULL, A BETWEEN 1 AND B
		FROM W WHERE ID = 1;
	`)
	a, err := Analyze(proc, sc)
	if err != nil {
		t.Fatal(err)
	}
	// Every column mentioned anywhere in the select list is captured.
	got := map[string]int{}
	for _, c := range a.Statements[0].SelectColumns {
		got[c.Column]++
	}
	for _, want := range []string{"A", "B", "C", "D"} {
		if got[want] == 0 {
			t.Errorf("select column %s not captured (got %v)", want, got)
		}
	}
}

func TestColumnsInResolutionError(t *testing.T) {
	sc := widecol()
	for _, src := range []string{
		`SELECT NOPE + 1 FROM W WHERE ID = 1`,
		`SELECT SUM(NOPE) FROM W WHERE ID = 1`,
		`SELECT NOT NOPE = 1 FROM W WHERE ID = 1`,
		`SELECT A IN (1, NOPE) FROM W WHERE ID = 1`,
		`SELECT NOPE IS NULL FROM W WHERE ID = 1`,
		`SELECT NOPE BETWEEN 1 AND 2 FROM W WHERE ID = 1`,
	} {
		proc, err := NewProcedure("p", nil, src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Analyze(proc, sc); err == nil {
			t.Errorf("Analyze(%q): expected error", src)
		}
	}
}

func TestExprStringRendering(t *testing.T) {
	stmt, err := parseOne(`
		SELECT A FROM W
		WHERE NOT A = 1 AND B IN (1, 2) AND C IS NULL AND D IS NOT NULL
		  AND A BETWEEN 1 AND 2 AND C LIKE 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.String()
	for _, want := range []string{"NOT", "IN (1, 2)", "IS NULL", "IS NOT NULL", "BETWEEN 1 AND 2", "LIKE"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
	// Statement String for every statement kind.
	for _, src := range []string{
		`INSERT INTO W (ID, A) VALUES (1, NULL)`,
		`UPDATE W SET A = 1`,
		`DELETE FROM W`,
		`SELECT DISTINCT A FROM W x`,
		`SELECT COUNT(*) FROM W`,
	} {
		st, err := parseOne(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if st.String() == "" {
			t.Errorf("empty String for %q", src)
		}
	}
}

func TestOperatorVariants(t *testing.T) {
	// != normalizes to <>; all comparison operators parse.
	for _, op := range []string{"=", "<>", "!=", "<", ">", "<=", ">="} {
		src := "SELECT A FROM W WHERE A " + op + " 1"
		stmt, err := parseOne(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		b := stmt.(*SelectStmt).Where.(BinaryExpr)
		wantOp := op
		if op == "!=" {
			wantOp = "<>"
		}
		if b.Op != wantOp {
			t.Errorf("%q parsed as %q", op, b.Op)
		}
	}
	// Arithmetic with precedence: a + b * c.
	stmt, err := parseOne(`SELECT A + B * D FROM W`)
	if err != nil {
		t.Fatal(err)
	}
	top := stmt.(*SelectStmt).Items[0].Expr.(BinaryExpr)
	if top.Op != "+" {
		t.Errorf("precedence wrong: top op %q", top.Op)
	}
	if inner := top.R.(BinaryExpr); inner.Op != "*" {
		t.Errorf("precedence wrong: inner op %q", inner.Op)
	}
}

func TestTokenKindStrings(t *testing.T) {
	kinds := []tokenKind{tokEOF, tokIdent, tokKeyword, tokParam, tokNumber,
		tokString, tokOp, tokComma, tokLParen, tokRParen, tokSemi, tokDot}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d: bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if tokenKind(200).String() == "" {
		t.Error("unknown kind must still render")
	}
}

func TestStatementInfoAccessors(t *testing.T) {
	sc := widecol()
	proc := MustProcedure("p", nil, `
		SELECT A FROM W WHERE ID = 1;
		UPDATE W SET A = 2 WHERE ID = 1;
	`)
	a, err := Analyze(proc, sc)
	if err != nil {
		t.Fatal(err)
	}
	if (a.Statements[0].WriteTable != "") || !(a.Statements[1].WriteTable != "") {
		t.Error("write flags wrong")
	}
	// EquiJoin canonicalization + String.
	j := EquiJoin{
		Left:  schema.ColumnRef{Table: "Z", Column: "B"},
		Right: schema.ColumnRef{Table: "A", Column: "C"},
	}
	c := j.canonical()
	if c.Left.Table != "A" {
		t.Errorf("canonical = %v", c)
	}
	if j.String() != "Z.B = A.C" {
		t.Errorf("String = %q", j.String())
	}
}
