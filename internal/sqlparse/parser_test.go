package sqlparse

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/value"
)

func TestParseSelectJoin(t *testing.T) {
	// The first query of the paper's CustInfo procedure (§3 Example 1).
	stmt, err := parseOne(`
		SELECT SUM(HS_QTY)
		FROM HOLDING_SUMMARY join CUSTOMER_ACCOUNT on HS_CA_ID = CA_ID
		WHERE CA_C_ID = @cust_id`)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if len(s.Items) != 1 {
		t.Fatalf("items = %d", len(s.Items))
	}
	fn, ok := s.Items[0].Expr.(FuncExpr)
	if !ok || fn.Name != "SUM" || len(fn.Args) != 1 {
		t.Errorf("item = %v", s.Items[0].Expr)
	}
	if len(s.From) != 1 || s.From[0].Table != "HOLDING_SUMMARY" {
		t.Errorf("from = %v", s.From)
	}
	if len(s.Joins) != 1 || s.Joins[0].Table.Table != "CUSTOMER_ACCOUNT" {
		t.Errorf("joins = %v", s.Joins)
	}
	on, ok := s.Joins[0].On.(BinaryExpr)
	if !ok || on.Op != "=" {
		t.Errorf("on = %v", s.Joins[0].On)
	}
	w, ok := s.Where.(BinaryExpr)
	if !ok || w.Op != "=" {
		t.Fatalf("where = %v", s.Where)
	}
	if p, ok := w.R.(ParamExpr); !ok || p.Name != "cust_id" {
		t.Errorf("where rhs = %v", w.R)
	}
}

func TestParseAssignmentSelect(t *testing.T) {
	stmt, err := parseOne(`SELECT @cust_acct = T_CA_ID FROM TRADE WHERE T_ID = @t_id`)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.(*SelectStmt)
	if s.Items[0].AssignTo != "cust_acct" {
		t.Errorf("assign = %q", s.Items[0].AssignTo)
	}
	if ce, ok := s.Items[0].Expr.(ColumnExpr); !ok || ce.Name != "T_CA_ID" {
		t.Errorf("expr = %v", s.Items[0].Expr)
	}
}

func TestParseInsert(t *testing.T) {
	stmt, err := parseOne(`INSERT INTO TRADE (T_ID, T_CA_ID, T_QTY) VALUES (@id, @ca, 5)`)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.(*InsertStmt)
	if s.Table != "TRADE" || len(s.Columns) != 3 || len(s.Values) != 3 {
		t.Errorf("insert = %+v", s)
	}
	if lit, ok := s.Values[2].(LiteralExpr); !ok || lit.Val != value.NewInt(5) {
		t.Errorf("values[2] = %v", s.Values[2])
	}
}

func TestParseInsertArityMismatch(t *testing.T) {
	if _, err := parseOne(`INSERT INTO T (A, B) VALUES (1)`); err == nil {
		t.Error("expected arity error")
	}
}

func TestParseUpdateDelete(t *testing.T) {
	stmt, err := parseOne(`UPDATE CUSTOMER_ACCOUNT SET CA_BAL = CA_BAL + @amt WHERE CA_ID = @id`)
	if err != nil {
		t.Fatal(err)
	}
	u := stmt.(*UpdateStmt)
	if u.Table.Table != "CUSTOMER_ACCOUNT" || len(u.Set) != 1 || u.Where == nil {
		t.Errorf("update = %+v", u)
	}
	stmt, err = parseOne(`DELETE FROM TRADE_REQUEST WHERE TR_T_ID = @tid`)
	if err != nil {
		t.Fatal(err)
	}
	d := stmt.(*DeleteStmt)
	if d.Table.Table != "TRADE_REQUEST" || d.Where == nil {
		t.Errorf("delete = %+v", d)
	}
}

func TestParseMultiStatement(t *testing.T) {
	stmts, err := Parse(`
		SELECT A FROM T WHERE A = @x;
		UPDATE T SET B = 1 WHERE A = @x;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParsePredicates(t *testing.T) {
	stmt, err := parseOne(`
		SELECT A FROM T
		WHERE A = @x AND (B BETWEEN @lo AND @hi OR C IN (@a, @b, 3))
		  AND D IS NOT NULL AND NOT E = 1 AND F LIKE 'x%'
		ORDER BY A DESC, B LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.(*SelectStmt)
	if !strings.Contains(s.String(), "BETWEEN") {
		t.Errorf("string = %q", s.String())
	}
}

func TestParseAliasesAndQualified(t *testing.T) {
	stmt, err := parseOne(`SELECT t.A, u.B FROM T t JOIN U u ON t.A = u.A WHERE t.C = @x`)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.(*SelectStmt)
	if s.From[0].Alias != "t" || s.Joins[0].Table.Alias != "u" {
		t.Errorf("aliases = %v / %v", s.From, s.Joins)
	}
	if ce := s.Items[0].Expr.(ColumnExpr); ce.Qualifier != "t" || ce.Name != "A" {
		t.Errorf("item = %v", ce)
	}
}

func TestParseTopGroupByCountStar(t *testing.T) {
	stmt, err := parseOne(`SELECT TOP 5 A, COUNT(*), MAX(B) FROM T GROUP BY A`)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.(*SelectStmt)
	if len(s.GroupBy) != 1 {
		t.Errorf("groupby = %v", s.GroupBy)
	}
	if fn := s.Items[1].Expr.(FuncExpr); !fn.Star || fn.Name != "COUNT" {
		t.Errorf("count(*) = %+v", fn)
	}
}

func TestParseComments(t *testing.T) {
	stmt, err := parseOne("SELECT A -- trailing comment\nFROM T -- another\nWHERE A = 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stmt.(*SelectStmt); !ok {
		t.Fatalf("got %T", stmt)
	}
}

func TestParseStringLiteralEscapes(t *testing.T) {
	stmt, err := parseOne(`SELECT A FROM T WHERE B = 'it''s'`)
	if err != nil {
		t.Fatal(err)
	}
	w := stmt.(*SelectStmt).Where.(BinaryExpr)
	if lit := w.R.(LiteralExpr); lit.Val != value.NewString("it's") {
		t.Errorf("lit = %v", lit.Val)
	}
}

func TestParseNegativeAndFloatLiterals(t *testing.T) {
	stmt, err := parseOne(`SELECT A FROM T WHERE B = -5 AND C = 2.5`)
	if err != nil {
		t.Fatal(err)
	}
	var found []value.Value
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case BinaryExpr:
			walk(x.L)
			walk(x.R)
		case LiteralExpr:
			found = append(found, x.Val)
		}
	}
	walk(stmt.(*SelectStmt).Where)
	if len(found) != 2 || found[0] != value.NewInt(-5) || found[1] != value.NewFloat(2.5) {
		t.Errorf("literals = %v", found)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FROB X",
		"SELECT",
		"SELECT A FROM",
		"SELECT A FROM T WHERE",
		"INSERT INTO T VALUES (1)",
		"UPDATE T SET",
		"SELECT A FROM T WHERE B = 'unterminated",
		"SELECT A FROM T WHERE @ = 1",
		"SELECT A FROM T WHERE B ~ 1",
	}
	for _, src := range bad {
		if _, err := parseOne(src); err == nil {
			t.Errorf("parseOne(%q): expected error", src)
		}
	}
}

func TestStringRoundTripReparses(t *testing.T) {
	srcs := []string{
		`SELECT SUM(HS_QTY) FROM HOLDING_SUMMARY JOIN CUSTOMER_ACCOUNT ON HS_CA_ID = CA_ID WHERE CA_C_ID = @cust_id`,
		`INSERT INTO T (A, B) VALUES (@a, 7)`,
		`UPDATE T SET A = @a WHERE B = @b`,
		`DELETE FROM T WHERE A = @a`,
		`SELECT @v = A FROM T WHERE B IN (@x, 2) AND C BETWEEN 1 AND 9`,
	}
	for _, src := range srcs {
		s1, err := parseOne(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		s2, err := parseOne(s1.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", s1.String(), err)
		}
		if s1.String() != s2.String() {
			t.Errorf("not canonical: %q vs %q", s1.String(), s2.String())
		}
	}
}

// parseOne parses exactly one statement and errors on trailing input.
func parseOne(src string) (Statement, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sqlparse: expected 1 statement, got %d", len(stmts))
	}
	return stmts[0], nil
}
