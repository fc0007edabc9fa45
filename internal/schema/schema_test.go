package schema

import (
	"strings"
	"testing"
)

// custInfoSchema builds the three-table TPC-E fragment from the paper's
// Figure 1 (CustInfo example).
func custInfoSchema() *Schema {
	s := New("custinfo")
	s.AddTable("CUSTOMER_ACCOUNT",
		Cols("CA_ID", Int, "CA_C_ID", Int),
		"CA_ID")
	s.AddTable("TRADE",
		Cols("T_ID", Int, "T_CA_ID", Int, "T_QTY", Int),
		"T_ID")
	s.AddTable("HOLDING_SUMMARY",
		Cols("HS_S_SYMB", String, "HS_CA_ID", Int, "HS_QTY", Int),
		"HS_S_SYMB", "HS_CA_ID")
	s.AddFK("TRADE", []string{"T_CA_ID"}, "CUSTOMER_ACCOUNT", []string{"CA_ID"})
	s.AddFK("HOLDING_SUMMARY", []string{"HS_CA_ID"}, "CUSTOMER_ACCOUNT", []string{"CA_ID"})
	return s
}

func TestBuildAndLookup(t *testing.T) {
	s := custInfoSchema()
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	tr := s.Table("TRADE")
	if tr == nil {
		t.Fatal("TRADE missing")
	}
	if got := tr.ColumnIndex("T_CA_ID"); got != 1 {
		t.Errorf("ColumnIndex(T_CA_ID) = %d, want 1", got)
	}
	if tr.ColumnIndex("NOPE") != -1 {
		t.Error("unknown column must return -1")
	}
	if c, ok := tr.Column("T_QTY"); !ok || c.Type != Int {
		t.Errorf("Column(T_QTY) = %v, %v", c, ok)
	}
	if s.Table("MISSING") != nil {
		t.Error("missing table must be nil")
	}
	if len(s.Tables()) != 3 {
		t.Errorf("Tables() len = %d", len(s.Tables()))
	}
}

func TestPrimaryKeyHelpers(t *testing.T) {
	s := custInfoSchema()
	hs := s.Table("HOLDING_SUMMARY")
	if got := hs.PKIndexes(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("PKIndexes = %v", got)
	}
	if !hs.IsPK([]string{"HS_CA_ID", "HS_S_SYMB"}) {
		t.Error("IsPK must be order-insensitive")
	}
	if hs.IsPK([]string{"HS_S_SYMB"}) {
		t.Error("partial key is not PK")
	}
	pk := hs.PKSet()
	if pk.Table != "HOLDING_SUMMARY" || len(pk.Columns) != 2 {
		t.Errorf("PKSet = %v", pk)
	}
}

func TestFKAdjacency(t *testing.T) {
	s := custInfoSchema()
	if got := s.fksFrom["TRADE"]; len(got) != 1 || got[0].RefTable != "CUSTOMER_ACCOUNT" {
		t.Errorf("foreign keys from TRADE = %v", got)
	}
	if fk, ok := s.FindFK("TRADE", []string{"T_CA_ID"}); !ok || fk.RefTable != "CUSTOMER_ACCOUNT" {
		t.Errorf("FindFK(TRADE.T_CA_ID) = %v, %v", fk, ok)
	}
	if _, ok := s.FindFK("TRADE", []string{"T_ID"}); ok {
		t.Error("FindFK on non-FK columns must fail")
	}
}

func TestValidateRejectsNonPKReference(t *testing.T) {
	s := New("bad")
	s.AddTable("A", Cols("A_ID", Int, "A_X", Int), "A_ID")
	s.AddTable("B", Cols("B_ID", Int, "B_A_X", Int), "B_ID")
	s.AddFK("B", []string{"B_A_X"}, "A", []string{"A_X"})
	if err := s.Validate(); err == nil {
		t.Error("FK to non-PK column must fail validation")
	}
}

func TestValidateRejectsTypeMismatch(t *testing.T) {
	s := New("bad")
	s.AddTable("A", Cols("A_ID", Int), "A_ID")
	s.AddTable("B", Cols("B_ID", Int, "B_A", String), "B_ID")
	s.AddFK("B", []string{"B_A"}, "A", []string{"A_ID"})
	if err := s.Validate(); err == nil {
		t.Error("FK type mismatch must fail validation")
	}
}

func TestValidateRejectsMissingPK(t *testing.T) {
	s := New("bad")
	s.AddTable("A", Cols("A_ID", Int))
	if err := s.Validate(); err == nil {
		t.Error("table without PK must fail validation")
	}
}

func TestConstructionPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("dup table", func() {
		s := New("x")
		s.AddTable("A", Cols("A_ID", Int), "A_ID")
		s.AddTable("A", Cols("A_ID", Int), "A_ID")
	})
	mustPanic("dup column", func() {
		New("x").AddTable("A", Cols("C", Int, "C", Int), "C")
	})
	mustPanic("bad pk", func() {
		New("x").AddTable("A", Cols("C", Int), "Z")
	})
	mustPanic("fk unknown table", func() {
		s := New("x")
		s.AddTable("A", Cols("C", Int), "C")
		s.AddFK("A", []string{"C"}, "B", []string{"Z"})
	})
	mustPanic("fk arity", func() {
		s := New("x")
		s.AddTable("A", Cols("C", Int), "C")
		s.AddTable("B", Cols("Z", Int), "Z")
		s.AddFK("A", []string{"C"}, "B", []string{})
	})
	mustPanic("cols odd args", func() { Cols("A") })
	mustPanic("cols bad type", func() { Cols("A", "B") })
}

func TestStringRendering(t *testing.T) {
	fk := ForeignKey{"TRADE", []string{"T_CA_ID"}, "CUSTOMER_ACCOUNT", []string{"CA_ID"}}
	if got := fk.String(); !strings.Contains(got, "TRADE(T_CA_ID)") {
		t.Errorf("FK string = %q", got)
	}
	cs := ColumnSet{"HS", []string{"A", "B"}}
	if got := cs.String(); got != "HS(A,B)" {
		t.Errorf("ColumnSet string = %q", got)
	}
	single := ColumnSet{"T", []string{"C"}}
	if got := single.String(); got != "T.C" {
		t.Errorf("singleton string = %q", got)
	}
	ref := ColumnRef{"T", "C"}
	if ref.String() != "T.C" {
		t.Errorf("ColumnRef string = %q", ref.String())
	}
}

func TestColumnSetEqual(t *testing.T) {
	a := ColumnSet{"T", []string{"X", "Y"}}
	b := ColumnSet{"T", []string{"X", "Y"}}
	c := ColumnSet{"T", []string{"Y", "X"}}
	d := ColumnSet{"U", []string{"X", "Y"}}
	if !a.Equal(b) {
		t.Error("identical sets must be equal")
	}
	if a.Equal(c) {
		t.Error("order matters for Equal")
	}
	if a.Equal(d) {
		t.Error("table matters for Equal")
	}
}

func TestTypeStrings(t *testing.T) {
	if Int.String() != "bigint" || Float.String() != "double" || String.String() != "varchar" {
		t.Error("type names changed")
	}
}
