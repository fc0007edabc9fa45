package core

import (
	"testing"

	"repro/internal/fixture"
	"repro/internal/schema"
)

func ref(t, c string) schema.ColumnRef { return schema.ColumnRef{Table: t, Column: c} }

// TestExample8 reproduces the paper's Example 8 over the Figure 2 schema:
// CA_ID ≡ T_CA_ID ≡ HS_CA_ID; CA_C_ID coarser than T_ID; T_QTY not
// compatible with CA_C_ID.
func TestExample8(t *testing.T) {
	c := newAttrCompat(fixture.CustInfoSchema())
	if !c.Equivalent(ref("CUSTOMER_ACCOUNT", "CA_ID"), ref("TRADE", "T_CA_ID")) {
		t.Error("CA_ID must be equivalent to T_CA_ID")
	}
	if !c.Equivalent(ref("CUSTOMER_ACCOUNT", "CA_ID"), ref("HOLDING_SUMMARY", "HS_CA_ID")) {
		t.Error("CA_ID must be equivalent to HS_CA_ID")
	}
	if !c.Equivalent(ref("TRADE", "T_CA_ID"), ref("HOLDING_SUMMARY", "HS_CA_ID")) {
		t.Error("equivalence must be transitive (Property 2)")
	}
	if !c.Coarser(ref("CUSTOMER_ACCOUNT", "CA_C_ID"), ref("TRADE", "T_ID")) {
		t.Error("CA_C_ID must be coarser than T_ID")
	}
	if _, ok := c.CoarserOf(ref("TRADE", "T_QTY"), ref("CUSTOMER_ACCOUNT", "CA_C_ID")); ok {
		t.Error("T_QTY must not be compatible with CA_C_ID")
	}
	if c.Coarser(ref("CUSTOMER_ACCOUNT", "CA_ID"), ref("TRADE", "T_CA_ID")) {
		t.Error("equivalent attributes are not strictly coarser")
	}
}

func TestCoarserOf(t *testing.T) {
	c := newAttrCompat(fixture.CustInfoSchema())
	w, ok := c.CoarserOf(ref("TRADE", "T_ID"), ref("CUSTOMER_ACCOUNT", "CA_C_ID"))
	if !ok || w != ref("CUSTOMER_ACCOUNT", "CA_C_ID") {
		t.Errorf("CoarserOf = %v, %v", w, ok)
	}
	w, ok = c.CoarserOf(ref("CUSTOMER_ACCOUNT", "CA_C_ID"), ref("TRADE", "T_ID"))
	if !ok || w != ref("CUSTOMER_ACCOUNT", "CA_C_ID") {
		t.Errorf("CoarserOf reversed = %v, %v", w, ok)
	}
	if _, ok := c.CoarserOf(ref("TRADE", "T_QTY"), ref("CUSTOMER_ACCOUNT", "CA_C_ID")); ok {
		t.Error("incompatible attributes have no coarser")
	}
}

func TestExtensionPath(t *testing.T) {
	sc := fixture.CustInfoSchema()
	c := newAttrCompat(sc)
	p, ok := c.ExtensionPath(ref("CUSTOMER_ACCOUNT", "CA_ID"), ref("CUSTOMER_ACCOUNT", "CA_C_ID"))
	if !ok {
		t.Fatal("extension CA_ID -> CA_C_ID must exist")
	}
	if err := p.Validate(sc); err != nil {
		t.Errorf("extension path invalid: %v", err)
	}
	if p.Dest() != ref("CUSTOMER_ACCOUNT", "CA_C_ID") {
		t.Errorf("dest = %v", p.Dest())
	}
	// Multi-hop: T_CA_ID -> CA_ID -> CA_C_ID.
	p, ok = c.ExtensionPath(ref("TRADE", "T_CA_ID"), ref("CUSTOMER_ACCOUNT", "CA_C_ID"))
	if !ok || p.Len() != 3 {
		t.Errorf("extension T_CA_ID -> CA_C_ID = %v, %v", p, ok)
	}
	// Identity.
	p, ok = c.ExtensionPath(ref("CUSTOMER_ACCOUNT", "CA_ID"), ref("CUSTOMER_ACCOUNT", "CA_ID"))
	if !ok || p.Len() != 1 {
		t.Errorf("identity extension = %v, %v", p, ok)
	}
	// Nonexistent.
	if _, ok := c.ExtensionPath(ref("TRADE", "T_QTY"), ref("CUSTOMER_ACCOUNT", "CA_ID")); ok {
		t.Error("no extension should exist from T_QTY")
	}
}

// example9Schema is the paper's Example 9 (R1, R2 with two FKs to R1, R3
// with a composite FK to R2).
func example9Schema() *schema.Schema {
	s := schema.New("example9")
	s.AddTable("R1", schema.Cols("X", schema.Int, "A", schema.Int), "X")
	s.AddTable("R2", schema.Cols("X1", schema.Int, "X2", schema.Int, "B", schema.Int), "X1", "X2")
	s.AddTable("R3", schema.Cols("X1", schema.Int, "X2", schema.Int, "Y", schema.Int, "C", schema.Int), "X1", "X2", "Y")
	s.AddFK("R2", []string{"X1"}, "R1", []string{"X"})
	s.AddFK("R2", []string{"X2"}, "R1", []string{"X"})
	s.AddFK("R3", []string{"X1", "X2"}, "R2", []string{"X1", "X2"})
	return s.MustValidate()
}

func e9Paths() (p1, p2, p3, p4, p5 schema.JoinPath) {
	r3pk := schema.ColumnSet{Table: "R3", Columns: []string{"X1", "X2", "Y"}}
	r3fk := schema.ColumnSet{Table: "R3", Columns: []string{"X1", "X2"}}
	r2pk := schema.ColumnSet{Table: "R2", Columns: []string{"X1", "X2"}}
	r2x1 := schema.ColumnSet{Table: "R2", Columns: []string{"X1"}}
	r2x2 := schema.ColumnSet{Table: "R2", Columns: []string{"X2"}}
	r1x := schema.ColumnSet{Table: "R1", Columns: []string{"X"}}
	r1a := schema.ColumnSet{Table: "R1", Columns: []string{"A"}}
	r3x1 := schema.ColumnSet{Table: "R3", Columns: []string{"X1"}}
	r3x2 := schema.ColumnSet{Table: "R3", Columns: []string{"X2"}}
	p1 = schema.NewJoinPath(r3pk, r3fk, r2pk, r2x1, r1x, r1a)
	p2 = schema.NewJoinPath(r3pk, r3fk, r2pk, r2x2, r1x, r1a)
	p3 = schema.NewJoinPath(r3pk, r3fk, r2pk, r2x1)
	p4 = schema.NewJoinPath(r3pk, r3x1)
	p5 = schema.NewJoinPath(r3pk, r3x2)
	return
}

// TestExample9 reproduces the path-compatibility claims of Example 9.
// (The paper's p4 is rendered ending at R3.X1, consistent with its stated
// justification "R2.X1 ≡ R3.X1".)
func TestExample9(t *testing.T) {
	sc := example9Schema()
	c := newAttrCompat(sc)
	p1, p2, p3, p4, p5 := e9Paths()
	for i, p := range []schema.JoinPath{p1, p2, p3, p4, p5} {
		if err := p.Validate(sc); err != nil {
			t.Fatalf("p%d invalid: %v", i+1, err)
		}
	}
	if got := comparePaths(p1, p2, c); got != pathsIncompatible {
		t.Errorf("p1 vs p2 = %v, want incompatible (R2.X1 != R2.X2)", got)
	}
	if got := comparePaths(p1, p3, c); got != pathFirstCoarser {
		t.Errorf("p1 vs p3 = %v, want p1 > p3", got)
	}
	if got := comparePaths(p4, p3, c); got != pathsEquivalent {
		t.Errorf("p4 vs p3 = %v, want equivalent (R2.X1 ≡ R3.X1)", got)
	}
	if got := comparePaths(p5, p1, c); got != pathsIncompatible {
		t.Errorf("p5 vs p1 = %v, want incompatible", got)
	}
	if got := comparePaths(p5, p3, c); got != pathsIncompatible {
		t.Errorf("p5 vs p3 = %v, want incompatible", got)
	}
	if got := comparePaths(p5, p4, c); got != pathsIncompatible {
		t.Errorf("p5 vs p4 = %v, want incompatible", got)
	}
}

func TestComparePathsIdentity(t *testing.T) {
	c := newAttrCompat(fixture.CustInfoSchema())
	tp := fixture.TradePath()
	if got := comparePaths(tp, tp, c); got != pathsEquivalent {
		t.Errorf("p vs p = %v", got)
	}
	if got := comparePaths(schema.JoinPath{}, tp, c); got != pathsIncompatible {
		t.Errorf("empty vs p = %v", got)
	}
	// Prefix relationship: TRADE path to CA_ID vs to CA_C_ID.
	short := fixture.TradePath().Trunk() // ends at CA_ID
	if got := comparePaths(short, tp, c); got != pathSecondCoarser {
		t.Errorf("prefix compare = %v, want second coarser", got)
	}
	if got := comparePaths(tp, short, c); got != pathFirstCoarser {
		t.Errorf("reversed prefix compare = %v, want first coarser", got)
	}
}
