package partition

import (
	"testing"

	"repro/internal/fixture"
	"repro/internal/schema"
	"repro/internal/value"
)

// TestTableFingerprint checks the fingerprint's equality semantics: equal
// placement shapes agree, a change to any hashed field (table,
// replication, a path node's table or columns, mapper family, k)
// disagrees, lookup-table contents are ignored, and hashing allocates
// nothing.
func TestTableFingerprint(t *testing.T) {
	base := NewByPath("TRADE", fixture.TradePath(), NewHash(4))
	same := NewByPath("TRADE", fixture.TradePath(), NewHash(4))
	if base.Fingerprint() != same.Fingerprint() {
		t.Fatal("equal placements fingerprint differently")
	}
	lookA := NewLookup(4, map[value.Value]int{value.NewInt(1): 0}, nil)
	lookB := NewLookup(4, map[value.Value]int{value.NewInt(1): 3}, nil)
	if NewByPath("T", fixture.CAPath(), lookA).Fingerprint() != NewByPath("T", fixture.CAPath(), lookB).Fingerprint() {
		t.Error("lookup contents must not change the fingerprint")
	}
	// Moving a column between two adjacent nodes keeps the concatenated
	// identifiers but changes the path.
	split := schema.NewJoinPath(
		schema.ColumnSet{Table: "HOLDING_SUMMARY", Columns: []string{"HS_S_SYMB", "HS_CA_ID"}},
		schema.ColumnSet{Table: "HOLDING_SUMMARY", Columns: []string{"HS_CA_ID"}},
	)
	moved := schema.NewJoinPath(
		schema.ColumnSet{Table: "HOLDING_SUMMARY", Columns: []string{"HS_S_SYMB"}},
		schema.ColumnSet{Table: "HOLDING_SUMMARY", Columns: []string{"HS_CA_ID", "HS_CA_ID"}},
	)
	differ := []*TableSolution{
		NewByPath("TRADE2", fixture.TradePath(), NewHash(4)),
		NewReplicated("TRADE"),
		NewByPath("TRADE", fixture.TradePath().Trunk(), NewHash(4)),
		NewByPath("TRADE", fixture.HSPath(), NewHash(4)),
		NewByPath("TRADE", fixture.TradePath(), NewHash(8)),
		NewByPath("TRADE", fixture.TradePath(), NewRangeFromValues(4, nil)),
		NewByPath("TRADE", fixture.TradePath(), nil),
		NewByPath("HS", split, NewHash(4)),
	}
	seen := map[uint64]int{base.Fingerprint(): -1}
	for i, ts := range differ {
		fp := ts.Fingerprint()
		if j, dup := seen[fp]; dup {
			t.Errorf("placement %d (%s) collides with %d", i, ts, j)
		}
		seen[fp] = i
	}
	if NewByPath("HS", split, NewHash(4)).Fingerprint() == NewByPath("HS", moved, NewHash(4)).Fingerprint() {
		t.Error("column moved across a node boundary must change the fingerprint")
	}
	if allocs := testing.AllocsPerRun(100, func() { base.Fingerprint() }); allocs != 0 {
		t.Errorf("Fingerprint = %.0f allocs/op, want 0", allocs)
	}
}
