package db

import (
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

func tradePath() schema.JoinPath {
	return schema.NewJoinPath(
		schema.ColumnSet{Table: "TRADE", Columns: []string{"T_ID"}},
		schema.ColumnSet{Table: "TRADE", Columns: []string{"T_CA_ID"}},
		schema.ColumnSet{Table: "CUSTOMER_ACCOUNT", Columns: []string{"CA_ID"}},
		schema.ColumnSet{Table: "CUSTOMER_ACCOUNT", Columns: []string{"CA_C_ID"}},
	)
}

func hsPath() schema.JoinPath {
	return schema.NewJoinPath(
		schema.ColumnSet{Table: "HOLDING_SUMMARY", Columns: []string{"HS_S_SYMB", "HS_CA_ID"}},
		schema.ColumnSet{Table: "HOLDING_SUMMARY", Columns: []string{"HS_CA_ID"}},
		schema.ColumnSet{Table: "CUSTOMER_ACCOUNT", Columns: []string{"CA_ID"}},
		schema.ColumnSet{Table: "CUSTOMER_ACCOUNT", Columns: []string{"CA_C_ID"}},
	)
}

// evalPath compiles p and follows it, in a view of its own, from the
// source tuple whose primary key is k.
func evalPath(d *DB, p schema.JoinPath, k value.Key) (value.Value, bool, error) {
	n, err := d.Compile(p)
	if err != nil {
		return value.Value{}, false, err
	}
	v := d.View()
	defer v.Close()
	val, ok := v.FromKey(n, k)
	return val, ok, nil
}

// TestEvalPathFigure1 checks the exact partition assignment of Figure 1:
// trades map to customer 1 (red) or customer 2 (blue) via the join path.
func TestEvalPathFigure1(t *testing.T) {
	d := loadFigure1(t)
	// From the figure: CA 1,8 belong to customer 1; CA 7,10 to customer 2.
	wantByTrade := map[int64]int64{
		1: 1, 7: 1, 4: 1, 5: 1, // red partition
		2: 2, 6: 2, 3: 2, 8: 2, // blue partition
	}
	p := tradePath()
	if err := p.Validate(d.Schema()); err != nil {
		t.Fatal(err)
	}
	for tid, want := range wantByTrade {
		v, ok, err := evalPath(d, p, value.MakeKey(value.NewInt(tid)))
		if err != nil || !ok {
			t.Fatalf("evalPath(T_ID=%d): %v, ok=%v", tid, err, ok)
		}
		if v != value.NewInt(want) {
			t.Errorf("T_ID=%d maps to C_ID %v, want %d", tid, v, want)
		}
	}
}

func TestEvalPathCompositeSource(t *testing.T) {
	d := loadFigure1(t)
	p := hsPath()
	if err := p.Validate(d.Schema()); err != nil {
		t.Fatal(err)
	}
	// HOLDING_SUMMARY (BLS, 8): CA 8 -> customer 1.
	k := value.MakeKey(value.NewString("BLS"), value.NewInt(8))
	v, ok, err := evalPath(d, p, k)
	if err != nil || !ok || v != value.NewInt(1) {
		t.Errorf("evalPath(BLS,8) = %v, %v, %v", v, ok, err)
	}
}

func TestEvalPathIdentity(t *testing.T) {
	d := loadFigure1(t)
	// Single-within-table path {T_ID} -> {T_CA_ID}.
	p := schema.NewJoinPath(
		schema.ColumnSet{Table: "TRADE", Columns: []string{"T_ID"}},
		schema.ColumnSet{Table: "TRADE", Columns: []string{"T_CA_ID"}},
	)
	v, ok, err := evalPath(d, p, value.MakeKey(value.NewInt(2)))
	if err != nil || !ok || v != value.NewInt(7) {
		t.Errorf("evalPath = %v, %v, %v", v, ok, err)
	}
	// Trivial single-node path {T_ID}: the tuple's own key attribute.
	pid := schema.NewJoinPath(schema.ColumnSet{Table: "TRADE", Columns: []string{"T_ID"}})
	v, ok, err = evalPath(d, pid, value.MakeKey(value.NewInt(5)))
	if err != nil || !ok || v != value.NewInt(5) {
		t.Errorf("identity path = %v, %v, %v", v, ok, err)
	}
}

func TestEvalPathDangling(t *testing.T) {
	d := loadFigure1(t)
	tr := d.Table("TRADE")
	// Trade referencing a missing customer account.
	tr.MustInsert(value.NewInt(100), value.NewInt(999), value.NewInt(1))
	_, ok, err := evalPath(d, tradePath(), value.MakeKey(value.NewInt(100)))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("dangling FK must report !ok")
	}
	// NULL FK.
	tr.MustInsert(value.NewInt(101), value.NewNull(), value.NewInt(1))
	_, ok, err = evalPath(d, tradePath(), value.MakeKey(value.NewInt(101)))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("NULL FK must report !ok")
	}
	// Missing source row.
	_, ok, _ = evalPath(d, tradePath(), value.MakeKey(value.NewInt(555)))
	if ok {
		t.Error("missing source row must report !ok")
	}
}

func TestEvalPathErrors(t *testing.T) {
	d := loadFigure1(t)
	if _, _, err := evalPath(d, schema.JoinPath{}, value.MakeKey(value.NewInt(1))); err == nil {
		t.Error("empty path must error")
	}
	bad := schema.NewJoinPath(schema.ColumnSet{Table: "NOPE", Columns: []string{"X"}})
	if _, _, err := evalPath(d, bad, value.MakeKey(value.NewInt(1))); err == nil {
		t.Error("unknown source table must error")
	}
	multi := schema.NewJoinPath(
		schema.ColumnSet{Table: "TRADE", Columns: []string{"T_ID"}},
		schema.ColumnSet{Table: "TRADE", Columns: []string{"T_CA_ID", "T_QTY"}},
	)
	if _, _, err := evalPath(d, multi, value.MakeKey(value.NewInt(1))); err == nil {
		t.Error("multi-attribute destination must error")
	}
}

// TestNavZeroAlloc gates navigation in a View at zero allocations, from a
// row and from a key, through a composite-key source and two within-table
// hops — and from a slot through the view's hop memo, once the walks have
// filled its columns.
func TestNavZeroAlloc(t *testing.T) {
	d := loadFigure1(t)
	for _, p := range []schema.JoinPath{tradePath(), hsPath()} {
		n, err := d.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		src := d.Table(p.SourceTable())
		keys := keysAt(src)
		row, _ := src.Get(keys[0])
		v := d.View()
		slots := v.Slots(src)
		if _, ok := v.FromRow(n, row); !ok {
			t.Fatalf("%v: row does not resolve", p)
		}
		i := 0
		if allocs := testing.AllocsPerRun(100, func() {
			v.FromRow(n, row)
			v.FromKey(n, keys[i%len(keys)])
			i++
		}); allocs != 0 {
			t.Errorf("%v: View FromRow+FromKey = %.0f allocs/op, want 0", p, allocs)
		}
		for s := range slots {
			if _, ok := v.FromSlot(n, s); !ok {
				t.Fatalf("%v: slot %d does not resolve", p, s)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() {
			v.FromSlot(n, i%slots)
			i++
		}); allocs != 0 {
			t.Errorf("%v: View FromSlot (memo filled) = %.0f allocs/op, want 0", p, allocs)
		}
		v.Close()
	}
}

// TestHopMemoSharedEdges checks how hops share memo columns: two paths
// with the same hop out of TRADE.T_CA_ID share its edge unless one
// reaches it through a leading hop out of TRADE's primary key, whose
// NULL check its memo cell records too. A trade whose key is NULL then
// dangles on the guarded path, however the unguarded path's walks filled
// its own column first, in one view.
func TestHopMemoSharedEdges(t *testing.T) {
	d := loadFigure1(t)
	fkOnly := schema.NewJoinPath(tradePath().Nodes[1:]...)
	withFK, err := d.Compile(fkOnly)
	if err != nil {
		t.Fatal(err)
	}
	again, err := d.Compile(fkOnly)
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := d.Compile(tradePath())
	if err != nil {
		t.Fatal(err)
	}
	if withFK.hops[0].edge != again.hops[0].edge {
		t.Error("two compilations of one path do not share their hop's edge")
	}
	if guarded.hops[0].edge == withFK.hops[0].edge {
		t.Error("a guarded hop shares the unguarded hop's edge")
	}
	trade := d.Table("TRADE")
	trade.MustInsert(value.NewNull(), value.NewInt(1), value.NewInt(5))
	type walk struct {
		name string
		n    *Nav
		slot int
		v    value.Value
		ok   bool
	}
	var walks []walk
	rv := d.View()
	for name, n := range map[string]*Nav{"with FK": withFK, "guarded": guarded} {
		for slot := range rv.Slots(trade) {
			v, ok := rv.FromRow(n, rv.RowAt(trade, slot))
			walks = append(walks, walk{name, n, slot, v, ok})
		}
	}
	rv.Close() // FromRow fills no memo; FromSlot below starts a fresh one
	v := d.View()
	defer v.Close()
	for _, w := range walks {
		if got, ok := v.FromSlot(w.n, w.slot); got != w.v || ok != w.ok {
			t.Errorf("%s: FromSlot(%d) = %v, %v; FromRow = %v, %v", w.name, w.slot, got, ok, w.v, w.ok)
		}
	}
}
