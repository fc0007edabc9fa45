package db

import (
	"slices"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

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

// loadFigure1 loads the exact data of the paper's Figure 1.
func loadFigure1(t testing.TB) *DB {
	t.Helper()
	d := New(custInfoSchema())
	ca := d.Table("CUSTOMER_ACCOUNT")
	for _, r := range [][2]int64{{1, 1}, {7, 2}, {8, 1}, {10, 2}} {
		ca.MustInsert(value.NewInt(r[0]), value.NewInt(r[1]))
	}
	tr := d.Table("TRADE")
	for _, r := range [][3]int64{
		{1, 1, 2}, {2, 7, 1}, {3, 10, 3}, {4, 8, 1},
		{5, 8, 3}, {6, 7, 4}, {7, 1, 1}, {8, 10, 1},
	} {
		tr.MustInsert(value.NewInt(r[0]), value.NewInt(r[1]), value.NewInt(r[2]))
	}
	hs := d.Table("HOLDING_SUMMARY")
	for _, r := range []struct {
		sym    string
		ca, qt int64
	}{
		{"ADLAE", 1, 3}, {"APCFY", 1, 5}, {"AQLC", 7, 6}, {"ASTT", 10, 4},
		{"BEBE", 10, 5}, {"BLS", 8, 9}, {"CAV", 8, 3}, {"CPN", 7, 1},
	} {
		hs.MustInsert(value.NewString(r.sym), value.NewInt(r.ca), value.NewInt(r.qt))
	}
	return d
}

func TestInsertGetLen(t *testing.T) {
	d := loadFigure1(t)
	if d.TotalRows() != 4+8+8 {
		t.Errorf("TotalRows = %d", d.TotalRows())
	}
	tr := d.Table("TRADE")
	if tr.Len() != 8 {
		t.Errorf("TRADE len = %d", tr.Len())
	}
	row, ok := tr.Get(value.MakeKey(value.NewInt(3)))
	if !ok || row[1] != value.NewInt(10) {
		t.Errorf("Get(T_ID=3) = %v, %v", row, ok)
	}
	if _, ok := tr.Get(value.MakeKey(value.NewInt(99))); ok {
		t.Error("missing key must not be found")
	}
}

func TestInsertErrors(t *testing.T) {
	d := New(custInfoSchema())
	tr := d.Table("TRADE")
	if _, err := tr.Insert(value.Tuple{value.NewInt(1)}); err == nil {
		t.Error("arity mismatch must error")
	}
	if _, err := tr.Insert(value.Tuple{value.NewString("x"), value.NewInt(1), value.NewInt(1)}); err == nil {
		t.Error("type mismatch must error")
	}
	tr.MustInsert(value.NewInt(1), value.NewInt(1), value.NewInt(1))
	if _, err := tr.Insert(value.Tuple{value.NewInt(1), value.NewInt(2), value.NewInt(3)}); err == nil {
		t.Error("duplicate PK must error")
	}
}

func TestCompositeKeys(t *testing.T) {
	d := loadFigure1(t)
	hs := d.Table("HOLDING_SUMMARY")
	k := value.MakeKey(value.NewString("BLS"), value.NewInt(8))
	row, ok := hs.Get(k)
	if !ok || row[2] != value.NewInt(9) {
		t.Errorf("Get(BLS,8) = %v, %v", row, ok)
	}
}

func TestUpdate(t *testing.T) {
	d := loadFigure1(t)
	tr := d.Table("TRADE")
	k := value.MakeKey(value.NewInt(1))
	if err := tr.Update(k, []string{"T_QTY"}, []value.Value{value.NewInt(42)}); err != nil {
		t.Fatal(err)
	}
	row, _ := tr.Get(k)
	if row[2] != value.NewInt(42) {
		t.Errorf("after update row = %v", row)
	}
	if err := tr.Update(k, []string{"T_ID"}, []value.Value{value.NewInt(9)}); err == nil {
		t.Error("updating PK column must error")
	}
	if err := tr.Update(value.MakeKey(value.NewInt(99)), []string{"T_QTY"}, []value.Value{value.NewInt(1)}); err == nil {
		t.Error("updating missing row must error")
	}
	if err := tr.Update(k, []string{"NOPE"}, []value.Value{value.NewInt(1)}); err == nil {
		t.Error("updating unknown column must error")
	}
	if err := tr.Update(k, []string{"T_QTY"}, nil); err == nil {
		t.Error("arity mismatch must error")
	}
}

func TestDeleteAndSlotReuse(t *testing.T) {
	d := loadFigure1(t)
	tr := d.Table("TRADE")
	k := value.MakeKey(value.NewInt(5))
	if !tr.Delete(k) {
		t.Fatal("delete existing row must succeed")
	}
	if tr.Delete(k) {
		t.Error("double delete must report false")
	}
	if tr.Len() != 7 {
		t.Errorf("len after delete = %d", tr.Len())
	}
	// Reinsert reuses the freed slot.
	tr.MustInsert(value.NewInt(5), value.NewInt(8), value.NewInt(3))
	if tr.Len() != 8 {
		t.Errorf("len after reinsert = %d", tr.Len())
	}
	if row, ok := tr.Get(k); !ok || row[1] != value.NewInt(8) {
		t.Errorf("reinserted row = %v, %v", row, ok)
	}
}

// versionOf returns the committed write count of k in t (0 when never
// touched).
func versionOf(t *Table, k value.Key) uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.versions[k].n
}

// keysAt returns t's primary keys in KeyAt order.
func keysAt(t *Table) []value.Key {
	keys := make([]value.Key, t.Len())
	for i := range keys {
		keys[i] = t.KeyAt(i)
	}
	return keys
}

// TestScanAndKeys checks a view's row cursor, with an early stop, and
// the sorted keys KeyAt serves against the table's rows.
func TestScanAndKeys(t *testing.T) {
	d := loadFigure1(t)
	tr := d.Table("TRADE")
	v := d.View()
	count := 0
	var want []value.Key
	for _, row := range v.Rows(tr) {
		count++
		want = append(want, tr.PKOf(row))
	}
	if count != 8 {
		t.Errorf("scan visited %d rows", count)
	}
	// Early stop.
	count = 0
	for range v.Rows(tr) {
		count++
		break
	}
	if count != 1 {
		t.Errorf("early-stop scan visited %d rows", count)
	}
	v.Close()
	slices.Sort(want)
	if got := keysAt(tr); !slices.Equal(got, want) {
		t.Errorf("keys = %q, want %q", got, want)
	}
}

// TestKeysTracksMutations checks the sorted key list KeyAt maintains
// against a fresh sort after inserts on both ends, a delete, a
// re-insert, and transaction commits that roll back an insert and a
// delete.
func TestKeysTracksMutations(t *testing.T) {
	d := loadFigure1(t)
	tr := d.Table("TRADE")
	check := func(step string) {
		t.Helper()
		var want []value.Key
		for k := range tr.pk {
			want = append(want, k)
		}
		slices.Sort(want)
		if got := keysAt(tr); !slices.Equal(got, want) {
			t.Fatalf("%s: keys = %q, want %q", step, got, want)
		}
	}
	row := func(id int64) value.Tuple {
		return value.Tuple{value.NewInt(id), value.NewInt(1), value.NewInt(1)}
	}
	check("initial")
	tr.MustInsert(row(-5)...)
	tr.MustInsert(row(50)...)
	check("insert")
	tr.Delete(value.MakeKey(value.NewInt(3)))
	check("delete")
	tr.MustInsert(row(3)...)
	check("re-insert")

	if err := d.CommitOps([]Op{
		{Kind: OpInsert, Table: "TRADE", Row: row(60)},
		{Kind: OpDelete, Table: "TRADE", Key: value.MakeKey(value.NewInt(4))},
		{Kind: OpInsert, Table: "TRADE", Row: row(1)}, // duplicate key: the commit rolls back
	}); err == nil {
		t.Fatal("duplicate insert must fail the commit")
	}
	check("rollback")
}

func TestSecondaryIndex(t *testing.T) {
	d := loadFigure1(t)
	tr := d.Table("TRADE")
	rows := tr.LookupRows("T_CA_ID", value.NewInt(8))
	if len(rows) != 2 {
		t.Fatalf("LookupRows(T_CA_ID=8) = %d rows", len(rows))
	}
	// Index must track subsequent mutations.
	tr.Delete(value.MakeKey(value.NewInt(4))) // trade 4 had T_CA_ID=8
	if got := tr.LookupRows("T_CA_ID", value.NewInt(8)); len(got) != 1 {
		t.Errorf("after delete, LookupRows = %d rows", len(got))
	}
	tr.MustInsert(value.NewInt(9), value.NewInt(8), value.NewInt(2))
	if got := tr.LookupRows("T_CA_ID", value.NewInt(8)); len(got) != 2 {
		t.Errorf("after insert, LookupRows = %d rows", len(got))
	}
	if err := tr.Update(value.MakeKey(value.NewInt(9)), []string{"T_CA_ID"}, []value.Value{value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if got := tr.LookupRows("T_CA_ID", value.NewInt(8)); len(got) != 1 {
		t.Errorf("after update, LookupRows = %d rows", len(got))
	}
}

// lookupByGet is the reference lookup: encode the primary key of every
// row in the index's slot list, then fetch each row with Get.
func lookupByGet(t *testing.T, tb *Table, col string, v value.Value) []value.Tuple {
	t.Helper()
	tb.mu.RLock()
	var keys []value.Key
	for _, slot := range tb.sec[col].slots[v] {
		keys = append(keys, tb.PKOf(tb.rows[slot]))
	}
	tb.mu.RUnlock()
	var out []value.Tuple
	for _, k := range keys {
		row, ok := tb.Get(k)
		if !ok {
			t.Fatalf("Get(%q) missed a row the index holds", k)
		}
		out = append(out, row)
	}
	return out
}

// TestLookupRows checks LookupRows against lookupByGet: the same stored
// rows (by identity) in the same order, across inserts, an
// Update of the indexed column, deletes, slot reuse and a lazily built
// index; and against a scan for the set of matching rows.
func TestLookupRows(t *testing.T) {
	d := loadFigure1(t)
	tr := d.Table("TRADE")
	row := func(id, ca int64) value.Tuple {
		return value.Tuple{value.NewInt(id), value.NewInt(ca), value.NewInt(1)}
	}
	check := func(step string) {
		t.Helper()
		for ca := int64(0); ca <= 9; ca++ {
			v := value.NewInt(ca)
			got := tr.LookupRows("T_CA_ID", v)
			want := lookupByGet(t, tr, "T_CA_ID", v)
			if len(got) != len(want) {
				t.Fatalf("%s: T_CA_ID=%d: %d rows, want %d", step, ca, len(got), len(want))
			}
			for i := range got {
				if &got[i][0] != &want[i][0] {
					t.Fatalf("%s: T_CA_ID=%d: row %d is %v, want stored row %v", step, ca, i, got[i], want[i])
				}
			}
			n := 0
			for k := range tr.pk {
				if r, _ := tr.Get(k); r[1] == v {
					n++
				}
			}
			if n != len(got) {
				t.Fatalf("%s: T_CA_ID=%d: %d rows, scan finds %d", step, ca, len(got), n)
			}
		}
	}
	// Churn before the index exists: the lazy build orders by slot, and
	// the deletes leave free slots that later inserts reuse.
	tr.Delete(value.MakeKey(value.NewInt(2)))
	tr.Delete(value.MakeKey(value.NewInt(5)))
	tr.MustInsert(row(20, 8)...)
	check("lazy build")
	tr.MustInsert(row(21, 8)...)
	tr.MustInsert(row(22, 7)...)
	check("insert")
	if err := tr.Update(value.MakeKey(value.NewInt(21)), []string{"T_CA_ID"}, []value.Value{value.NewInt(9)}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Update(value.MakeKey(value.NewInt(1)), []string{"T_QTY"}, []value.Value{value.NewInt(5)}); err != nil {
		t.Fatal(err)
	}
	check("update")
	tr.Delete(value.MakeKey(value.NewInt(20)))
	tr.Delete(value.MakeKey(value.NewInt(4)))
	check("delete")
	tr.MustInsert(row(23, 8)...) // reuses a freed slot
	tr.MustInsert(row(4, 8)...)
	check("slot reuse")

	// Rows are the stored rows: an Update shows through.
	k := value.MakeKey(value.NewInt(23))
	got := tr.LookupRows("T_CA_ID", value.NewInt(8))
	if err := tr.Update(k, []string{"T_QTY"}, []value.Value{value.NewInt(77)}); err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, r := range got {
		if tr.PKOf(r) == k {
			seen = r[2] == value.NewInt(77)
		}
	}
	if !seen {
		t.Error("LookupRows result does not reference the stored row")
	}
	if got := tr.LookupRows("T_CA_ID", value.NewInt(12345)); got != nil {
		t.Errorf("no match = %v, want nil", got)
	}

	defer func() {
		if recover() == nil {
			t.Error("LookupRows on an unknown column must panic")
		}
	}()
	tr.LookupRows("NOPE", value.NewInt(1))
}

// TestKeyAt checks KeyAt against Keys across inserts and deletes,
// starting before the sorted key list exists, and that a warm KeyAt does
// not allocate.
func TestKeyAt(t *testing.T) {
	d := loadFigure1(t)
	tr := d.Table("TRADE")
	check := func(step string) {
		t.Helper()
		keys := keysAt(tr)
		if len(keys) != tr.Len() {
			t.Fatalf("%s: Keys() has %d keys, Len() = %d", step, len(keys), tr.Len())
		}
		for i, k := range keys {
			if got := tr.KeyAt(i); got != k {
				t.Fatalf("%s: KeyAt(%d) = %q, want %q", step, i, got, k)
			}
		}
	}
	// Cold: KeyAt builds the sorted list itself.
	if tr.sorted != nil {
		t.Fatal("sorted key list exists before the first Keys/KeyAt call")
	}
	first := tr.KeyAt(0)
	if want := value.MakeKey(value.NewInt(1)); first != want {
		t.Errorf("cold KeyAt(0) = %q, want %q", first, want)
	}
	check("initial")
	tr.MustInsert(value.NewInt(-3), value.NewInt(1), value.NewInt(1))
	tr.MustInsert(value.NewInt(50), value.NewInt(1), value.NewInt(1))
	check("insert")
	tr.Delete(value.MakeKey(value.NewInt(3)))
	tr.Delete(value.MakeKey(value.NewInt(-3)))
	check("delete")

	if n := testing.AllocsPerRun(100, func() { _ = tr.KeyAt(tr.Len() - 1) }); n != 0 {
		t.Errorf("warm KeyAt allocates %v times", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("KeyAt past the end must panic")
		}
	}()
	tr.KeyAt(tr.Len())
}

// TestResolveSlotsAndRows pins the View's slot API: Resolve reports a
// live row's slot and the row RowAt returns for it, -1 with the last
// version for a deleted row, and nothing for a key that never existed;
// Rows walks live rows in slot order, skipping freed slots, and Slots
// bounds every slot it yields.
func TestResolveSlotsAndRows(t *testing.T) {
	d := loadFigure1(t)
	tr := d.Table("TRADE")
	k3 := tr.PKOf(value.Tuple{value.NewInt(3), value.Value{}, value.Value{}})
	v := d.View()
	slot, row, ok := v.Resolve(tr, k3)
	if !ok || slot < 0 || row[0] != value.NewInt(3) {
		t.Fatalf("Resolve(live) = %d, %v, %v", slot, row, ok)
	}
	if got := v.RowAt(tr, slot); got[0] != value.NewInt(3) {
		t.Fatalf("RowAt(%d) = %v", slot, got)
	}
	v.Close()

	tr.Delete(k3)
	v = d.View()
	gslot, grow, ok := v.Resolve(tr, k3)
	if !ok || gslot != -1 || grow[0] != value.NewInt(3) {
		t.Fatalf("Resolve(deleted) = %d, %v, %v; want -1 and the last version", gslot, grow, ok)
	}
	if got := v.RowAt(tr, slot); got != nil {
		t.Fatalf("RowAt(freed slot) = %v, want nil", got)
	}
	if _, _, ok := v.Resolve(tr, value.MakeKey(value.NewInt(99))); ok {
		t.Fatal("Resolve(missing key) reported a row")
	}
	if v.RowAt(tr, -1) != nil || v.RowAt(tr, v.Slots(tr)) != nil {
		t.Fatal("RowAt out of range returned a row")
	}

	var slots []int
	for s, r := range v.Rows(tr) {
		if s >= v.Slots(tr) || r == nil || v.RowAt(tr, s)[0] != r[0] {
			t.Fatalf("Rows yielded slot %d row %v", s, r)
		}
		slots = append(slots, s)
	}
	if len(slots) != v.Len(tr) || !slices.IsSorted(slots) || slices.Contains(slots, slot) {
		t.Fatalf("Rows slots = %v (len %d), want %d sorted live slots without %d", slots, len(slots), v.Len(tr), slot)
	}
	for range v.Rows(tr) {
		break
	}
	v.Close()
	tr.MustInsert(value.NewInt(9), value.NewInt(1), value.NewInt(1))
}
