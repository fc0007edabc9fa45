package db_test

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/fixture"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/workloads"
	"repro/internal/workloads/auctionmark"
	"repro/internal/workloads/seats"
	"repro/internal/workloads/tatp"
	"repro/internal/workloads/tpcc"
	"repro/internal/workloads/tpce"
)

// refWalk is the reference join-path walk the compiled navigator must
// reproduce: project X_0 from the row, carry values across key–foreign-key
// hops, and on each within-table hop locate the row the carried values
// key (live or deleted) and project the next attribute set. Any NULL
// carried into a lookup, any missing row, and a NULL destination dangle.
func refWalk(t *testing.T, d *db.DB, p schema.JoinPath, row value.Tuple) (value.Value, bool) {
	t.Helper()
	project := func(cs schema.ColumnSet, row value.Tuple) []value.Value {
		meta := d.Table(cs.Table).Meta()
		out := make([]value.Value, len(cs.Columns))
		for i, c := range cs.Columns {
			ci := meta.ColumnIndex(c)
			if ci < 0 {
				t.Fatalf("%s: unknown column %s", cs.Table, c)
			}
			out[i] = row[ci]
		}
		return out
	}
	vals := project(p.Nodes[0], row)
	for i := 0; i+1 < p.Len(); i++ {
		cur, next := p.Nodes[i], p.Nodes[i+1]
		if cur.Table != next.Table {
			continue
		}
		for _, v := range vals {
			if v.IsNull() {
				return value.Value{}, false
			}
		}
		r, ok := d.Table(cur.Table).GetAny(value.KeyOf(vals))
		if !ok {
			return value.Value{}, false
		}
		vals = project(next, r)
	}
	if len(vals) != 1 {
		t.Fatalf("%v: destination is not a single attribute", p)
	}
	return vals[0], !vals[0].IsNull()
}

// refWalkKey is refWalk from the source tuple keyed k.
func refWalkKey(t *testing.T, d *db.DB, p schema.JoinPath, k value.Key) (value.Value, bool) {
	t.Helper()
	row, ok := d.Table(p.SourceTable()).GetAny(k)
	if !ok {
		return value.Value{}, false
	}
	return refWalk(t, d, p, row)
}

// tableKeys returns t's primary keys in sorted order, as KeyAt serves
// them.
func tableKeys(t *db.Table) []value.Key {
	keys := make([]value.Key, t.Len())
	for i := range keys {
		keys[i] = t.KeyAt(i)
	}
	return keys
}

// checkNavKeys compares the navigator with the reference walk, inside a
// view, from each key and from each key's row (live or deleted), and, in
// a second view, from each live row's slot through the hop memo, cold and
// warm. n is p compiled. It returns how many keys resolved.
func checkNavKeys(t *testing.T, d *db.DB, p schema.JoinPath, n *db.Nav, keys []value.Key) int {
	t.Helper()
	src := d.Table(p.SourceTable())
	type slotWalk struct {
		slot int
		v    value.Value
		ok   bool
	}
	type keyWalk struct {
		k       value.Key
		v       value.Value
		ok, row bool
	}
	// The reference walk reads with locking Table methods, so it runs
	// before the views open.
	refs := make([]keyWalk, len(keys))
	for i, k := range keys {
		refs[i].k = k
		refs[i].v, refs[i].ok = refWalkKey(t, d, p, k)
		_, refs[i].row = src.GetAny(k)
	}
	var slots []slotWalk
	resolved := 0
	rv := d.View()
	for _, r := range refs {
		got, ok := rv.FromKey(n, r.k)
		if ok != r.ok || got != r.v {
			t.Fatalf("%v: FromKey(%q) = %v, %v; reference %v, %v", p, r.k, got, ok, r.v, r.ok)
		}
		if ok {
			resolved++
		}
		if !r.row {
			continue
		}
		slot, row, _ := rv.Resolve(src, r.k)
		if got, ok = rv.FromRow(n, row); ok != r.ok || got != r.v {
			t.Fatalf("%v: FromRow(%v) = %v, %v; reference %v, %v", p, row, got, ok, r.v, r.ok)
		}
		if slot >= 0 {
			slots = append(slots, slotWalk{slot, r.v, r.ok})
		}
	}
	rv.Close()
	v := d.View()
	defer v.Close()
	for _, pass := range []string{"cold", "warm"} {
		for _, w := range slots {
			if got, ok := v.FromSlot(n, w.slot); ok != w.ok || got != w.v {
				t.Fatalf("%v: %s FromSlot(%d) = %v, %v; reference %v, %v", p, pass, w.slot, got, ok, w.v, w.ok)
			}
		}
	}
	return resolved
}

// TestNavMatchesReferenceWalk checks the compiled navigator against the
// reference walk on every row of every partitioned table of the JECB
// solution, on all five paper benchmarks — first on the loaded database,
// then after deleting every third row of each partitioned table, so
// sources and hops resolve through the graveyard — plus a key no row has.
func TestNavMatchesReferenceWalk(t *testing.T) {
	benches := []struct {
		name  string
		bench workloads.Benchmark
		scale int
	}{
		{"tpcc", tpcc.New(), 2},
		{"tatp", tatp.New(), 200},
		{"tpce", tpce.New(), 100},
		{"seats", seats.New(), 150},
		{"auctionmark", auctionmark.New(), 150},
	}
	for _, pb := range benches {
		pb := pb
		t.Run(pb.name, func(t *testing.T) {
			t.Parallel()
			d, err := pb.bench.Load(workloads.Config{Scale: pb.scale, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			full := workloads.GenerateTrace(pb.bench, d, 400, 2)
			train, test := full.TrainTest(0.5, rand.New(rand.NewSource(3)))
			sol, _, err := core.Partition(context.Background(), core.Input{
				DB: d, Procedures: workloads.Procedures(pb.bench), Train: train, Test: test,
			}, core.Options{K: 4, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			navs := map[string]*db.Nav{}
			keys := map[string][]value.Key{}
			for name, ts := range sol.Tables {
				if ts.Replicate {
					continue
				}
				if navs[name], err = d.Compile(ts.Path); err != nil {
					t.Fatal(err)
				}
				keys[name] = append(tableKeys(d.Table(name)), value.MakeKey(value.NewString("no such row")))
			}
			if len(navs) == 0 {
				t.Fatal("JECB solution partitions no table")
			}
			for name, n := range navs {
				if checkNavKeys(t, d, sol.Tables[name].Path, n, keys[name]) == 0 {
					t.Errorf("%s: no key resolves through %v", name, sol.Tables[name].Path)
				}
			}
			for name := range navs {
				for i, k := range keys[name] {
					if i%3 == 0 {
						d.Table(name).Delete(k)
					}
				}
			}
			for name, n := range navs {
				checkNavKeys(t, d, sol.Tables[name].Path, n, keys[name])
			}
		})
	}
}

// TestNavDanglingAndGraveyard covers the edge cases on the Figure 1
// fixture: a NULL foreign key (even with a row keyed NULL present), a
// reference to a missing row, a missing source row, sources and hop
// targets that were deleted, and a source node listing a composite
// primary key out of key order.
func TestNavDanglingAndGraveyard(t *testing.T) {
	d := fixture.CustInfoDB()
	p := fixture.TradePath()
	n, err := d.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	// A row keyed NULL must not catch a NULL foreign key.
	d.Table("CUSTOMER_ACCOUNT").MustInsert(value.NewNull(), value.NewInt(1))
	trade := d.Table("TRADE")
	nullFK := trade.MustInsert(value.NewInt(9001), value.NewNull(), value.NewInt(1))
	missingFK := trade.MustInsert(value.NewInt(9002), value.NewInt(99999), value.NewInt(1))
	missingSrc := value.MakeKey(value.NewInt(9003))
	// fromKey and fromRow walk in a view of their own, so the deletes
	// below do not wait for one.
	fromKey := func(k value.Key) (value.Value, bool) {
		v := d.View()
		defer v.Close()
		return v.FromKey(n, k)
	}
	fromRow := func(row value.Tuple) (value.Value, bool) {
		v := d.View()
		defer v.Close()
		return v.FromRow(n, row)
	}
	for _, k := range []value.Key{nullFK, missingFK, missingSrc} {
		if _, ok := fromKey(k); ok {
			t.Errorf("FromKey(%q) resolved a dangling chain", k)
		}
	}

	// Delete a trade and the account it references: both the source row
	// and the hop target now live only in the graveyard.
	k := tableKeys(trade)[0]
	want, ok := fromKey(k)
	if !ok {
		t.Fatal("fixture trade does not resolve")
	}
	row, _ := trade.Get(k)
	caKey := value.MakeKey(row[1])
	if !trade.Delete(k) || !d.Table("CUSTOMER_ACCOUNT").Delete(caKey) {
		t.Fatal("delete failed")
	}
	if got, ok := fromKey(k); !ok || got != want {
		t.Errorf("graveyard FromKey = %v, %v; want %v", got, ok, want)
	}
	if got, ok := fromRow(row); !ok || got != want {
		t.Errorf("graveyard FromRow = %v, %v; want %v", got, ok, want)
	}
	checkNavKeys(t, d, p, n, append(tableKeys(trade), nullFK, missingFK, missingSrc, k))

	swapped := fixture.HSPath()
	swapped.Nodes[0].Columns = []string{"HS_CA_ID", "HS_S_SYMB"}
	if err := swapped.Validate(d.Schema()); err != nil {
		t.Fatal(err)
	}
	for _, p := range []schema.JoinPath{fixture.HSPath(), swapped} {
		n, err := d.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		checkNavKeys(t, d, p, n, tableKeys(d.Table("HOLDING_SUMMARY")))
	}
}

// BenchmarkNav times compiled join-path navigation inside a View — the
// inner loop of every cost evaluation — on the CustInfo fixture's TRADE
// path (a leading hop out of the primary key, then one key probe): from a
// key (View.FromKey), serially and from GOMAXPROCS goroutines sharing one
// View, as the solve stages navigate. The slot-memo rows walk from a
// source slot through the view's hop memo (View.FromSlot), serially: cold
// reopens the view, which drops the memo, before each pass over the
// slots, so every walk fills its cell; warm walks a memo already filled.
func BenchmarkNav(b *testing.B) {
	d := fixture.CustInfoDB()
	nav, err := d.Compile(fixture.TradePath())
	if err != nil {
		b.Fatal(err)
	}
	keys := tableKeys(d.Table("TRADE"))
	v := d.View()
	slots := v.Slots(d.Table("TRADE"))
	v.Close()
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		v := d.View()
		defer v.Close()
		for i := 0; i < b.N; i++ {
			navSink, _ = v.FromKey(nav, keys[i%len(keys)])
		}
	})
	b.Run("parallel-view", func(b *testing.B) {
		b.ReportAllocs()
		v := d.View()
		defer v.Close()
		b.RunParallel(func(pb *testing.PB) {
			n := 0
			for i := 0; pb.Next(); i++ {
				if _, ok := v.FromKey(nav, keys[i%len(keys)]); ok {
					n++
				}
			}
			navHits.Add(int64(n))
		})
	})
	b.Run("slot-memo-cold", func(b *testing.B) {
		b.ReportAllocs()
		v := d.View()
		for i := 0; i < b.N; i++ {
			if i%slots == 0 {
				v.Close()
				v = d.View()
			}
			navSink, _ = v.FromSlot(nav, i%slots)
		}
		v.Close()
	})
	b.Run("slot-memo-warm", func(b *testing.B) {
		b.ReportAllocs()
		v := d.View()
		defer v.Close()
		for s := range slots {
			v.FromSlot(nav, s)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			navSink, _ = v.FromSlot(nav, i%slots)
		}
	})
}

// navSink and navHits keep BenchmarkNav's navigations live.
var (
	navSink value.Value
	navHits atomic.Int64
)
