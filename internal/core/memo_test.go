package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/joingraph"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/workloads"
)

// TestFromSlotMatchesFromRow is the hop memo's equivalence check: on all
// six benchmarks, for every join path of every tree phase 2 scores and
// every slot of the path's source table, View.FromSlot reaches the same
// value and ok as View.FromRow from the row in that slot — on a cold
// memo, again on the warm one, and from several goroutines filling one
// memo at once. The database is damaged first (damageForWalks) so the
// walks meet deleted rows reached through the graveyard, free source
// slots, NULL foreign keys and foreign keys no row has.
func TestFromSlotMatchesFromRow(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, _ := workloads.Get(name)
			scale := smallScale(name)
			if name == "tpcc" {
				scale = 1
			}
			d, err := b.Load(workloads.Config{Scale: scale, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			p, err := New(Input{DB: d, Procedures: workloads.Procedures(b),
				Train: workloads.GenerateTrace(b, d, 600, 2)}, Options{K: 4, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			v := p.in.DB.View()
			pre, err := p.phase1(context.Background(), v)
			v.Close() // phase2Paths reads no rows; damageForWalks writes
			if err != nil {
				t.Fatal(err)
			}
			paths := phase2Paths(p, pre)
			if len(paths) == 0 {
				t.Fatal("phase 2 scores no join path")
			}
			damaged := damageForWalks(t, d, paths)

			// want holds FromRow's answer per (path, slot), read in a
			// view closed before the slot walks start; graveyard counts the walks whose first
			// key probe reaches a deleted row, of paths that probe one.
			type walk struct {
				path schema.JoinPath
				nav  *db.Nav
				slot int
				v    value.Value
				ok   bool
			}
			var want []walk
			probing, graveyard := 0, 0
			rv := d.View()
			for _, path := range paths {
				if _, _, ok := firstLookup(d, path); ok {
					probing++
				}
				nav, err := d.Compile(path)
				if err != nil {
					t.Fatal(err)
				}
				src := d.Table(path.SourceTable())
				for slot := range rv.Slots(src) {
					row := rv.RowAt(src, slot)
					v, ok := rv.FromRow(nav, row)
					want = append(want, walk{path, nav, slot, v, ok})
					if firstHopDeleted(d, rv, path, row) {
						graveyard++
					}
				}
			}
			rv.Close()
			if probing > 0 && graveyard == 0 {
				t.Error("no walk reaches a deleted row")
			}
			check := func(v *db.View, w walk, pass string) {
				if got, ok := v.FromSlot(w.nav, w.slot); got != w.v || ok != w.ok {
					t.Errorf("%s: %v slot %d: FromSlot = %v, %v; FromRow = %v, %v",
						pass, w.path, w.slot, got, ok, w.v, w.ok)
				}
			}
			v = d.View()
			for _, pass := range []string{"cold", "warm"} {
				for _, w := range want {
					check(v, w, pass)
				}
			}
			v.Close()

			// A new view starts a new memo, which four goroutines fill
			// at once, each walking every (path, slot) from its own
			// offset.
			v = d.View()
			var wg sync.WaitGroup
			for g := range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range want {
						check(v, want[(i+g*len(want)/4)%len(want)], "concurrent")
					}
				}()
			}
			wg.Wait()
			v.Close()
			t.Logf("%d paths (%d probe a key), %d walks, %d through a deleted row; %s",
				len(paths), probing, len(want), graveyard, damaged)
		})
	}
}

// phase2Paths returns, sorted, the distinct join paths of every tree
// phase 2 scores for the classes of pre: each class's join trees, the
// trees of its split subgraphs, and their sub-join trees.
func phase2Paths(p *Partitioner, pre *preprocessed) []schema.JoinPath {
	byName := map[string]schema.JoinPath{}
	add := func(trees []*joingraph.Tree) {
		for len(trees) > 0 {
			tree := trees[len(trees)-1]
			trees = trees[:len(trees)-1]
			for _, path := range tree.Paths {
				byName[path.String()] = path
			}
			trees = append(trees, subTrees(tree)...)
		}
	}
	for _, class := range slices.Sorted(maps.Keys(pre.Streams)) {
		g := joingraph.Build(pre.Analyses[class], p.in.DB.Schema(), pre.Replicated)
		add(g.Trees(maxTreesPerRoot))
		for _, sub := range g.Split() {
			add(sub.Trees(maxTreesPerRoot))
		}
	}
	var out []schema.JoinPath
	for _, name := range slices.Sorted(maps.Keys(byName)) {
		out = append(out, byName[name])
	}
	return out
}

// firstLookup returns the index i of the path's first within-table hop
// that probes a key (nodes i and i+1 in one table, other than a leading
// hop out of the source's primary key), and the source-row columns that
// key is read from; ok is false when the path has no such hop.
func firstLookup(d *db.DB, path schema.JoinPath) (i int, cols []string, ok bool) {
	cols = path.Nodes[0].Columns
	for i = 0; i+1 < path.Len(); i++ {
		cur, next := path.Nodes[i], path.Nodes[i+1]
		if cur.Table != next.Table {
			continue
		}
		if i == 0 && slices.Equal(cur.Columns, d.Table(cur.Table).Meta().PrimaryKey) {
			cols = next.Columns
			continue
		}
		return i, cols, true
	}
	return 0, nil, false
}

// firstHopDeleted reports whether the path's first key probe from row
// locates a deleted row, read through v.
func firstHopDeleted(d *db.DB, v *db.View, path schema.JoinPath, row value.Tuple) bool {
	i, cols, ok := firstLookup(d, path)
	if !ok || row == nil {
		return false
	}
	meta := d.Table(path.SourceTable()).Meta()
	vals := make([]value.Value, len(cols))
	for j, c := range cols {
		vals[j] = row[meta.ColumnIndex(c)]
	}
	slot, _, found := v.Resolve(d.Table(path.Nodes[i].Table), value.KeyOf(vals))
	return found && slot < 0
}

// damageForWalks deletes every fifth row (in key order) of each table a
// path's key probe can reach, so probes find deleted rows and source
// slots fall free. Then, for each source column a path's first probe
// keys on, it makes one live row hold NULL there and another a value no
// row has: by updating the rows, or, for a primary-key column, by
// inserting changed copies. A source table whose paths leave its primary
// key gets a copy of a row with a NULL key column too. It fails the test
// when some path probes a key but no foreign key was set NULL or
// dangling, or some path leaves its source's key but no key was set
// NULL, and returns what it did.
func damageForWalks(t *testing.T, d *db.DB, paths []schema.JoinPath) string {
	t.Helper()
	targets := map[string]bool{}
	for _, path := range paths {
		for i := 0; i+1 < path.Len(); i++ {
			if path.Nodes[i].Table == path.Nodes[i+1].Table {
				targets[path.Nodes[i].Table] = true
			}
		}
	}
	deleted := 0
	for _, name := range slices.Sorted(maps.Keys(targets)) {
		tbl := d.Table(name)
		for j, k := range tableKeys(tbl) {
			if j%5 == 0 && tbl.Delete(k) {
				deleted++
			}
		}
	}
	// set makes a live row hold v in column c: by an update, or by
	// inserting a changed copy when c is a primary-key column. Each call
	// picks a different row of those the table held before the first.
	picked, keys := 0, map[string][]value.Key{}
	set := func(tbl *db.Table, c string, v value.Value) {
		if keys[tbl.Meta().Name] == nil {
			keys[tbl.Meta().Name] = tableKeys(tbl)
		}
		k := keys[tbl.Meta().Name][picked%len(keys[tbl.Meta().Name])]
		picked++
		if !slices.Contains(tbl.Meta().PrimaryKey, c) {
			if err := tbl.Update(k, []string{c}, []value.Value{v}); err != nil {
				t.Fatal(err)
			}
			return
		}
		row, _ := tbl.Get(k)
		row = row.Clone()
		row[tbl.Meta().ColumnIndex(c)] = v
		if _, err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	// nulled and dangled mark the columns set so far, as (table, column).
	type column struct{ table, col string }
	nulled, dangled := map[column]bool{}, map[column]bool{}
	var lookups, leaveKey, nullKeys, nulls, dangling int
	for _, path := range paths {
		tbl := d.Table(path.SourceTable())
		pk := tbl.Meta().PrimaryKey
		if path.Len() > 1 && path.Nodes[1].Table == tbl.Meta().Name && slices.Equal(path.Nodes[0].Columns, pk) {
			leaveKey++
			if !nulled[column{tbl.Meta().Name, pk[0]}] && tbl.Len() > 0 {
				nulled[column{tbl.Meta().Name, pk[0]}] = true
				set(tbl, pk[0], value.NewNull())
				nullKeys++
			}
		}
		_, cols, ok := firstLookup(d, path)
		if !ok {
			continue
		}
		lookups++
		for _, c := range cols {
			if tbl.Len() == 0 {
				break
			}
			if col := (column{tbl.Meta().Name, c}); !nulled[col] {
				nulled[col] = true
				set(tbl, c, value.NewNull())
				nulls++
			}
			v := danglingValue(tbl.Meta().Columns[tbl.Meta().ColumnIndex(c)].Type)
			if col := (column{tbl.Meta().Name, c}); !dangled[col] && !v.IsNull() {
				dangled[col] = true
				set(tbl, c, v)
				dangling++
			}
		}
	}
	if lookups > 0 && (nulls == 0 || dangling == 0) || leaveKey > 0 && nullKeys == 0 {
		t.Fatalf("%d paths probe a key and %d leave the source's: set %d foreign keys NULL, %d dangling and %d primary keys NULL",
			lookups, leaveKey, nulls, dangling, nullKeys)
	}
	return fmt.Sprintf("%d rows deleted, %d foreign keys set NULL and %d dangling, %d primary keys set NULL",
		deleted, nulls, dangling, nullKeys)
}

// danglingValue returns a value of a column type that no row of any
// benchmark holds, or NULL for a type it has none for.
func danglingValue(typ schema.Type) value.Value {
	switch typ.Kind() {
	case value.Int:
		return value.NewInt(-1 << 40)
	case value.Str:
		return value.NewString("no such row")
	}
	return value.NewNull()
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
