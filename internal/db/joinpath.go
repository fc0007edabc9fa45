package db

import (
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/value"
)

// cNavsCompiled counts compiled join-path navigators. Navigations
// themselves are not counted: they are the innermost loop of the search,
// the evaluator and the router, and a shared atomic counter there would
// cost more than the navigation.
var cNavsCompiled = obs.Default.Counter("db.path_evaluators_built")

// keyBufSize is the stack buffer a navigation encodes lookup keys into.
// Keys longer than this (long string key columns) still work; they spill
// the buffer to the heap.
const keyBufSize = 128

// Nav is a join path compiled against one database: the source table,
// the column indexes of X_0 in it, and one step per within-table hop.
// Key–foreign-key hops compile away — the FK values *are* the referenced
// primary-key values, so they carry over unchanged to the next step.
// FromRow then costs one primary-key probe per within-table hop (none
// for a leading hop from the source table's own primary key) and
// allocates nothing; FromKey costs one more probe, to find the source
// row. Callers that navigate the same tuple under many paths resolve it
// once (Table.Resolve) and call FromRow.
//
// A Nav is immutable and safe for concurrent use. It reads the tables it
// was compiled against (live rows first, then the graveyard of deleted
// rows, as Table.GetAny does), so it sees later mutations of those rows.
// FromRow and FromKey take each probed table's read lock per probe;
// inside a View, navigate with View.FromRow and View.FromKey, the same
// walk without the locks.
type Nav struct {
	path schema.JoinPath
	src  *Table
	cols []int // X_0's column indexes in src
	hops []navHop
}

// navHop is one within-table hop X_i -> X_{i+1}: the values carried so
// far form the primary key of t; the row they locate projects cols. A
// nil t marks a leading hop whose X_0 is the source table's primary key
// in key order: the row it would locate is the source row itself, so the
// hop projects from that row without a lookup.
type navHop struct {
	t    *Table
	cols []int
}

// Compile resolves a join path against the database. It fails on an
// empty path, an unknown table or column, or a destination that is not
// a single attribute.
func (d *DB) Compile(p schema.JoinPath) (*Nav, error) {
	if p.Len() == 0 {
		return nil, fmt.Errorf("db: empty join path")
	}
	src := d.Table(p.SourceTable())
	if src == nil {
		return nil, fmt.Errorf("db: join path source table %q unknown", p.SourceTable())
	}
	cols, err := columnIndexes(src, p.Nodes[0])
	if err != nil {
		return nil, err
	}
	n := &Nav{path: p, src: src, cols: cols}
	for i := 0; i+1 < p.Len(); i++ {
		cur, next := p.Nodes[i], p.Nodes[i+1]
		if cur.Table != next.Table {
			continue
		}
		t := d.Table(cur.Table)
		if t == nil {
			return nil, fmt.Errorf("db: join path table %q unknown", cur.Table)
		}
		if cols, err = columnIndexes(t, next); err != nil {
			return nil, err
		}
		if i == 0 && slices.Equal(cur.Columns, t.meta.PrimaryKey) {
			t = nil
		}
		n.hops = append(n.hops, navHop{t: t, cols: cols})
	}
	if len(cols) != 1 {
		return nil, fmt.Errorf("db: join path %v did not end in a single attribute", p)
	}
	cNavsCompiled.Inc()
	return n, nil
}

func columnIndexes(t *Table, cs schema.ColumnSet) ([]int, error) {
	out := make([]int, len(cs.Columns))
	for i, c := range cs.Columns {
		if out[i] = t.meta.ColumnIndex(c); out[i] < 0 {
			return nil, fmt.Errorf("db: %s: unknown column %s in join path", cs.Table, c)
		}
	}
	return out, nil
}

// Path returns the compiled join path.
func (n *Nav) Path() schema.JoinPath { return n.path }

// FromKey follows the path from the source tuple whose primary key is k
// and returns the destination attribute's value. The boolean result is
// false when the chain dangles: the source row, or a row a hop
// references, does not exist, or a hop hits a NULL foreign key.
func (n *Nav) FromKey(k value.Key) (value.Value, bool) { return n.fromKey(k, true) }

// FromRow follows the path from a row of the source table, with
// FromKey's result semantics. The row itself is the source tuple: a path
// leaving its table's primary key does not look the row up again. A nil
// row dangles, as a key with no row does in FromKey.
func (n *Nav) FromRow(row value.Tuple) (value.Value, bool) { return n.fromRow(row, true) }

// fromKey is FromKey; lock takes each probed table's read lock per
// probe, and a View's FromKey, which holds them all, clears it.
func (n *Nav) fromKey(k value.Key, lock bool) (value.Value, bool) {
	var row value.Tuple
	if lock {
		row, _ = n.src.GetAny(k)
	} else {
		_, row, _ = n.src.resolve(k)
	}
	return n.fromRow(row, lock)
}

// fromRow is the one join-path walk behind FromRow and View.FromRow;
// lock is as in fromKey.
func (n *Nav) fromRow(row value.Tuple, lock bool) (value.Value, bool) {
	if row == nil {
		return value.Value{}, false
	}
	var buf [keyBufSize]byte
	cols := n.cols
	for _, h := range n.hops {
		key := buf[:0]
		for _, c := range cols {
			if row[c].IsNull() {
				return value.Value{}, false
			}
			if h.t != nil {
				key = row[c].Encode(key)
			}
		}
		if h.t != nil {
			var ok bool
			if row, ok = h.t.getAnyEncoded(key, lock); !ok {
				return value.Value{}, false
			}
		}
		cols = h.cols
	}
	v := row[cols[0]]
	return v, !v.IsNull()
}

// EvalPathFromRow follows a join path starting from a row of the path's
// source table and returns the destination attribute's value; see
// Nav.FromRow. It compiles the path on every call: repeated navigation
// of one path should Compile it once.
func (d *DB) EvalPathFromRow(p schema.JoinPath, row value.Tuple) (value.Value, bool, error) {
	n, err := d.Compile(p)
	if err != nil {
		return value.Value{}, false, err
	}
	v, ok := n.FromRow(row)
	return v, ok, nil
}

// EvalPath follows a join path from the tuple of the source table whose
// primary key is srcKey; see Nav.FromKey and EvalPathFromRow.
func (d *DB) EvalPath(p schema.JoinPath, srcKey value.Key) (value.Value, bool, error) {
	n, err := d.Compile(p)
	if err != nil {
		return value.Value{}, false, err
	}
	v, ok := n.FromKey(srcKey)
	return v, ok, nil
}
