package db

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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
// one step per within-table hop, each keyed on column indexes of the
// row before it, and the destination's column index in the last row.
// Key–foreign-key hops compile away — the FK values *are* the referenced
// primary-key values, so they carry over unchanged to the next step. So
// does a leading hop out of the source table's own primary key (X_0 is
// the key, in key order): the row it locates is the source row itself,
// so the walk projects the next attribute set from that row, once the
// key is checked for NULLs (guard). View.FromRow then costs one
// primary-key probe per remaining hop and allocates nothing;
// View.FromKey costs one more probe, to find the source row. Callers that
// navigate the same tuple under many paths resolve it once
// (View.Resolve) and walk from its row, or from its slot with
// View.FromSlot, which goes through the view's hop memo (hopMemo).
//
// A Nav is immutable and safe for concurrent use. It is walked only
// inside a View of the database it was compiled against, and reads its
// tables as Table.GetAny does: live rows first, then the graveyard of
// deleted rows.
type Nav struct {
	src   *Table
	guard []int // the source's key columns, when a leading hop out of them compiled away
	hops  []navHop
	dest  int // the destination attribute's column in the last row reached
}

// navHop is one within-table hop X_i -> X_{i+1}: the values the previous
// row holds in key form the primary key of t, which locates the next
// row. edge is the hop's edge id (DB.edgeID), which names its memo
// column.
type navHop struct {
	t    *Table
	key  []int
	edge int
}

// hopEdge identifies a within-table hop independently of the path it is
// on: the table the carried values are read from, their column indexes
// there, the table whose primary key they form, and, for a first hop,
// the Nav's guard columns, whose NULL check the hop's memo cell records
// too. Column lists are in fmt.Sprint form.
type hopEdge struct {
	from, to    *Table
	cols, guard string
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
	n := &Nav{src: src}
	from := src // the table the carried values are read from
	for i := 0; i+1 < p.Len(); i++ {
		cur, next := p.Nodes[i], p.Nodes[i+1]
		if cur.Table != next.Table {
			continue
		}
		t := d.Table(cur.Table)
		if t == nil {
			return nil, fmt.Errorf("db: join path table %q unknown", cur.Table)
		}
		nextCols, err := columnIndexes(t, next)
		if err != nil {
			return nil, err
		}
		if i == 0 && slices.Equal(cur.Columns, t.meta.PrimaryKey) {
			n.guard, cols = cols, nextCols
			continue
		}
		e := hopEdge{from: from, to: t, cols: fmt.Sprint(cols)}
		if len(n.hops) == 0 {
			e.guard = fmt.Sprint(n.guard)
		}
		n.hops = append(n.hops, navHop{t: t, key: cols, edge: d.edgeID(e)})
		from, cols = t, nextCols
	}
	if len(cols) != 1 {
		return nil, fmt.Errorf("db: join path %v did not end in a single attribute", p)
	}
	n.dest = cols[0]
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

// edgeID returns e's id, numbering edges densely in the order Compile
// first meets them.
func (d *DB) edgeID(e hopEdge) int {
	d.edgeMu.Lock()
	defer d.edgeMu.Unlock()
	id, ok := d.edges[e]
	if !ok {
		id = len(d.edges)
		d.edges[e] = id
	}
	return id
}

// hopMemo memoises within-table hops for one open-view period. Each hop
// edge (hopEdge) gets a column with one cell per slot of its from-table,
// recording where the key read from that slot's row leads (and, for a
// first hop, whether the Nav's guard columns are NULL). Rows cannot
// change while a view is open, so a cell, once filled, holds until the
// Close that ends the last view drops the memo. Columns are allocated on
// first use, under mu, and published through cols; cells are read and
// written atomically, and concurrent walks that fill one cell store the
// same answer. Cell encoding:
//
//	0            unfilled
//	s+1          the key locates the live row in slot s
//	cellDangles  a key or guard column is NULL, or the key locates no row
//	cellDeleted  the key locates a deleted row, which has no slot: the
//	             walk probes for it and goes on without the memo
type hopMemo struct {
	mu   sync.Mutex
	cols atomic.Pointer[[][]atomic.Int32] // indexed by edge id; nil until allocated
}

const (
	cellDangles int32 = -1
	cellDeleted int32 = -2
)

// cell returns the memo cell of edge's hop out of slot of from,
// allocating the edge's column on its first use.
func (m *hopMemo) cell(edge int, from *Table, slot int) *atomic.Int32 {
	if cols := m.cols.Load(); cols != nil && edge < len(*cols) && (*cols)[edge] != nil {
		return &(*cols)[edge][slot]
	}
	return &m.column(edge, from)[slot]
}

// column allocates edge's column, sized by from's slots, unless another
// walk has; the caller is inside a view, so from's row store is stable.
func (m *hopMemo) column(edge int, from *Table) []atomic.Int32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var cols [][]atomic.Int32
	if p := m.cols.Load(); p != nil {
		cols = *p
	}
	if edge < len(cols) && cols[edge] != nil {
		return cols[edge]
	}
	next := make([][]atomic.Int32, max(len(cols), edge+1))
	copy(next, cols)
	next[edge] = make([]atomic.Int32, len(from.rows))
	m.cols.Store(&next)
	return next[edge]
}

// walk is the one join-path walk behind View.FromRow, View.FromKey and
// View.FromSlot; the caller holds a View. It starts from row, the source
// tuple; a nil row with a slot >= 0 starts from the live row in that
// slot, read only if a hop needs it, and a nil row without one dangles.
// While the walk is on a live slot and m is non-nil, each hop first reads
// its memo cell and fills it on a miss, so a memoised hop neither reads
// the row nor probes a key.
func (n *Nav) walk(row value.Tuple, slot int, m *hopMemo) (value.Value, bool) {
	t := n.src
	for i := range n.hops {
		h := &n.hops[i]
		var cell *atomic.Int32
		if m != nil && slot >= 0 {
			cell = m.cell(h.edge, t, slot)
			switch c := cell.Load(); {
			case c > 0:
				t, slot, row = h.t, int(c-1), nil
				continue
			case c == cellDangles:
				return value.Value{}, false
			}
		}
		if row == nil {
			if row = t.rowAt(slot); row == nil {
				fill(cell, cellDangles)
				return value.Value{}, false
			}
		}
		var guard []int
		if i == 0 {
			guard = n.guard
		}
		var ok bool
		if slot, row, ok = h.t.probe(row, guard, h.key); !ok {
			fill(cell, cellDangles)
			return value.Value{}, false
		}
		if slot >= 0 {
			fill(cell, int32(slot)+1)
		} else {
			fill(cell, cellDeleted)
		}
		t = h.t
	}
	if row == nil {
		if row = t.rowAt(slot); row == nil {
			return value.Value{}, false
		}
	}
	if len(n.hops) == 0 && hasNull(row, n.guard) {
		return value.Value{}, false
	}
	v := row[n.dest]
	return v, !v.IsNull()
}

// probe resolves the primary key that row holds in key, which is not
// found when the key or a guard column is NULL. The key is encoded into
// a stack buffer, here rather than in walk, so a walk that takes every
// hop through the memo does not clear one.
func (t *Table) probe(row value.Tuple, guard, key []int) (slot int, r value.Tuple, ok bool) {
	if hasNull(row, guard) {
		return -1, nil, false
	}
	var buf [keyBufSize]byte
	k := buf[:0]
	for _, c := range key {
		if row[c].IsNull() {
			return -1, nil, false
		}
		k = row[c].Encode(k)
	}
	return t.resolveEncoded(k)
}

// hasNull reports whether row holds a NULL in any of cols.
func hasNull(row value.Tuple, cols []int) bool {
	for _, c := range cols {
		if row[c].IsNull() {
			return true
		}
	}
	return false
}

// fill stores a hop's answer in its memo cell, when the walk has one.
func fill(cell *atomic.Int32, c int32) {
	if cell != nil {
		cell.Store(c)
	}
}
