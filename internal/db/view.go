package db

import (
	"iter"
	"sync/atomic"

	"repro/internal/value"
)

// View is a read view of a database: while one is open, every table is
// read-locked, so the View's methods read rows and walk join paths
// without taking a lock per probe. Bulk readers that would otherwise lock
// a table on every key resolve and join-path hop — the solve stages —
// read through one View each.
//
// Views are counted per DB. The first View read-locks every table once,
// in schema order; a View opened while another is open, on the same
// goroutine or any other, takes no lock; the Close that ends the last
// open View unlocks them. A writer (Insert, Update, Delete, Touch, a Tx
// commit) waits until then. Code inside a View must not call a locking
// Table method (Get, GetAny, Resolve, RowAt, Rows, Scan, Keys, KeyAt,
// Len, Slots, LookupRows, ...) or Nav.FromRow/FromKey on a table of the
// viewed database: once a writer is queued on that table, its read lock
// waits behind the writer, which waits for the View — a deadlock.
//
// The views open at one time also share a hop memo (hopMemo), which
// View.FromSlot fills: per within-table hop edge and source slot, the
// slot the hop leads to. The first FromSlot creates it, so views that
// only resolve keys and walk from rows (eval's Evaluate and PlaceTrace
// chunks, router.New) allocate none; the Close that ends the last open
// View drops it, since writers may change rows after that. Phases 2 and
// 3 of a solve walk through it.
//
// A View's methods are safe for concurrent use by any number of
// goroutines until Close. They must be given tables, and navigators
// compiled, from the viewed database. A nil *View reads as the Table
// and Nav methods do, locking per call, without a memo.
type View struct {
	d      *DB
	closed atomic.Bool
}

// View opens a read view of the database; the caller must Close it.
func (d *DB) View() *View {
	d.viewMu.Lock()
	if d.views == 0 {
		for _, t := range d.order {
			t.mu.RLock()
		}
	}
	d.views++
	d.viewMu.Unlock()
	return &View{d: d}
}

// Close ends the view; the last open view's Close drops the hop memo and
// unlocks the tables. Close is idempotent.
func (v *View) Close() {
	if v == nil || v.closed.Swap(true) {
		return
	}
	d := v.d
	d.viewMu.Lock()
	if d.views--; d.views == 0 {
		d.memo.Store(nil)
		for _, t := range d.order {
			t.mu.RUnlock()
		}
	}
	d.viewMu.Unlock()
}

// Resolve is Table.Resolve inside the view.
func (v *View) Resolve(t *Table, k value.Key) (slot int, row value.Tuple, ok bool) {
	if v == nil {
		return t.Resolve(k)
	}
	return t.resolve(k)
}

// RowAt is Table.RowAt inside the view.
func (v *View) RowAt(t *Table, slot int) value.Tuple {
	if v == nil {
		return t.RowAt(slot)
	}
	return t.rowAt(slot)
}

// Slots is Table.Slots inside the view.
func (v *View) Slots(t *Table) int {
	if v == nil {
		return t.Slots()
	}
	return len(t.rows)
}

// Len is Table.Len inside the view.
func (v *View) Len(t *Table) int {
	if v == nil {
		return t.Len()
	}
	return len(t.pk)
}

// Rows is Table.Rows inside the view: a cursor over (slot, row) for
// every live row, in slot order.
func (v *View) Rows(t *Table) iter.Seq2[int, value.Tuple] { return t.rowSeq(v == nil) }

// FromRow is Nav.FromRow inside the view.
func (v *View) FromRow(n *Nav, row value.Tuple) (value.Value, bool) {
	return n.walk(row, -1, nil, v == nil)
}

// FromSlot is View.FromRow from the live row in slot of n's source
// table; slot must be below the table's Slots, and a free slot dangles.
// It walks slot to slot
// through the hop memo of the open-view period, filling each hop's cell
// on first use (hopMemo), so the views open at once share one memo and
// a hop is probed at most once per edge and slot until the last of them
// closes. Once its cells are filled, a walk neither reads intermediate
// rows nor encodes keys; the memo columns cost 4 bytes per slot of each
// hop's from-table. A nil View walks FromRow from RowAt, without a memo.
func (v *View) FromSlot(n *Nav, slot int) (value.Value, bool) {
	if v == nil {
		return n.walk(n.src.RowAt(slot), -1, nil, true)
	}
	return n.walk(nil, slot, v.memo(), false)
}

// memo returns the hop memo of the open-view period, creating it on
// first use.
func (v *View) memo() *hopMemo {
	if m := v.d.memo.Load(); m != nil {
		return m
	}
	v.d.memo.CompareAndSwap(nil, new(hopMemo))
	return v.d.memo.Load()
}

// FromKey is Nav.FromKey inside the view.
func (v *View) FromKey(n *Nav, k value.Key) (value.Value, bool) {
	return n.fromKey(k, v == nil)
}
