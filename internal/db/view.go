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
// A View's methods are safe for concurrent use by any number of
// goroutines until Close. They must be given tables, and navigators
// compiled, from the viewed database. A nil *View reads as the Table
// and Nav methods do, locking per call.
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

// Close ends the view; the last open view's Close unlocks the tables.
// Close is idempotent.
func (v *View) Close() {
	if v == nil || v.closed.Swap(true) {
		return
	}
	d := v.d
	d.viewMu.Lock()
	if d.views--; d.views == 0 {
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
	return n.fromRow(row, v == nil)
}

// FromKey is Nav.FromKey inside the view.
func (v *View) FromKey(n *Nav, k value.Key) (value.Value, bool) {
	return n.fromKey(k, v == nil)
}
