package db

import (
	"iter"
	"sync/atomic"

	"repro/internal/value"
)

// View is a read view of a database, and the only way to read rows by
// slot or walk a join path: while one is open, every table is
// read-locked, so the View's methods read rows and walk join paths
// without taking a lock per probe. A bulk reader opens one View around
// its own loop.
//
// Views are counted per DB. The first View read-locks every table once,
// in schema order; a View opened while another is open, on the same
// goroutine or any other, takes no lock; the Close that ends the last
// open View unlocks them. A writer (Insert, Update, Delete, Touch, a
// commit) waits until then. Code inside a View must not call a locking
// Table method (Get, GetAny, KeyAt, Len, LookupRows, ...) on
// a table of the viewed database: once a writer is queued on that table,
// its read lock waits behind the writer, which waits for the View — a
// deadlock.
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
// compiled, from the viewed database.
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
	if v.closed.Swap(true) {
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

// Resolve returns the row whose primary key is k, with one probe: the
// live row and its slot, or the last deleted version with slot -1. ok is
// false when k has neither. Callers that revisit a tuple keep its slot
// and re-read the row with RowAt instead of probing the key again.
func (v *View) Resolve(t *Table, k value.Key) (slot int, row value.Tuple, ok bool) {
	return t.resolve(k)
}

// RowAt returns the live row in slot of t, or nil when the slot is free
// or out of range.
func (v *View) RowAt(t *Table, slot int) value.Tuple { return t.rowAt(slot) }

// Slots returns the number of t's row slots, live and free: every slot
// Resolve, RowAt or Rows yields is below it, so a column indexed by slot
// has this length.
func (v *View) Slots(t *Table) int { return len(t.rows) }

// Len returns the number of t's live rows.
func (v *View) Len(t *Table) int { return len(t.pk) }

// Rows returns a cursor over (slot, row) for every live row of t, in
// slot order.
func (v *View) Rows(t *Table) iter.Seq2[int, value.Tuple] {
	return func(yield func(int, value.Tuple) bool) {
		cTableScans.Inc()
		for slot, row := range t.rows {
			if row != nil && !yield(slot, row) {
				return
			}
		}
	}
}

// FromKey follows n's path from the source tuple whose primary key is k
// and returns the destination attribute's value. The boolean result is
// false when the chain dangles: the source row, or a row a hop
// references, does not exist, a hop hits a NULL foreign key, or the
// destination is NULL.
func (v *View) FromKey(n *Nav, k value.Key) (value.Value, bool) {
	_, row, _ := n.src.resolve(k)
	return n.walk(row, -1, nil)
}

// FromRow follows n's path from a row of its source table, with FromKey's
// result semantics. The row itself is the source tuple: a path leaving
// its table's primary key does not look the row up again. A nil row
// dangles, as a key with no row does in FromKey.
func (v *View) FromRow(n *Nav, row value.Tuple) (value.Value, bool) {
	return n.walk(row, -1, nil)
}

// FromSlot is FromRow from the live row in slot of n's source table;
// slot must be below the table's Slots, and a free slot dangles. It
// walks slot to slot through the hop memo of the open-view period,
// filling each hop's cell on first use (hopMemo), so the views open at
// once share one memo and a hop is probed at most once per edge and slot
// until the last of them closes. Once its cells are filled, a walk
// neither reads intermediate rows nor encodes keys; the memo columns
// cost 4 bytes per slot of each hop's from-table.
func (v *View) FromSlot(n *Nav, slot int) (value.Value, bool) {
	return n.walk(nil, slot, v.memo())
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
