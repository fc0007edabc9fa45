package db

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/value"
)

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	cTxCommits   = obs.Default.Counter("db.tx_commits")
	cTxAborts    = obs.Default.Counter("db.tx_aborts")
	cTxRollbacks = obs.Default.Counter("db.tx_rollbacks")
	hTxCommitOps = obs.Default.HDR("db.tx_commit_ops")
)

// ErrTxDone is returned by operations on a transaction that already
// committed or aborted.
var ErrTxDone = errors.New("db: transaction already finished")

// Tx is a buffered-write transaction: staged ops are invisible until
// Commit applies them all-or-nothing, and Abort discards them without any
// observable effect. Commit keeps an undo log while applying, so a
// mid-apply failure (duplicate key, missing row) rolls back the applied
// prefix and leaves the database byte-identical to its pre-commit state
// — the atomicity guarantee the durable 2PC replay and its consistency
// oracle build on.
//
// A Tx is not safe for concurrent use, and Commit is not atomic with
// respect to concurrent writers of the same tables (single-writer per
// store is the simulation's execution model; the Table locks protect
// concurrent readers).
type Tx struct {
	d    *DB
	ops  []Op
	done bool
}

// Begin starts a transaction against the database.
func (d *DB) Begin() *Tx { return &Tx{d: d} }

// stage validates the target table exists and appends the op.
func (tx *Tx) stage(op Op) error {
	if tx.done {
		return ErrTxDone
	}
	t := tx.d.Table(op.Table)
	if t == nil {
		return fmt.Errorf("db: tx: unknown table %q", op.Table)
	}
	if op.Kind == OpInsert {
		if len(op.Row) != len(t.meta.Columns) {
			return fmt.Errorf("db: tx: %s: insert arity %d, want %d",
				op.Table, len(op.Row), len(t.meta.Columns))
		}
		for i, v := range op.Row {
			if v.IsNull() {
				continue
			}
			if v.Kind() != t.meta.Columns[i].Type.Kind() {
				return fmt.Errorf("db: tx: %s.%s: staging %s into %s column",
					op.Table, t.meta.Columns[i].Name, v.Kind(), t.meta.Columns[i].Type)
			}
		}
	}
	if op.Kind == OpUpdate && len(op.Cols) != len(op.Vals) {
		return fmt.Errorf("db: tx: %s: update arity mismatch", op.Table)
	}
	tx.ops = append(tx.ops, op)
	return nil
}

// Insert stages a row insertion. Arity and column types are validated at
// staging time; duplicate keys surface at Commit.
func (tx *Tx) Insert(table string, row value.Tuple) error {
	return tx.stage(Op{Kind: OpInsert, Table: table, Row: row.Clone()})
}

// Update stages a non-key column update of the row identified by k.
func (tx *Tx) Update(table string, k value.Key, cols []string, vals []value.Value) error {
	return tx.stage(Op{Kind: OpUpdate, Table: table, Key: k,
		Cols: append([]string(nil), cols...), Vals: append([]value.Value(nil), vals...)})
}

// Delete stages the deletion of the row identified by k.
func (tx *Tx) Delete(table string, k value.Key) error {
	return tx.stage(Op{Kind: OpDelete, Table: table, Key: k})
}

// Touch stages a version bump of the tuple identified by k — the durable
// execution layer's generic "this transaction wrote this tuple" effect.
func (tx *Tx) Touch(table string, k value.Key) error {
	return tx.stage(Op{Kind: OpTouch, Table: table, Key: k})
}

// Ops returns the staged ops in staging order. The WAL layer logs them as
// WRITE records before the commit decision; callers must not mutate the
// returned slice.
func (tx *Tx) Ops() []Op { return tx.ops }

// StageOp stages a decoded op — the WAL redo path: recovery rebuilds a
// committed transaction by staging its logged WRITE ops and committing
// them atomically.
func (tx *Tx) StageOp(op Op) error {
	switch op.Kind {
	case OpInsert:
		return tx.Insert(op.Table, op.Row)
	case OpUpdate:
		return tx.Update(op.Table, op.Key, op.Cols, op.Vals)
	case OpDelete:
		return tx.Delete(op.Table, op.Key)
	case OpTouch:
		return tx.Touch(op.Table, op.Key)
	default:
		return fmt.Errorf("%w: stage unknown op kind %d", ErrOpDecode, uint8(op.Kind))
	}
}

// Pending returns the number of staged ops.
func (tx *Tx) Pending() int { return len(tx.ops) }

// Abort discards the staged ops. The database is untouched: an aborted
// transaction has no observable effect, by construction.
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	tx.done = true
	tx.ops = nil
	cTxAborts.Inc()
}

// Commit applies the staged ops in order, all-or-nothing. On the first
// failing op the already-applied prefix is undone in reverse order and the
// error is returned; the database state is then identical to the
// pre-commit state (per-table Digest equality is the test contract).
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	var undos []func()
	rollback := func() {
		for i := len(undos) - 1; i >= 0; i-- {
			undos[i]()
		}
		cTxRollbacks.Inc()
	}
	for _, op := range tx.ops {
		t := tx.d.Table(op.Table)
		if t == nil { // table validated at staging; re-check defensively
			rollback()
			return fmt.Errorf("db: tx commit: unknown table %q", op.Table)
		}
		undo, err := t.applyWithUndo(op)
		if err != nil {
			rollback()
			return fmt.Errorf("db: tx commit: %w", err)
		}
		undos = append(undos, undo)
	}
	cTxCommits.Inc()
	hTxCommitOps.Observe(int64(len(tx.ops)))
	return nil
}

// applyWithUndo applies one op and returns its inverse.
func (t *Table) applyWithUndo(op Op) (func(), error) {
	switch op.Kind {
	case OpInsert:
		k, err := t.Insert(op.Row)
		if err != nil {
			return nil, err
		}
		return func() { t.undoInsert(k) }, nil
	case OpUpdate:
		prev, err := t.captureColumns(op.Key, op.Cols)
		if err != nil {
			return nil, err
		}
		if err := t.Update(op.Key, op.Cols, op.Vals); err != nil {
			return nil, err
		}
		cols := op.Cols
		return func() {
			if err := t.Update(op.Key, cols, prev); err != nil {
				panic(fmt.Sprintf("db: tx undo update %s: %v", t.meta.Name, err))
			}
		}, nil
	case OpDelete:
		row, grave, hadGrave, ok := t.deleteCapture(op.Key)
		if !ok {
			return nil, fmt.Errorf("%s: delete of missing key", t.meta.Name)
		}
		return func() {
			if _, err := t.Insert(row); err != nil {
				panic(fmt.Sprintf("db: tx undo delete %s: %v", t.meta.Name, err))
			}
			t.restoreGraveyard(op.Key, grave, hadGrave)
		}, nil
	case OpTouch:
		t.Touch(op.Key)
		return func() { t.untouch(op.Key) }, nil
	default:
		return nil, fmt.Errorf("%s: unknown op kind %d", t.meta.Name, uint8(op.Kind))
	}
}

// undoInsert removes a freshly inserted row without leaving a graveyard
// entry: the insert never happened, so GetAny must not resolve it either.
func (t *Table) undoInsert(k value.Key) {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot, ok := t.pk[k]
	if !ok {
		return
	}
	t.indexDelete(slot, t.rows[slot])
	delete(t.pk, k)
	t.keyRemoved(k)
	t.rows[slot] = nil
	t.free = append(t.free, slot)
}

// captureColumns snapshots the named columns of the row identified by k
// (the undo image of an update).
func (t *Table) captureColumns(k value.Key, cols []string) ([]value.Value, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	slot, ok := t.pk[k]
	if !ok {
		return nil, fmt.Errorf("%s: update of missing key", t.meta.Name)
	}
	row := t.rows[slot]
	out := make([]value.Value, len(cols))
	for i, c := range cols {
		ci := t.meta.ColumnIndex(c)
		if ci < 0 {
			return nil, fmt.Errorf("%s: unknown column %s", t.meta.Name, c)
		}
		out[i] = row[ci]
	}
	return out, nil
}

// deleteCapture deletes the row identified by k, returning its prior
// contents and the graveyard entry the deletion displaced so undo can
// restore both.
func (t *Table) deleteCapture(k value.Key) (row value.Tuple, grave value.Tuple, hadGrave, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot, exists := t.pk[k]
	if !exists {
		return nil, nil, false, false
	}
	row = t.rows[slot].Clone()
	grave, hadGrave = t.graveyard[k]
	t.deleteLocked(k)
	return row, grave, hadGrave, true
}

// restoreGraveyard puts the graveyard entry for k back to its pre-delete
// state.
func (t *Table) restoreGraveyard(k value.Key, grave value.Tuple, hadGrave bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if hadGrave {
		t.graveyard[k] = grave
		return
	}
	if t.graveyard != nil {
		delete(t.graveyard, k)
	}
}
