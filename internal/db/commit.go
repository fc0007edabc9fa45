package db

import (
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

// checkOp validates one op before anything applies: a known kind, a
// known table, insert arity and column types, update arity. Duplicate
// and missing keys surface only when the op applies.
func (d *DB) checkOp(op Op) error {
	if op.Kind < OpInsert || op.Kind > OpTouch {
		return fmt.Errorf("%w: unknown op kind %d", ErrOpDecode, uint8(op.Kind))
	}
	t := d.Table(op.Table)
	if t == nil {
		return fmt.Errorf("db: commit: unknown table %q", op.Table)
	}
	if op.Kind == OpInsert {
		if len(op.Row) != len(t.meta.Columns) {
			return fmt.Errorf("db: commit: %s: insert arity %d, want %d",
				op.Table, len(op.Row), len(t.meta.Columns))
		}
		for i, v := range op.Row {
			if v.IsNull() {
				continue
			}
			if v.Kind() != t.meta.Columns[i].Type.Kind() {
				return fmt.Errorf("db: commit: %s.%s: inserting %s into %s column",
					op.Table, t.meta.Columns[i].Name, v.Kind(), t.meta.Columns[i].Type)
			}
		}
	}
	if op.Kind == OpUpdate && len(op.Cols) != len(op.Vals) {
		return fmt.Errorf("db: commit: %s: update arity mismatch", op.Table)
	}
	return nil
}

// CommitOps applies a transaction's ops atomically — the commit path of
// WAL recovery, replica appliers and the commit engines, which hold a
// transaction's ops once it commits. Every op is first validated
// (checkOp; a failure applies nothing and counts as an abort); then the
// ops apply in order. On the first failing op the already-applied
// prefix is undone in reverse order and the error is returned; the
// database state is then identical to the pre-commit
// state (per-table Digest equality is the test contract). The ops are
// neither copied nor retained, and the undo log is the store's own,
// reused across commits: CommitOps calls on one store are serialized.
func (d *DB) CommitOps(ops []Op) error {
	if err := d.checkOps(ops); err != nil {
		return err
	}
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	return d.commitLocked(ops)
}

// CommitBodies decodes bodies — op encodings, the payloads of WAL WRITE
// records — and commits the ops as CommitOps does. This is the one
// place a commit path turns a write's encoding back into an op: table
// names come from the schema, and the decoded ops live in a buffer the
// store reuses across commits. A body that does not decode applies
// nothing and counts as an abort.
func (d *DB) CommitBodies(bodies [][]byte) error {
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	ops := d.decoded[:0]
	defer func() {
		clear(ops) // drop key and row references between commits
		d.decoded = ops[:0]
	}()
	for _, b := range bodies {
		op, err := d.DecodeOp(b)
		if err != nil {
			cTxAborts.Inc()
			return err
		}
		ops = append(ops, op)
	}
	if err := d.checkOps(ops); err != nil {
		return err
	}
	return d.commitLocked(ops)
}

// checkOps validates every op with checkOp; a failure counts as an
// abort.
func (d *DB) checkOps(ops []Op) error {
	for _, op := range ops {
		if err := d.checkOp(op); err != nil {
			cTxAborts.Inc()
			return err
		}
	}
	return nil
}

// commitLocked applies validated ops in order, undoing the applied
// prefix on the first failure; the caller holds commitMu.
func (d *DB) commitLocked(ops []Op) error {
	undos := d.undo[:0]
	defer func() {
		clear(undos) // drop row and key references between commits
		d.undo = undos[:0]
	}()
	for _, op := range ops {
		u, err := d.Table(op.Table).applyWithUndo(op)
		if err != nil {
			rollback(undos)
			return fmt.Errorf("db: commit: %w", err)
		}
		undos = append(undos, u)
	}
	cTxCommits.Inc()
	hTxCommitOps.Observe(int64(len(ops)))
	return nil
}

// undo is the inverse of one applied op, by value: the op's target and
// whatever prior state the op destroyed.
type undo struct {
	t    *Table
	kind OpKind
	// key is the op's target row: the inserted row's primary key for an
	// insert, op.Key otherwise.
	key value.Key
	// cols and prev are the updated columns and their prior values
	// (update).
	cols []string
	prev []value.Value
	// row and grave are the deleted row and the graveyard entry its
	// deletion displaced (delete).
	row, grave value.Tuple
	hadGrave   bool
}

// rollback undoes applied ops in reverse order.
func rollback(undos []undo) {
	for i := len(undos) - 1; i >= 0; i-- {
		undos[i].t.revert(&undos[i])
	}
	cTxRollbacks.Inc()
}

// applyWithUndo applies one op, of a kind checkOp accepted, and returns
// its inverse.
func (t *Table) applyWithUndo(op Op) (undo, error) {
	u := undo{t: t, kind: op.Kind, key: op.Key}
	switch op.Kind {
	case OpInsert:
		k, err := t.Insert(op.Row)
		if err != nil {
			return u, err
		}
		u.key = k
	case OpUpdate:
		prev, err := t.captureColumns(op.Key, op.Cols)
		if err != nil {
			return u, err
		}
		if err := t.Update(op.Key, op.Cols, op.Vals); err != nil {
			return u, err
		}
		u.cols, u.prev = op.Cols, prev
	case OpDelete:
		row, grave, hadGrave, ok := t.deleteCapture(op.Key)
		if !ok {
			return u, fmt.Errorf("%s: delete of missing key", t.meta.Name)
		}
		u.row, u.grave, u.hadGrave = row, grave, hadGrave
	case OpTouch:
		t.Touch(op.Key)
	}
	return u, nil
}

// revert applies the inverse recorded in u.
func (t *Table) revert(u *undo) {
	switch u.kind {
	case OpInsert:
		t.undoInsert(u.key)
	case OpUpdate:
		if err := t.Update(u.key, u.cols, u.prev); err != nil {
			panic(fmt.Sprintf("db: commit: undo update %s: %v", t.meta.Name, err))
		}
	case OpDelete:
		if _, err := t.Insert(u.row); err != nil {
			panic(fmt.Sprintf("db: commit: undo delete %s: %v", t.meta.Name, err))
		}
		t.restoreGraveyard(u.key, u.grave, u.hadGrave)
	case OpTouch:
		t.untouch(u.key)
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
