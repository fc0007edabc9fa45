package wal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/db"
	"repro/internal/schema"
)

// Applier is the incremental form of Replay: it redoes one record at a
// time into a live store, carrying the same pending-transaction state a
// full-log replay would hold at that point. Replica group members build
// their stores through it — the record stream a primary ships is
// exactly its log, so a member's store is always what RecoverFile would
// rebuild from the record prefix it has applied. Members log and
// acknowledge records first and apply them only when the store is read,
// so the applied prefix may trail the logged one.
//
// Apply is total on structurally-valid records: a payload that does not
// decode (malformed op, bad snapshot) returns an ErrCorrupt-wrapped
// error and leaves the store untouched.
type Applier struct {
	sc      *schema.Schema
	db      *db.DB
	pending map[uint64][]db.Op
	spare   []db.Op // a decided transaction's op slice, for the next BEGIN
}

// NewApplier starts an applier over an empty store.
func NewApplier(sc *schema.Schema) *Applier {
	return &Applier{sc: sc, db: db.New(sc), pending: map[uint64][]db.Op{}}
}

// DB returns the live store (the applied-prefix state).
func (a *Applier) DB() *db.DB { return a.db }

// Reset replaces the store with a decoded snapshot and clears pending
// state — the snapshot-install path for a far-behind or rejoining
// replica.
func (a *Applier) Reset(snapshot []byte) error {
	d, err := db.DecodeSnapshot(a.sc, snapshot)
	if err != nil {
		return fmt.Errorf("%w: snapshot: %v", ErrCorrupt, err)
	}
	a.db = d
	a.pending = map[uint64][]db.Op{}
	return nil
}

// Apply redoes one record.
func (a *Applier) Apply(rec Record) error {
	switch rec.Type {
	case RecBegin:
		if _, ok := a.pending[rec.Txn]; !ok {
			a.pending[rec.Txn], a.spare = a.spare, nil
		}
	case RecWrite:
		op, err := a.db.DecodeOp(rec.Payload)
		if err != nil {
			return fmt.Errorf("%w: write record txn %d: %v", ErrCorrupt, rec.Txn, err)
		}
		a.pending[rec.Txn] = append(a.pending[rec.Txn], op)
	case RecPrepare:
		if _, w := binary.Uvarint(rec.Payload); w <= 0 {
			return fmt.Errorf("%w: prepare record txn %d: bad coordinator", ErrCorrupt, rec.Txn)
		}
		// Prepared writes stay staged until the decision arrives.
	case RecCommit:
		ops := a.pending[rec.Txn]
		if err := applyOps(a.db, ops); err != nil {
			return fmt.Errorf("%w: commit txn %d: %v", ErrCorrupt, rec.Txn, err)
		}
		a.drop(rec.Txn)
	case RecAbort:
		a.drop(rec.Txn)
	case RecCheckpoint:
		return a.Reset(rec.Payload)
	default:
		return fmt.Errorf("%w: record type %d", ErrCorrupt, uint8(rec.Type))
	}
	return nil
}

// drop forgets a decided transaction and keeps its op slice for reuse
// (CommitOps never retains the ops it applies).
func (a *Applier) drop(txn uint64) {
	ops := a.pending[txn]
	delete(a.pending, txn)
	clear(ops)
	a.spare = ops[:0]
}
