package cluster

import (
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/wal"
)

// LocalWAL is one in-process cluster's per-partition stores, each under
// its own write-ahead log: single-partition transactions take
// BEGIN/WRITE*/COMMIT on one log, distributed ones a logged 2PC across
// the write participants. With an empty directory the stores run
// memory-only and every append is a no-op.
type LocalWAL struct {
	Stores []*db.DB
	// Logs holds each partition's log; an entry is nil when memory-only
	// or closed.
	Logs []*wal.Log
	// AfterApply, when set, runs after every partition apply.
	AfterApply func(p int) error

	// Flight-recorder context: rec is nil when tracing is off; traceID,
	// attempt and vt name the transaction currently committing so WAL
	// observers and 2PC phases can stamp their events.
	rec     *obs.Recorder
	traceID uint64
	attempt int
	vt      float64
}

// NewLocalWAL creates k empty stores and, when dir is non-empty, clears
// dir's partition logs and creates a fresh one per store. With a
// recorder, every log append is recorded as an EvWALAppend event.
func NewLocalWAL(sc *schema.Schema, k int, dir string, rec *obs.Recorder) (*LocalWAL, error) {
	l := &LocalWAL{Stores: make([]*db.DB, k), Logs: make([]*wal.Log, k), rec: rec}
	for p := range l.Stores {
		l.Stores[p] = db.New(sc)
	}
	if dir == "" {
		return l, nil
	}
	if err := wal.RemoveLogs(dir); err != nil {
		return nil, err
	}
	for p := 0; p < k; p++ {
		lg, err := wal.Create(wal.PartitionLogPath(dir, p))
		if err != nil {
			l.Close()
			return nil, err
		}
		l.Logs[p] = lg
		if rec != nil {
			p := p
			lg.SetObserver(func(typ wal.RecType, _ uint64, frameBytes int) {
				l.Record(obs.EvWALAppend, p, int64(frameBytes)<<8|int64(typ))
			})
		}
	}
	return l, nil
}

// At sets the flight-recorder context of the next commit.
func (l *LocalWAL) At(traceID uint64, attempt int, vt float64) {
	l.traceID, l.attempt, l.vt = traceID, attempt, vt
}

// Record emits one flight-recorder event under the current context
// (no-op when tracing is off).
func (l *LocalWAL) Record(kind obs.EventKind, node int, arg int64) {
	l.rec.Record(l.traceID, kind, node, l.attempt, l.vt, arg)
}

// CloseLog closes partition p's log; nothing is appended to it again.
func (l *LocalWAL) CloseLog(p int) {
	if l.Logs[p] != nil {
		l.Logs[p].Close()
		l.Logs[p] = nil
	}
}

// Close closes every log: the end-of-run full-cluster crash.
func (l *LocalWAL) Close() {
	for p := range l.Logs {
		l.CloseLog(p)
	}
}

// WALBytes totals the log length across open logs.
func (l *LocalWAL) WALBytes() int64 {
	var n int64
	for _, lg := range l.Logs {
		if lg != nil {
			n += lg.Bytes()
		}
	}
	return n
}

func (l *LocalWAL) appendTxn(p int, txn uint64, ops []db.Op, tail wal.RecType, payload []byte) error {
	if l.Logs[p] == nil {
		return nil
	}
	return l.Logs[p].AppendTxn(txn, ops, tail, payload)
}

func (l *LocalWAL) append(p int, typ wal.RecType, txn uint64) error {
	if l.Logs[p] == nil {
		return nil
	}
	return l.Logs[p].Append(typ, txn, nil)
}

// apply commits ops on partition p's store atomically.
func (l *LocalWAL) apply(p int, ops []db.Op) error {
	if err := l.Stores[p].CommitOps(ops); err != nil {
		return err
	}
	if l.AfterApply != nil {
		return l.AfterApply(p)
	}
	return nil
}

// CommitLocal runs the single-partition commit path: BEGIN/WRITE*/COMMIT
// on one log in one write, then the store apply.
func (l *LocalWAL) CommitLocal(p int, txn uint64, ops []db.Op) error {
	if err := l.appendTxn(p, txn, ops, wal.RecCommit, nil); err != nil {
		return err
	}
	return l.apply(p, ops)
}

// Prepare logs txn's writes and a PREPARE naming coord on every write
// participant except skip (the first phase of 2PC). skip < 0 prepares
// everyone.
func (l *LocalWAL) Prepare(txn uint64, coord int, parts []int, opsAt map[int][]db.Op, skip int) error {
	payload := CoordPayload(coord)
	for _, p := range parts {
		if p == skip {
			continue
		}
		if err := l.appendTxn(p, txn, opsAt[p], wal.RecPrepare, payload); err != nil {
			return err
		}
		l.Record(obs.EvPrepare, p, 0)
	}
	return nil
}

// Commit2PC runs the full two-phase commit: every write participant
// prepares, the coordinator durably logs the COMMIT decision, then each
// participant commits and applies. The coordinator's decision record
// doubles as its own participant commit.
func (l *LocalWAL) Commit2PC(txn uint64, coord int, parts []int, opsAt map[int][]db.Op) error {
	if err := l.Prepare(txn, coord, parts, opsAt, -1); err != nil {
		return err
	}
	if err := l.append(coord, wal.RecCommit, txn); err != nil {
		return err
	}
	for _, p := range parts {
		if p != coord {
			if err := l.append(p, wal.RecCommit, txn); err != nil {
				return err
			}
		}
		if err := l.apply(p, opsAt[p]); err != nil {
			return err
		}
	}
	return nil
}

// Abort2PC runs a 2PC round that reaches prepare and then aborts:
// participants prepare, the coordinator logs the ABORT decision,
// participants abort. Stores are untouched.
func (l *LocalWAL) Abort2PC(txn uint64, coord int, parts []int, opsAt map[int][]db.Op) error {
	if err := l.Prepare(txn, coord, parts, opsAt, -1); err != nil {
		return err
	}
	if err := l.append(coord, wal.RecAbort, txn); err != nil {
		return err
	}
	for _, p := range parts {
		if p == coord {
			continue
		}
		if err := l.append(p, wal.RecAbort, txn); err != nil {
			return err
		}
	}
	return nil
}
