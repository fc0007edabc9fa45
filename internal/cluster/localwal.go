package cluster

import (
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/wal"
)

// LocalWAL is one in-process cluster of partition members:
// single-partition transactions commit on one member, distributed ones
// run a logged 2PC across the write participants. With an empty
// directory the members run memory-only.
type LocalWAL struct {
	Members []*Member

	// Flight-recorder context: rec is nil when tracing is off; traceID,
	// attempt and vt name the transaction currently committing so WAL
	// observers and 2PC phases can stamp their events.
	rec     *obs.Recorder
	traceID uint64
	attempt int
	vt      float64
}

// NewLocalWAL creates k members that checkpoint every `every` applied
// commits (<= 0: never). When dir is non-empty it clears dir's partition
// logs and gives each member a fresh one. With a recorder, every log
// append is recorded as an EvWALAppend event, and a checkpoint also as
// an EvCheckpoint.
func NewLocalWAL(sc *schema.Schema, k int, dir string, every int, rec *obs.Recorder) (*LocalWAL, error) {
	l := &LocalWAL{Members: make([]*Member, k), rec: rec}
	if dir != "" {
		if err := wal.RemoveLogs(dir); err != nil {
			return nil, err
		}
	}
	for p := range l.Members {
		var lg *wal.Log
		if dir != "" {
			var err error
			if lg, err = wal.Create(wal.PartitionLogPath(dir, p)); err != nil {
				l.Close()
				return nil, err
			}
			if rec != nil {
				p := p
				lg.SetObserver(func(typ wal.RecType, _ uint64, frameBytes int) {
					l.Record(obs.EvWALAppend, p, int64(frameBytes)<<8|int64(typ))
					if typ == wal.RecCheckpoint {
						l.Record(obs.EvCheckpoint, p, int64(every))
					}
				})
			}
		}
		l.Members[p] = NewMember(sc, lg, every)
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

// Close closes every member's log: the end-of-run full-cluster crash.
func (l *LocalWAL) Close() {
	for _, m := range l.Members {
		if m != nil {
			m.Close()
		}
	}
}

// WALBytes totals the log length across members that did not crash.
func (l *LocalWAL) WALBytes() int64 {
	var n int64
	for _, m := range l.Members {
		n += m.WALBytes()
	}
	return n
}

// Checkpoints totals the CHECKPOINT records written.
func (l *LocalWAL) Checkpoints() int {
	n := 0
	for _, m := range l.Members {
		n += m.Checkpoints()
	}
	return n
}

// Prepare prepares txn, coordinated by coord, on every write participant
// except skip (the first phase of 2PC). skip < 0 prepares everyone.
func (l *LocalWAL) Prepare(txn uint64, coord int, w *Writes, skip int) error {
	for i, p := range w.Parts {
		if p == skip {
			continue
		}
		if err := l.Members[p].Prepare(txn, coord, w.Of(i)); err != nil {
			return err
		}
		l.Record(obs.EvPrepare, p, 0)
	}
	return nil
}

// Decide logs the decision on the coordinator first — that append is the
// durability point, and it doubles as the coordinator's own participant
// decision — then on every other write participant, each applying its
// prepared writes on a commit. A crashed member logs nothing.
func (l *LocalWAL) Decide(txn uint64, coord int, parts []int, commit bool) error {
	if err := l.Members[coord].Decide(txn, commit); err != nil {
		return err
	}
	for _, p := range parts {
		if p == coord {
			continue
		}
		if err := l.Members[p].Decide(txn, commit); err != nil {
			return err
		}
	}
	return nil
}

// Commit2PC runs the full two-phase commit: every write participant
// prepares, then the commit decision goes out.
func (l *LocalWAL) Commit2PC(txn uint64, coord int, w *Writes) error {
	if err := l.Prepare(txn, coord, w, -1); err != nil {
		return err
	}
	return l.Decide(txn, coord, w.Parts, true)
}

// Abort2PC runs a 2PC round that reaches prepare and then aborts:
// participants prepare, then the abort decision goes out. Stores are
// untouched.
func (l *LocalWAL) Abort2PC(txn uint64, coord int, w *Writes) error {
	if err := l.Prepare(txn, coord, w, -1); err != nil {
		return err
	}
	return l.Decide(txn, coord, w.Parts, false)
}
