package cluster

import (
	"repro/internal/db"
	"repro/internal/schema"
	"repro/internal/wal"
)

// CheckpointEvery is the default checkpoint cadence: the applied commits
// a member accumulates between CHECKPOINT records.
const CheckpointEvery = 64

// Cadence returns every, or CheckpointEvery when every is not positive.
func Cadence(every int) int {
	if every <= 0 {
		return CheckpointEvery
	}
	return every
}

// Prepared is one transaction prepared and undecided on a member.
type Prepared struct {
	Txn   uint64
	Coord int
	// Bodies are the staged write bodies, kept as given until the
	// decision.
	Bodies [][]byte
}

// Member is one partition's log and store: the participant side of
// local commit and of 2PC, shared by every engine that commits through
// per-partition logs. It owns the checkpoint cadence and the
// prepared-undecided set. A member checkpoints only when no transaction
// is prepared on it, including the one whose decision it is applying: a
// snapshot must not bury a PREPARE that recovery may still need. A
// member with a nil log is memory-only; a crashed one is memory-only
// from then on and reports no log bytes.
type Member struct {
	store *db.DB
	log   *wal.Log

	every       int // <= 0: never checkpoint
	since       int // applied commits since the last checkpoint
	checkpoints int
	prepared    []Prepared // in prepare order
}

// NewMember creates an empty store under log (nil: memory-only) that
// checkpoints every `every` applied commits; every <= 0 never does.
func NewMember(sc *schema.Schema, log *wal.Log, every int) *Member {
	return &Member{store: db.New(sc), log: log, every: every}
}

// Store returns the member's store.
func (m *Member) Store() *db.DB { return m.store }

// Checkpoints counts the CHECKPOINT records written.
func (m *Member) Checkpoints() int { return m.checkpoints }

// WALBytes returns the log length; 0 when memory-only or crashed.
func (m *Member) WALBytes() int64 {
	if m.log == nil {
		return 0
	}
	return m.log.Bytes()
}

// Close closes the log as it stands: the end-of-run full-cluster crash.
// WALBytes still reports its length.
func (m *Member) Close() {
	if m.log != nil {
		m.log.Close()
	}
}

// InDoubt reports whether a transaction is prepared and undecided here.
func (m *Member) InDoubt() bool { return len(m.prepared) > 0 }

// IsPrepared reports whether txn is prepared and undecided here.
func (m *Member) IsPrepared(txn uint64) bool { return m.find(txn) >= 0 }

// Prepared lists the prepared-undecided transactions in prepare order.
// The slice is the member's own: read it, do not keep it.
func (m *Member) Prepared() []Prepared { return m.prepared }

func (m *Member) find(txn uint64) int {
	for i := range m.prepared {
		if m.prepared[i].Txn == txn {
			return i
		}
	}
	return -1
}

// CommitLocal logs BEGIN/WRITE*/COMMIT in one write, then applies.
func (m *Member) CommitLocal(txn uint64, bodies [][]byte) error {
	if m.log != nil {
		if err := m.log.AppendTxn(txn, bodies, wal.RecCommit, nil); err != nil {
			return err
		}
	}
	return m.apply(bodies)
}

// Prepare logs txn's writes and a PREPARE naming coord in one write and
// holds txn prepared until Decide. bodies must stay valid until then.
func (m *Member) Prepare(txn uint64, coord int, bodies [][]byte) error {
	if m.log != nil {
		if err := m.log.AppendTxn(txn, bodies, wal.RecPrepare, CoordPayload(coord)); err != nil {
			return err
		}
	}
	m.prepared = append(m.prepared, Prepared{Txn: txn, Coord: coord, Bodies: bodies})
	return nil
}

// Decide logs txn's COMMIT or ABORT decision. A commit applies the
// writes txn prepared here, if any; either way txn is then undecided no
// longer. A member that prepared nothing for txn (a coordinator outside
// the write set) only logs the decision.
func (m *Member) Decide(txn uint64, commit bool) error {
	typ := wal.RecAbort
	if commit {
		typ = wal.RecCommit
	}
	if m.log != nil {
		if err := m.log.Append(typ, txn, nil); err != nil {
			return err
		}
	}
	i := m.find(txn)
	if i < 0 {
		return nil
	}
	if commit {
		if err := m.apply(m.prepared[i].Bodies); err != nil {
			return err
		}
	}
	m.prepared = append(m.prepared[:i], m.prepared[i+1:]...)
	return nil
}

// apply commits bodies on the store atomically, counts them toward the
// cadence and checkpoints when due and nothing is prepared here.
func (m *Member) apply(bodies [][]byte) error {
	if err := m.store.CommitBodies(bodies); err != nil {
		return err
	}
	m.since++
	if m.every <= 0 || m.since < m.every || m.log == nil || len(m.prepared) > 0 {
		return nil
	}
	return m.checkpoint()
}

// checkpoint writes the store's snapshot to the log.
func (m *Member) checkpoint() error {
	if err := wal.WriteCheckpoint(m.log, m.store); err != nil {
		return err
	}
	m.since = 0
	m.checkpoints++
	return nil
}

// The three 2PC crash shapes. Each leaves the log as a node that died at
// that point would, closes it, and drops the in-memory state: the member
// is memory-only from then on.

// CrashInPrepare dies mid-append of the PREPARE record: txn's staged
// writes are whole, the PREPARE frame is torn after 3 bytes.
func (m *Member) CrashInPrepare(txn uint64, coord int, bodies [][]byte) error {
	if err := m.log.AppendTxn(txn, bodies, 0, nil); err != nil {
		return err
	}
	if err := m.log.AppendTorn(wal.RecPrepare, txn, CoordPayload(coord), 3); err != nil {
		return err
	}
	m.crash()
	return nil
}

// CrashInCommit dies mid-append of the COMMIT decision: the frame is
// torn after 5 bytes, so recovery finds no decision.
func (m *Member) CrashInCommit(txn uint64) error {
	if err := m.log.AppendTorn(wal.RecCommit, txn, nil, 5); err != nil {
		return err
	}
	m.crash()
	return nil
}

// CrashAfterCommit dies right after the COMMIT decision is durable,
// before anyone hears it.
func (m *Member) CrashAfterCommit(txn uint64) error {
	if err := m.log.Append(wal.RecCommit, txn, nil); err != nil {
		return err
	}
	m.crash()
	return nil
}

func (m *Member) crash() {
	m.log.Close()
	m.log = nil
	m.prepared = nil
}
