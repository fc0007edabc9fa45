package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/schema"
)

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	cRecoveries      = obs.Default.Counter("wal.recoveries")
	cInDoubtCommit   = obs.Default.Counter("wal.in_doubt_committed")
	cInDoubtAbort    = obs.Default.Counter("wal.in_doubt_aborted")
	cReplayedCommits = obs.Default.Counter("wal.replayed_commits")
)

// InDoubtTxn is a transaction a participant prepared but never saw a
// decision for — the blocking state a crash between prepare and commit
// leaves behind. Resolution consults the coordinator's log: a logged
// COMMIT decision commits it, anything else is presumed abort.
type InDoubtTxn struct {
	Txn         uint64
	Coordinator int
	Ops         []db.Op
}

// Recovery is the outcome of replaying one partition's log.
type Recovery struct {
	// DB is the rebuilt store: the latest checkpoint plus every
	// committed transaction in the clean suffix.
	DB *db.DB
	// Committed lists the transactions applied during replay, in log
	// order (checkpointed history excluded — those effects live in the
	// snapshot).
	Committed []uint64
	// Decisions records every commit/abort decision found anywhere in
	// the log — including before the checkpoint — keyed by transaction,
	// true for commit. Presumed-abort resolution of other partitions'
	// in-doubt transactions reads it.
	Decisions map[uint64]bool
	// InDoubt lists prepared-but-undecided transactions in log order.
	InDoubt []InDoubtTxn
	// Discarded counts transactions with writes begun but neither
	// prepared nor decided: presumed aborted at recovery.
	Discarded int
	// Records is the number of valid records replayed; CleanLen the byte
	// length of the valid prefix; CheckpointSeen whether replay started
	// from a checkpoint.
	Records        int
	CleanLen       int64
	CheckpointSeen bool
	// TailErr classifies how the log ended: nil for a clean boundary,
	// else ErrTornTail/ErrCorrupt (recovery proceeds on the prefix — a
	// torn tail is the expected shape of a crash, not a failure).
	TailErr error
}

// pendingTxn tracks one transaction mid-replay.
type pendingTxn struct {
	ops      []db.Op
	prepared bool
	coord    int
	order    int
}

// Replay rebuilds a partition store from parsed records. It is total on
// arbitrary record contents: structurally valid frames whose payloads do
// not decode (malformed op, bad snapshot) cut the replay at that record,
// recording the typed error in TailErr, exactly as a torn tail would.
func Replay(sc *schema.Schema, recs []Record, cleanLen int64, tailErr error) *Recovery {
	r := &Recovery{
		DB:        db.New(sc),
		Decisions: make(map[uint64]bool),
		CleanLen:  cleanLen,
		TailErr:   tailErr,
	}
	// Decisions scan the whole log, unconditionally: a coordinator may
	// have checkpointed after deciding, and a participant's in-doubt
	// transaction must still find that decision (the coordinator never
	// forgets a commit before participants acknowledge; our logs keep
	// full history).
	for _, rec := range recs {
		switch rec.Type {
		case RecCommit:
			r.Decisions[rec.Txn] = true
		case RecAbort:
			if _, committed := r.Decisions[rec.Txn]; !committed {
				r.Decisions[rec.Txn] = false
			}
		}
	}

	// State replay starts at the last checkpoint.
	start := 0
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Type == RecCheckpoint {
			snap, err := db.DecodeSnapshot(sc, recs[i].Payload)
			if err != nil {
				// A corrupt checkpoint payload cuts the log there: fall
				// back to replaying everything before it from scratch.
				r.TailErr = fmt.Errorf("%w: checkpoint: %v", ErrCorrupt, err)
				recs = recs[:i]
				continue
			}
			r.DB = snap
			r.CheckpointSeen = true
			start = i + 1
			break
		}
	}

	pending := make(map[uint64]*pendingTxn)
	// spare is a decided transaction's op slice, reused by the next
	// BEGIN: applyOps never retains the ops it applies.
	var spare []db.Op
	drop := func(txn uint64) {
		if p := pending[txn]; p != nil {
			clear(p.ops)
			spare = p.ops[:0]
			delete(pending, txn)
		}
	}
	for i := start; i < len(recs); i++ {
		rec := recs[i]
		r.Records++
		switch rec.Type {
		case RecBegin:
			pending[rec.Txn] = &pendingTxn{ops: spare, order: i}
			spare = nil
		case RecWrite:
			op, err := r.DB.DecodeOp(rec.Payload)
			if err != nil {
				r.TailErr = fmt.Errorf("%w: write record txn %d: %v", ErrCorrupt, rec.Txn, err)
				r.finish(pending)
				return r
			}
			p := pending[rec.Txn]
			if p == nil {
				p = &pendingTxn{order: i}
				pending[rec.Txn] = p
			}
			p.ops = append(p.ops, op)
		case RecPrepare:
			coord, w := binary.Uvarint(rec.Payload)
			if w <= 0 {
				r.TailErr = fmt.Errorf("%w: prepare record txn %d: bad coordinator", ErrCorrupt, rec.Txn)
				r.finish(pending)
				return r
			}
			p := pending[rec.Txn]
			if p == nil {
				p = &pendingTxn{order: i}
				pending[rec.Txn] = p
			}
			p.prepared = true
			p.coord = int(coord)
		case RecCommit:
			if p := pending[rec.Txn]; p != nil {
				if err := applyOps(r.DB, p.ops); err != nil {
					r.TailErr = fmt.Errorf("%w: commit txn %d: %v", ErrCorrupt, rec.Txn, err)
					delete(pending, rec.Txn)
					r.finish(pending)
					return r
				}
				r.Committed = append(r.Committed, rec.Txn)
				cReplayedCommits.Inc()
				drop(rec.Txn)
			}
			// A commit with no pending writes is a decision-only record
			// (coordinator log, or writes folded into the checkpoint).
		case RecAbort:
			drop(rec.Txn)
		case RecCheckpoint:
			// Only reachable when a later checkpoint failed to decode;
			// treat as a no-op (state already reflects an earlier base).
		}
	}
	r.finish(pending)
	return r
}

// finish classifies still-open transactions: prepared ones are in doubt,
// the rest are presumed aborted.
func (r *Recovery) finish(pending map[uint64]*pendingTxn) {
	type open struct {
		txn uint64
		p   *pendingTxn
	}
	var opens []open
	for txn, p := range pending {
		opens = append(opens, open{txn, p})
	}
	sort.Slice(opens, func(i, j int) bool { return opens[i].p.order < opens[j].p.order })
	for _, o := range opens {
		if _, decided := r.Decisions[o.txn]; decided && !o.p.prepared {
			continue // decided elsewhere in the log, nothing staged
		}
		if o.p.prepared {
			r.InDoubt = append(r.InDoubt, InDoubtTxn{Txn: o.txn, Coordinator: o.p.coord, Ops: o.p.ops})
		} else {
			r.Discarded++
		}
	}
}

// applyOps applies one committed transaction's ops atomically; a
// decision-only transaction (no ops) is not a store commit.
func applyOps(d *db.DB, ops []db.Op) error {
	if len(ops) == 0 {
		return nil
	}
	return d.CommitOps(ops)
}

// RecoverData replays a raw log image.
func RecoverData(sc *schema.Schema, data []byte) *Recovery {
	recs, clean, err := Parse(data)
	cRecoveries.Inc()
	return Replay(sc, recs, clean, err)
}

// RecoverFile replays a log file (a missing file is an empty log).
func RecoverFile(sc *schema.Schema, path string) (*Recovery, error) {
	recs, clean, err := ParseFile(path)
	if err != nil && !isIntegrityErr(err) {
		return nil, err // real I/O failure
	}
	cRecoveries.Inc()
	return Replay(sc, recs, clean, err), nil
}

func isIntegrityErr(err error) bool {
	return errors.Is(err, ErrTornTail) || errors.Is(err, ErrCorrupt)
}

// ClusterRecovery is the outcome of recovering every partition log in a
// directory and resolving cross-partition in-doubt transactions with the
// presumed-abort rule.
type ClusterRecovery struct {
	// Parts maps partition id to its recovery, including resolution
	// effects (resolved commits are applied to the partition DB).
	Parts map[int]*Recovery
	// InDoubtCommitted / InDoubtAborted count resolution outcomes.
	InDoubtCommitted int
	InDoubtAborted   int
	// TornTails counts partitions whose log ended in a torn or corrupt
	// tail (truncated during resolution).
	TornTails int
	// WALBytes is the total clean log length across partitions.
	WALBytes int64
}

// TableDigests combines the per-partition per-table digests into one
// deterministic digest per table: FNV-1a over the partition digests in
// ascending partition order.
func (cr *ClusterRecovery) TableDigests() map[string]uint64 {
	return CombineDigests(partsInOrder(cr.Parts))
}

func partsInOrder(parts map[int]*Recovery) []*db.DB {
	ids := make([]int, 0, len(parts))
	for id := range parts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*db.DB, 0, len(ids))
	for _, id := range ids {
		out = append(out, parts[id].DB)
	}
	return out
}

// CombineDigests folds per-partition table digests (in the given order)
// into one digest per table.
func CombineDigests(stores []*db.DB) map[string]uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	out := map[string]uint64{}
	for _, d := range stores {
		for name, dg := range d.TableDigests() {
			h, ok := out[name]
			if !ok {
				h = offset64
			}
			for s := 0; s < 64; s += 8 {
				h ^= (dg >> s) & 0xff
				h *= prime64
			}
			out[name] = h
		}
	}
	return out
}

// ScanDir recovers every partition-*.wal log in dir WITHOUT resolving
// in-doubt transactions: the read-only half of RecoverDir, which then
// resolves them.
func ScanDir(sc *schema.Schema, dir string) (*ClusterRecovery, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "partition-*.wal"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	cr := &ClusterRecovery{Parts: map[int]*Recovery{}}
	for _, path := range paths {
		var p int
		if _, err := fmt.Sscanf(filepath.Base(path), "partition-%d.wal", &p); err != nil {
			continue
		}
		rec, err := RecoverFile(sc, path)
		if err != nil {
			return nil, fmt.Errorf("wal: recover partition %d: %w", p, err)
		}
		cr.Parts[p] = rec
		cr.WALBytes += rec.CleanLen
		if rec.TailErr != nil {
			cr.TornTails++
		}
	}
	return cr, nil
}

// RecoverDir recovers every partition-*.wal log in dir: per-partition
// replay (ScanDir), then presumed-abort resolution of in-doubt
// transactions against the coordinator partitions' logged decisions.
// Resolution is durable — each affected log has its torn tail truncated
// and a COMMIT or ABORT record appended — so a second recovery of the
// same directory finds no in-doubt transactions.
func RecoverDir(sc *schema.Schema, dir string) (*ClusterRecovery, error) {
	cr, err := ScanDir(sc, dir)
	if err != nil {
		return nil, err
	}

	// Resolution pass, deterministic order: partitions ascending, then
	// in-doubt transactions in log order.
	ids := make([]int, 0, len(cr.Parts))
	for id := range cr.Parts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		rec := cr.Parts[id]
		if len(rec.InDoubt) == 0 && rec.TailErr == nil {
			continue
		}
		lg, err := OpenAt(PartitionLogPath(dir, id), rec.CleanLen)
		if err != nil {
			return nil, fmt.Errorf("wal: reopen partition %d: %w", id, err)
		}
		for _, idt := range rec.InDoubt {
			coord := cr.Parts[idt.Coordinator]
			commit := coord != nil && coord.Decisions[idt.Txn]
			if commit {
				if err := applyOps(rec.DB, idt.Ops); err != nil {
					lg.Close()
					return nil, fmt.Errorf("wal: resolve txn %d on partition %d: %w", idt.Txn, id, err)
				}
				if err := lg.Append(RecCommit, idt.Txn, nil); err != nil {
					lg.Close()
					return nil, err
				}
				rec.Committed = append(rec.Committed, idt.Txn)
				cr.InDoubtCommitted++
				cInDoubtCommit.Inc()
			} else {
				if err := lg.Append(RecAbort, idt.Txn, nil); err != nil {
					lg.Close()
					return nil, err
				}
				cr.InDoubtAborted++
				cInDoubtAbort.Inc()
			}
		}
		newLen := lg.Bytes()
		if err := lg.Close(); err != nil {
			return nil, err
		}
		rec.InDoubt = nil
		rec.CleanLen = newLen
		rec.TailErr = nil
	}
	return cr, nil
}

// WriteCheckpoint appends a CHECKPOINT record carrying the store's
// snapshot to the log. The snapshot is encoded straight into the frame,
// in a buffer the log keeps for its next checkpoint; the bytes are those
// of Append(RecCheckpoint, 0, d.EncodeSnapshot()).
func WriteCheckpoint(l *Log, d *db.DB) error {
	var start int
	l.ckpt, start = beginFrame(l.ckpt[:0], RecCheckpoint, 0)
	l.ckpt = endFrame(d.AppendSnapshot(l.ckpt), start)
	l.frames = append(l.frames[:0], frameMark{typ: RecCheckpoint, end: len(l.ckpt)})
	return l.write(l.ckpt)
}

// RemoveLogs deletes every partition log in dir (fresh-run setup).
func RemoveLogs(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "partition-*.wal"))
	if err != nil {
		return err
	}
	for _, p := range paths {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	return nil
}
