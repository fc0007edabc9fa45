package serve

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/wal"
)

// executor owns the per-partition stores and (optionally) write-ahead
// logs a serving run commits into. It is the durable replay's commit
// path without the crash scripting: single-partition transactions take
// BEGIN/WRITE*/COMMIT on one log, distributed ones a full logged 2PC
// (prepare on every write participant, coordinator decision, commits,
// apply). With an empty WALDir the stores run memory-only — the load
// tests use that; the experiment tables run WAL-backed.
type executor struct {
	k      int
	stores []*db.DB
	logs   []*wal.Log

	rec      *obs.Recorder
	curTrace uint64
	curVT    float64
	nextTxn  uint64
}

func newExecutor(sc *schema.Schema, k int, dir string, rec *obs.Recorder) (*executor, error) {
	e := &executor{
		k:      k,
		stores: make([]*db.DB, k),
		logs:   make([]*wal.Log, k),
		rec:    rec,
	}
	for p := 0; p < k; p++ {
		e.stores[p] = db.New(sc)
	}
	if dir == "" {
		return e, nil
	}
	if err := wal.RemoveLogs(dir); err != nil {
		return nil, err
	}
	for p := 0; p < k; p++ {
		l, err := wal.Create(wal.PartitionLogPath(dir, p))
		if err != nil {
			e.closeAll()
			return nil, err
		}
		e.logs[p] = l
		if rec != nil {
			p := p
			l.SetObserver(func(typ wal.RecType, _ uint64, frameBytes int) {
				e.rec.Record(e.curTrace, obs.EvWALAppend, p, 0, e.curVT,
					int64(frameBytes)<<8|int64(typ))
			})
		}
	}
	return e, nil
}

func (e *executor) closeAll() {
	for p, l := range e.logs {
		if l != nil {
			l.Close()
			e.logs[p] = nil
		}
	}
}

func (e *executor) walBytes() int64 {
	var n int64
	for _, l := range e.logs {
		if l != nil {
			n += l.Bytes()
		}
	}
	return n
}

// appendTxn appends one transaction's BEGIN, WRITE and tail records on
// partition p in one write (no-op when memory-only).
func (e *executor) appendTxn(p int, txn uint64, ops []db.Op, tail wal.RecType, tailPayload []byte) error {
	if e.logs[p] == nil {
		return nil
	}
	return e.logs[p].AppendTxn(txn, ops, tail, tailPayload)
}

func (e *executor) append(p int, typ wal.RecType, txn uint64, payload []byte) error {
	if e.logs[p] == nil {
		return nil
	}
	return e.logs[p].Append(typ, txn, payload)
}

// commit executes one transaction's write effects for real: local
// commit on a single write partition, logged 2PC across several. The
// flight-recorder context (traceID, vt) stamps the WAL events.
func (e *executor) commit(traceID uint64, vt float64, parts []int, opsAt map[int][]db.Op, coord int) error {
	if len(parts) == 0 {
		return nil // read-only: nothing durable to do
	}
	e.curTrace, e.curVT = traceID, vt
	e.nextTxn++
	txn := e.nextTxn
	if len(parts) == 1 {
		p := parts[0]
		if err := e.appendTxn(p, txn, opsAt[p], wal.RecCommit, nil); err != nil {
			return err
		}
		return e.stores[p].CommitOps(opsAt[p])
	}
	if coord < 0 || !hasWritePart(parts, coord) {
		coord = parts[0]
	}
	payload := binary.AppendUvarint(nil, uint64(coord))
	for _, p := range parts {
		if err := e.appendTxn(p, txn, opsAt[p], wal.RecPrepare, payload); err != nil {
			return err
		}
		e.rec.Record(traceID, obs.EvPrepare, p, 0, vt, 0)
	}
	if err := e.append(coord, wal.RecCommit, txn, nil); err != nil {
		return err
	}
	for _, p := range parts {
		if p != coord {
			if err := e.append(p, wal.RecCommit, txn, nil); err != nil {
				return err
			}
		}
		if err := e.stores[p].CommitOps(opsAt[p]); err != nil {
			return err
		}
	}
	return nil
}

func hasWritePart(parts []int, n int) bool {
	for _, p := range parts {
		if p == n {
			return true
		}
	}
	return false
}

// stateDigest folds the per-table digests of every partition store into
// one hex token: two same-seed runs must land byte-identical state, and
// this pins it in the report without dumping whole tables.
func (e *executor) stateDigest() string {
	digests := wal.CombineDigests(e.stores)
	names := make([]string, 0, len(digests))
	for name := range digests {
		names = append(names, name)
	}
	sort.Strings(names)
	var h uint64 = 1469598103934665603 // FNV-64a offset basis
	for _, name := range names {
		for i := 0; i < len(name); i++ {
			h = (h ^ uint64(name[i])) * 1099511628211
		}
		d := digests[name]
		for i := 0; i < 8; i++ {
			h = (h ^ (d >> (8 * i) & 0xff)) * 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h)
}

// writeEffects routes a transaction's writes to owning partitions as
// touch ops, mirroring the durable replay's rule: placed keys go to
// their partition, replicated-table writes fan out to every partition,
// unplaceable keys execute at the coordinator. The returned list is
// sorted.
func writeEffects(a *eval.Assigner, t *trace.Txn, k, coord int) ([]int, map[int][]db.Op) {
	opsAt := map[int][]db.Op{}
	add := func(p int, acc trace.Access) {
		opsAt[p] = append(opsAt[p], db.Op{Kind: db.OpTouch, Table: acc.Table, Key: acc.Key})
	}
	for _, acc := range t.Accesses {
		if !acc.Write {
			continue
		}
		p, ok := a.PlaceKey(acc)
		switch {
		case !ok:
			add(coord, acc)
		case p == partition.Replicated:
			for n := 0; n < k; n++ {
				add(n, acc)
			}
		default:
			add(p, acc)
		}
	}
	parts := make([]int, 0, len(opsAt))
	for p := range opsAt {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	return parts, opsAt
}
