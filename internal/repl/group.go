package repl

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	cRecordsShipped  = obs.Default.Counter("repl.records_shipped")
	cAcks            = obs.Default.Counter("repl.acks_received")
	cQuorumWaits     = obs.Default.Counter("repl.quorum_waits")
	cQuorumDegraded  = obs.Default.Counter("repl.quorum_degraded")
	cPromotions      = obs.Default.Counter("repl.promotions")
	cLostCommits     = obs.Default.Counter("repl.lost_commits")
	cCatchupRecords  = obs.Default.Counter("repl.catchup_records")
	cSnapshotRejoins = obs.Default.Counter("repl.snapshot_rejoins")
	cReplicaReads    = obs.Default.Counter("repl.replica_reads")
	cStaleAvoided    = obs.Default.Counter("repl.stale_reads_avoided")
)

// MemberLogPath names member m of group g's log file inside dir. Group
// logs are separate from the partition-%03d.wal namespace so a replicated
// run and a durable run can share a directory without clobbering.
func MemberLogPath(dir string, g, m int) string {
	return filepath.Join(dir, fmt.Sprintf("group-%03d-m%d.wal", g, m))
}

// memberID flattens (group, member) to an endpoint/node id: group g's
// members occupy [g·(R+1), (g+1)·(R+1)).
func memberID(g, m, replicas int) int { return g*(replicas+1) + m }

// primary is a group's authoritative chain, driver-local: the replay
// appends records directly (no wire on the primary path — mirroring
// twopc, where the driver is the protocol's sequencer) and ships them to
// the group's backups over the transport.
type primary struct {
	group  int
	member int // which member slot holds the chain (changes on promotion)
	epoch  int

	log *wal.Log
	app *wal.Applier

	// seq counts chain records ever appended; base is the sequence of
	// records[0] (nonzero after a snapshot install truncated history).
	seq     int64
	base    int64
	records []wal.Record

	// acked tracks each backup member's durably-acknowledged watermark.
	acked map[int]int64
}

// append extends the chain: durable log append, then the applier (the
// primary's own store) and the in-memory history the shipper reads.
func (p *primary) append(typ wal.RecType, txn uint64, payload []byte) error {
	if err := p.log.Append(typ, txn, payload); err != nil {
		return err
	}
	rec := wal.Record{Type: typ, Txn: txn}
	if len(payload) > 0 {
		rec.Payload = append([]byte(nil), payload...)
	}
	if err := p.app.Apply(rec); err != nil {
		return err
	}
	p.records = append(p.records, rec)
	p.seq++
	return nil
}

// appendTxn extends the chain with one transaction's protocol step:
// BEGIN, one WRITE per op and, when tail is nonzero, the PREPARE or
// COMMIT tail — one log write, then the applier and the ship history
// record by record, exactly as the equivalent append calls would.
func (p *primary) appendTxn(txn uint64, ops []db.Op, tail wal.RecType, tailPayload []byte) error {
	recs := make([]wal.Record, 0, len(ops)+2)
	recs = append(recs, wal.Record{Type: wal.RecBegin, Txn: txn})
	// The WRITE payloads share one encode buffer. A payload slice stays
	// valid if a later op outgrows the buffer: the old backing array is
	// never written again.
	enc := make([]byte, 0, 32*len(ops))
	for _, op := range ops {
		start := len(enc)
		enc = op.Encode(enc)
		recs = append(recs, wal.Record{Type: wal.RecWrite, Txn: txn, Payload: enc[start:len(enc):len(enc)]})
	}
	if tail != 0 {
		rec := wal.Record{Type: tail, Txn: txn}
		if len(tailPayload) > 0 {
			rec.Payload = append([]byte(nil), tailPayload...)
		}
		recs = append(recs, rec)
	}
	if err := p.log.AppendBatch(recs); err != nil {
		return err
	}
	for _, rec := range recs {
		if err := p.app.Apply(rec); err != nil {
			return err
		}
	}
	p.records = append(p.records, recs...)
	p.seq += int64(len(recs))
	return nil
}

// appendTorn writes a torn record: durable only as a partial frame, so it
// is not part of the chain (recovery discards it) and neither the applier
// nor the ship history sees it.
func (p *primary) appendTorn(typ wal.RecType, txn uint64, payload []byte, keep int) error {
	return p.log.AppendTorn(typ, txn, payload, keep)
}

// since returns the chain records in [from, p.seq), or ok=false when the
// history no longer reaches back that far (a snapshot install is needed).
func (p *primary) since(from int64) ([]wal.Record, bool) {
	if from < p.base {
		return nil, false
	}
	return p.records[from-p.base:], true
}

// lag returns backup member m's records behind the chain head.
func (p *primary) lag(m int) int64 { return p.seq - p.acked[m] }

// Backup crash-arm codes.
const (
	armNone int32 = iota
	// armMidCatchup: die after applying only half of the next append
	// batch, without acking — the scripted backup-crash-mid-catchup
	// point. The log keeps the half-applied prefix.
	armMidCatchup
)

// backup is one replica-group member server: its own log and applier
// behind an endpoint, speaking the repl protocol. It is driven entirely
// by messages; all state is goroutine-local until serve exits (done
// closed), after which the driver may adopt it.
type backup struct {
	group  int
	member int
	id     int // flat endpoint id
	ep     transport.Transport
	sc     *schema.Schema

	log *wal.Log
	app *wal.Applier

	epoch   int
	base    int64 // sequence of records[0]
	applied int64 // durable watermark: chain records applied
	records []wal.Record

	crashArm atomic.Int32
	crashed  atomic.Bool
	promoted bool
	done     chan struct{}
}

// newBackup creates member m of group g over ep with a fresh log at
// MemberLogPath(dir, g, m).
func newBackup(g, m, replicas int, sc *schema.Schema, dir string, ep transport.Transport) (*backup, error) {
	log, err := wal.Create(MemberLogPath(dir, g, m))
	if err != nil {
		return nil, err
	}
	return &backup{
		group:  g,
		member: m,
		id:     memberID(g, m, replicas),
		ep:     ep,
		sc:     sc,
		log:    log,
		app:    wal.NewApplier(sc),
		done:   make(chan struct{}),
	}, nil
}

// restart re-arms an exited backup for a rejoin: fresh done channel,
// crash state cleared. The log, applier and watermark carry over — a
// crashed backup's durable prefix is exactly what anti-entropy resumes
// from.
func (b *backup) restart() {
	b.crashed.Store(false)
	b.crashArm.Store(armNone)
	b.promoted = false
	b.done = make(chan struct{})
}

// reset discards the backup's chain for a snapshot rejoin: the log file
// is recreated (dropping any divergent suffix a deposed primary wrote)
// and the applier empties until the offer arrives.
func (b *backup) reset() error {
	b.log.Close()
	log, err := wal.Create(b.log.Path())
	if err != nil {
		return err
	}
	b.log = log
	b.app = wal.NewApplier(b.sc)
	b.base, b.applied, b.records = 0, 0, nil
	return nil
}

// serve runs the backup's message loop until the context ends, the
// endpoint closes, a scripted crash fires, or a promotion adopts it. On
// a clean shutdown (the end-of-run full-cluster crash) the log closes
// as-is; a promoted backup's log stays open — it is the group's chain
// now and the driver keeps appending to it.
func (b *backup) serve(ctx context.Context) {
	defer close(b.done)
	defer func() {
		if !b.crashed.Load() && !b.promoted {
			b.log.Close()
		}
	}()
	for {
		m, err := b.ep.Recv(ctx)
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, transport.ErrClosed) {
				return
			}
			continue
		}
		exit, err := b.handle(ctx, m)
		if err != nil || exit {
			return
		}
	}
}

func (b *backup) handle(ctx context.Context, m transport.Msg) (exit bool, err error) {
	switch m.Type {
	case MsgAppend:
		return b.handleAppend(ctx, m)
	case MsgSnapshotOffer:
		return false, b.handleSnapshot(ctx, m)
	case MsgWatermarkQuery:
		b.reply(ctx, m, MsgWatermarkResp, encodeSeq(b.epoch, b.applied))
	case MsgPromote:
		epoch, _, err := decodeSeq(m.Payload)
		if err != nil || epoch <= b.epoch {
			return false, nil // malformed or stale: a deposed detector's frame
		}
		b.epoch = epoch
		b.promoted = true
		b.reply(ctx, m, MsgPromoteAck, encodeSeq(b.epoch, b.applied))
		return true, nil
	}
	return false, nil
}

// handleAppend applies a ship batch: records beyond the durable watermark
// append to the log and the store, then the watermark is acknowledged.
// A batch from the future (base beyond the watermark — its predecessors
// were lost) is answered with the current watermark so the shipper
// resends from there: anti-entropy is built into the ship path.
func (b *backup) handleAppend(ctx context.Context, m transport.Msg) (bool, error) {
	epoch, base, recs, err := decodeAppend(m.Payload)
	if err != nil || epoch < b.epoch {
		return false, nil // malformed or stale epoch: drop
	}
	if epoch > b.epoch {
		// A new primary's first ship. Every member's chain is a prefix of
		// the promoted chain (all copies were prefixes of the old chain,
		// and the winner was the longest), so adopting the epoch is safe
		// as long as the batch meets our watermark; a gap still answers
		// with the watermark below.
		b.epoch = epoch
	}
	if base > b.applied {
		b.reply(ctx, m, MsgAppendAck, encodeSeq(b.epoch, b.applied))
		return false, nil
	}
	fresh := recs
	if skip := b.applied - base; skip > 0 {
		if skip >= int64(len(recs)) {
			fresh = nil
		} else {
			fresh = recs[skip:]
		}
	}
	// Only a multi-record batch can realize the mid-batch crash; a short
	// one must leave the arm set for the next ship.
	armed := len(fresh) > 1 && b.crashArm.CompareAndSwap(armMidCatchup, armNone)
	if armed {
		fresh = fresh[:(len(fresh)+1)/2]
	}
	if err := b.log.AppendBatch(fresh); err != nil {
		return false, err
	}
	for _, rec := range fresh {
		if err := b.app.Apply(rec); err != nil {
			return false, err
		}
		b.records = append(b.records, rec)
		b.applied++
	}
	if armed {
		// Mid-catchup crash: half the batch is durable, no ack goes out.
		b.crashed.Store(true)
		return true, nil
	}
	b.reply(ctx, m, MsgAppendAck, encodeSeq(b.epoch, b.applied))
	return false, nil
}

// handleSnapshot installs a snapshot: the chain restarts at base as a
// CHECKPOINT record carrying the snapshot (the same shape a checkpointed
// log has, so recovery needs no new cases).
func (b *backup) handleSnapshot(ctx context.Context, m transport.Msg) error {
	epoch, base, snap, err := decodeSnapshot(m.Payload)
	if err != nil || epoch < b.epoch || base < b.applied {
		return nil // stale: we already hold a longer durable prefix
	}
	rec := wal.Record{Type: wal.RecCheckpoint, Payload: append([]byte(nil), snap...)}
	if err := b.log.Append(rec.Type, rec.Txn, rec.Payload); err != nil {
		return err
	}
	if err := b.app.Apply(rec); err != nil {
		return err
	}
	b.epoch = epoch
	b.base = base
	b.applied = base
	// The checkpoint lives in the log only: records[i] is chain sequence
	// base+i, and the snapshot summarizes everything before base.
	b.records = nil
	b.reply(ctx, m, MsgAppendAck, encodeSeq(b.epoch, b.applied))
	return nil
}

func (b *backup) reply(ctx context.Context, m transport.Msg, typ uint8, payload []byte) {
	_ = b.ep.Send(ctx, transport.Msg{
		Type: typ, From: b.id, To: m.From, Txn: m.Txn, Attempt: m.Attempt, Payload: payload,
	})
}
