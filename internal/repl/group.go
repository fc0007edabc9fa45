package repl

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"unsafe"

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

// chain is one replica member's copy of its group's record chain: the
// log, the record history since base, and the member's store. A record
// is checked as it is logged — the checks that need no store: its type,
// a WRITE's op encoding (db.CheckOp, which decodes nothing) and table, a
// PREPARE's coordinator — and counts as held from then on, so a member
// acknowledges once a record is logged, as Raft followers do. The store
// (an Applier) catches up with the logged chain only when it is read:
// store applies the unapplied tail. State-dependent apply errors (a
// duplicate insert, an update of a missing row) therefore surface when a
// store is materialized, or at the end-of-run recovery, which replays
// every member log.
type chain struct {
	sc  *schema.Schema
	log *wal.Log
	app *wal.Applier

	// seq is the logged watermark: chain records ever logged and checked.
	// base is the sequence of hist's first record (nonzero after a
	// snapshot install truncated history), so seq == base+hist.n.
	seq  int64
	base int64
	hist history
	// unapplied counts the records at the tail of hist that app has not
	// applied yet.
	unapplied int
	// arena holds the payloads of records this member wrote itself (a
	// primary's appends): history outlives the caller's buffers.
	arena []byte
}

// arenaChunk is the size of a chain's payload arena chunks.
const arenaChunk = 64 << 10

// historyBlock is the number of records in one block of a chain's
// history: 4 KiB of them, one allocation size class.
const historyBlock = int(4096 / unsafe.Sizeof(wal.Record{}))

// history is a chain's records since its base, in blocks of
// historyBlock records. A block is never copied or moved once
// allocated, as in cluster.Journal's arena, so the history grows by one
// allocation per block and needs no size up front.
type history struct {
	blocks [][]wal.Record
	n      int
}

func (h *history) add(rec wal.Record) {
	if h.n == len(h.blocks)*historyBlock {
		h.blocks = append(h.blocks, make([]wal.Record, historyBlock))
	}
	h.blocks[h.n/historyBlock][h.n%historyBlock] = rec
	h.n++
}

func (h *history) at(i int) *wal.Record {
	return &h.blocks[i/historyBlock][i%historyBlock]
}

// keep copies a payload into the chain's arena and returns the copy, nil
// when empty. A full chunk is left to the records that slice it.
func (c *chain) keep(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if cap(c.arena)-len(c.arena) < len(b) {
		c.arena = make([]byte, 0, max(arenaChunk, len(b)))
	}
	start := len(c.arena)
	c.arena = append(c.arena, b...)
	return c.arena[start:len(c.arena):len(c.arena)]
}

func newChain(sc *schema.Schema, log *wal.Log) chain {
	return chain{sc: sc, log: log, app: wal.NewApplier(sc)}
}

// accept extends the chain with records its log already holds, checking
// each in order; the first failing record and those after it are not
// added.
func (c *chain) accept(recs []wal.Record) error {
	for _, rec := range recs {
		switch rec.Type {
		case wal.RecBegin, wal.RecCommit, wal.RecAbort:
		case wal.RecWrite:
			table, err := db.CheckOp(rec.Payload)
			if err != nil {
				return fmt.Errorf("%w: write record txn %d: %v", wal.ErrCorrupt, rec.Txn, err)
			}
			if c.sc.Table(string(table)) == nil {
				return fmt.Errorf("%w: write record txn %d: unknown table %q", wal.ErrCorrupt, rec.Txn, table)
			}
		case wal.RecPrepare:
			if _, w := binary.Uvarint(rec.Payload); w <= 0 {
				return fmt.Errorf("%w: prepare record txn %d: bad coordinator", wal.ErrCorrupt, rec.Txn)
			}
		default:
			// A checkpoint (or a type Apply rejects) takes effect at once,
			// over the applied backlog, as on an eagerly-applied store.
			if _, err := c.store(); err != nil {
				return err
			}
			if err := c.app.Apply(rec); err != nil {
				return err
			}
			c.hist.add(rec)
			c.seq++
			continue
		}
		c.hist.add(rec)
		c.seq++
		c.unapplied++
	}
	return nil
}

// store applies the unapplied tail and returns the member's store: the
// state RecoverFile would rebuild from the logged chain.
func (c *chain) store() (*db.DB, error) {
	for ; c.unapplied > 0; c.unapplied-- {
		if err := c.app.Apply(*c.hist.at(c.hist.n - c.unapplied)); err != nil {
			return nil, err
		}
	}
	return c.app.DB(), nil
}

// install restarts the chain at base from a snapshot, logged as a
// CHECKPOINT record. The checkpoint lives in the log only: hist.at(i)
// is chain sequence base+i, and the snapshot summarizes everything
// before base, so the unapplied backlog is dropped with the history.
func (c *chain) install(base int64, snap []byte) error {
	rec := wal.Record{Type: wal.RecCheckpoint, Payload: append([]byte(nil), snap...)}
	if err := c.log.Append(rec.Type, rec.Txn, rec.Payload); err != nil {
		return err
	}
	if err := c.app.Apply(rec); err != nil {
		return err
	}
	c.base, c.seq = base, base
	c.hist, c.unapplied = history{}, 0
	return nil
}

// primary is a group's authoritative chain, driver-local: the replay
// appends records directly (no wire on the primary path — mirroring
// twopc, where the driver is the protocol's sequencer) and ships them to
// the group's backups over the transport.
type primary struct {
	member int // which member slot holds the chain (changes on promotion)
	epoch  int

	chain

	// acked tracks each backup member's durably-acknowledged watermark.
	acked map[int]int64
	// batch is the record list of the step being appended, reused.
	batch []wal.Record
}

// append extends the chain by one record: durable log append, then the
// in-memory history the shipper reads.
func (p *primary) append(typ wal.RecType, txn uint64, payload []byte) error {
	if err := p.log.Append(typ, txn, payload); err != nil {
		return err
	}
	p.batch = append(p.batch[:0], wal.Record{Type: typ, Txn: txn, Payload: p.keep(payload)})
	return p.accept(p.batch)
}

// appendTxn extends the chain with one transaction's protocol step:
// BEGIN, one WRITE per body — the routed write bodies, logged and
// shipped as they are — and, when tail is nonzero, the PREPARE or COMMIT
// tail: one log write, then the ship history, exactly as the equivalent
// append calls would.
func (p *primary) appendTxn(txn uint64, bodies [][]byte, tail wal.RecType, tailPayload []byte) error {
	recs := append(p.batch[:0], wal.Record{Type: wal.RecBegin, Txn: txn})
	for _, b := range bodies {
		recs = append(recs, wal.Record{Type: wal.RecWrite, Txn: txn, Payload: p.keep(b)})
	}
	if tail != 0 {
		recs = append(recs, wal.Record{Type: tail, Txn: txn, Payload: p.keep(tailPayload)})
	}
	p.batch = recs
	if err := p.log.AppendBatch(recs); err != nil {
		return err
	}
	return p.accept(recs)
}

// appendTorn writes a torn record: durable only as a partial frame, so it
// is not part of the chain (recovery discards it) and neither the store
// nor the ship history sees it.
func (p *primary) appendTorn(typ wal.RecType, txn uint64, payload []byte, keep int) error {
	return p.log.AppendTorn(typ, txn, payload, keep)
}

// holds reports whether the history still reaches back to chain
// sequence from; when it does not, a member that far behind needs a
// snapshot install.
func (p *primary) holds(from int64) bool { return from >= p.base }

// shipPayload appends to dst the MsgAppend payload that ships the chain
// records in [from, p.seq), which p must hold.
func (p *primary) shipPayload(dst []byte, from int64) []byte {
	dst = appendAppendHead(dst, p.epoch, from, int(p.seq-from))
	for i := int(from - p.base); i < p.hist.n; i++ {
		dst = appendRecord(dst, p.hist.at(i))
	}
	return dst
}

// lag returns backup member m's records behind the chain head.
func (p *primary) lag(m int) int64 { return p.seq - p.acked[m] }

// Backup crash-arm codes.
const (
	armNone int32 = iota
	// armMidCatchup: die after logging only half of the next append
	// batch, without acking — the scripted backup-crash-mid-catchup
	// point. The log keeps the half-logged prefix.
	armMidCatchup
)

// backup is one replica-group member server: its own chain behind an
// endpoint, speaking the repl protocol. It is driven entirely
// by messages; all state is goroutine-local until serve exits (done
// closed), after which the driver may adopt it.
type backup struct {
	id int // flat endpoint id
	ep transport.Transport

	// chain.seq is the member's watermark: the chain records it has
	// logged, which is what it acknowledges.
	chain
	epoch int

	// batch holds the records of the MsgAppend being handled, reused:
	// accept copies them into the history.
	batch []wal.Record

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
		id:    memberID(g, m, replicas),
		ep:    ep,
		chain: newChain(sc, log),
		done:  make(chan struct{}),
	}, nil
}

// restart re-arms an exited backup for a rejoin: fresh done channel,
// crash state cleared. The chain and its watermark carry over — a
// crashed backup's durable prefix is exactly what anti-entropy resumes
// from.
func (b *backup) restart() {
	b.crashed.Store(false)
	b.crashArm.Store(armNone)
	b.promoted = false
	b.done = make(chan struct{})
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
		b.reply(ctx, m, MsgWatermarkResp, encodeSeq(b.epoch, b.seq))
	case MsgPromote:
		epoch, _, err := decodeSeq(m.Payload)
		if err != nil || epoch <= b.epoch {
			return false, nil // malformed or stale: a deposed detector's frame
		}
		b.epoch = epoch
		b.promoted = true
		b.reply(ctx, m, MsgPromoteAck, encodeSeq(b.epoch, b.seq))
		return true, nil
	}
	return false, nil
}

// handleAppend logs a ship batch: records beyond the watermark append to
// the log and the chain, then the watermark is acknowledged — the store
// applies them only when it is read. A batch holding a record the chain
// rejects stays logged as received, but gets no ack and stops the
// server.
// A batch from the future (base beyond the watermark — its predecessors
// were lost) is answered with the current watermark so the shipper
// resends from there: anti-entropy is built into the ship path.
func (b *backup) handleAppend(ctx context.Context, m transport.Msg) (bool, error) {
	epoch, base, recs, err := decodeAppendInto(b.batch[:0], m.Payload)
	b.batch = recs
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
	if base > b.seq {
		b.reply(ctx, m, MsgAppendAck, encodeSeq(b.epoch, b.seq))
		return false, nil
	}
	fresh := recs
	if skip := b.seq - base; skip > 0 {
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
	if err := b.accept(fresh); err != nil {
		return false, err
	}
	if armed {
		// Mid-catchup crash: half the batch is durable, no ack goes out.
		b.crashed.Store(true)
		return true, nil
	}
	b.reply(ctx, m, MsgAppendAck, encodeSeq(b.epoch, b.seq))
	return false, nil
}

// handleSnapshot installs a snapshot: the chain restarts at base as a
// CHECKPOINT record carrying the snapshot (the same shape a checkpointed
// log has, so recovery needs no new cases).
func (b *backup) handleSnapshot(ctx context.Context, m transport.Msg) error {
	epoch, base, snap, err := decodeSnapshot(m.Payload)
	if err != nil || epoch < b.epoch || base < b.seq {
		return nil // stale: we already hold a longer durable prefix
	}
	if err := b.install(base, snap); err != nil {
		return err
	}
	b.epoch = epoch
	b.reply(ctx, m, MsgAppendAck, encodeSeq(b.epoch, b.seq))
	return nil
}

func (b *backup) reply(ctx context.Context, m transport.Msg, typ uint8, payload []byte) {
	_ = b.ep.Send(ctx, transport.Msg{
		Type: typ, From: b.id, To: m.From, Txn: m.Txn, Attempt: m.Attempt, Payload: payload,
	})
}
