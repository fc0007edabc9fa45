package twopc

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	cPrepares       = obs.Default.Counter("twopc.prepares")
	cVotesNo        = obs.Default.Counter("twopc.votes_no")
	cDecisions      = obs.Default.Counter("twopc.decisions_applied")
	cStatusQueries  = obs.Default.Counter("twopc.status_queries")
	cPresumedAborts = obs.Default.Counter("twopc.presumed_aborts")
	cFailovers      = obs.Default.Counter("twopc.failovers")
)

// ParticipantConfig shapes one partition server's timeout behavior.
type ParticipantConfig struct {
	// DecisionTimeout is how long a prepared transaction may sit
	// undecided before the participant starts the termination protocol
	// (status queries against the PREPARE-embedded coordinator).
	// Default 3s — far above a healthy round trip, so termination only
	// fires when the coordinator is actually gone.
	DecisionTimeout time.Duration
	// QueryRetry paces the termination protocol's status queries:
	// MaxAttempts bounds them, BackoffAt spaces them (capped
	// exponential). Defaults per faults.RetryPolicy with a 200ms base.
	QueryRetry faults.RetryPolicy
	// CheckpointEvery is the commit cadence between CHECKPOINT records
	// (default 64); checkpoints are skipped while in doubt.
	CheckpointEvery int
}

func (c ParticipantConfig) withDefaults() ParticipantConfig {
	if c.DecisionTimeout <= 0 {
		c.DecisionTimeout = 3 * time.Second
	}
	if c.QueryRetry.MaxAttempts <= 0 {
		c.QueryRetry.MaxAttempts = 8
	}
	if c.QueryRetry.BaseBackoffSec <= 0 {
		c.QueryRetry.BaseBackoffSec = 0.2
	}
	if c.QueryRetry.MaxBackoffSec <= 0 {
		c.QueryRetry.MaxBackoffSec = 2.0
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 64
	}
	return c
}

// inDoubtEntry is one prepared-undecided transaction a participant
// holds, with its termination-protocol schedule.
type inDoubtEntry struct {
	coord     int
	ops       []db.Op
	nextQuery time.Time
	attempts  int
}

// Participant is one partition server: a store, a WAL, and a
// single-goroutine message loop (Serve) speaking the twopc protocol.
// While it holds an in-doubt transaction it refuses new writes
// (VoteNo/ReasonBlocked) and suppresses checkpoints; once the decision
// wait exceeds DecisionTimeout it runs the termination protocol, and an
// explicit "no decision logged" answer resolves it by presumed abort.
type Participant struct {
	id  int
	sc  *schema.Schema
	ep  transport.Transport
	cfg ParticipantConfig

	store *db.DB
	log   *wal.Log

	decisions    map[uint64]bool
	inDoubt      map[uint64]*inDoubtEntry
	inDoubtOrder []uint64
	commitsSince int

	crashArm atomic.Int64 // faults.PhaseCode of the armed crash, 0 when disarmed
	crashed  atomic.Bool

	// Post-run accounting, read only after Serve returns.
	checkpoints    int
	walBytes       int64
	presumedAborts int
}

// NewParticipant creates partition id's server over dir's WAL.
func NewParticipant(id int, sc *schema.Schema, dir string, ep transport.Transport, cfg ParticipantConfig) (*Participant, error) {
	log, err := wal.Create(wal.PartitionLogPath(dir, id))
	if err != nil {
		return nil, err
	}
	return &Participant{
		id:        id,
		sc:        sc,
		ep:        ep,
		cfg:       cfg.withDefaults(),
		store:     db.New(sc),
		log:       log,
		decisions: map[uint64]bool{},
		inDoubt:   map[uint64]*inDoubtEntry{},
	}, nil
}

// ID returns the partition id.
func (p *Participant) ID() int { return p.id }

// ArmCrash schedules a scripted crash: the participant dies on the next
// message the phase targets (before-prepare on a PREPARE, before-commit
// and after-decision on a commit decision), leaving exactly the WAL
// shape the in-process engine produces: a torn PREPARE, a torn COMMIT
// decision, or a durable decision nobody heard. An empty phase disarms.
// Safe to call concurrently with Serve.
func (p *Participant) ArmCrash(phase string) { p.crashArm.Store(faults.PhaseCode(phase)) }

// disarm reports whether the participant was armed with phase, and
// clears the arm if so.
func (p *Participant) disarm(phase string) bool {
	return p.crashArm.CompareAndSwap(faults.PhaseCode(phase), 0)
}

// Crashed reports whether a scripted crash fired.
func (p *Participant) Crashed() bool { return p.crashed.Load() }

// Checkpoints returns the checkpoint count (read after Serve returns).
func (p *Participant) Checkpoints() int { return p.checkpoints }

// WALBytes returns the durable log length, 0 for a crashed participant
// (mirroring the in-process engine, which only totals live logs).
func (p *Participant) WALBytes() int64 {
	if p.crashed.Load() {
		return 0
	}
	return p.walBytes
}

// PresumedAborts counts in-doubt transactions this participant resolved
// via the presumed-abort termination protocol (read after Serve).
func (p *Participant) PresumedAborts() int { return p.presumedAborts }

// InDoubt returns the in-doubt pairs still held, in prepare order (read
// after Serve returns).
func (p *Participant) InDoubt() []inDoubtPair { return p.scanPairs() }

// Serve runs the message loop until the context ends, the endpoint
// closes, or a scripted crash fires. It owns all participant state; no
// locking is needed beyond the crash-arm atomics.
func (p *Participant) Serve(ctx context.Context) error {
	defer func() {
		p.walBytes = p.log.Bytes()
		if !p.crashed.Load() {
			// End-of-run full-cluster crash: the log is closed as-is, the
			// in-memory store is lost, recovery replays the file.
			p.log.Close()
		}
	}()
	for {
		rctx, cancel := p.recvCtx(ctx)
		m, err := p.ep.Recv(rctx)
		if cancel != nil {
			cancel()
		}
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, transport.ErrClosed) {
				return nil
			}
			// Termination-protocol wakeup: query coordinators of overdue
			// in-doubt transactions.
			p.terminate(ctx)
			continue
		}
		done, err := p.handle(ctx, m)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// recvCtx bounds the next Recv by the earliest termination-protocol
// deadline, when one is pending.
func (p *Participant) recvCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	var min time.Time
	for _, e := range p.inDoubt {
		if e.attempts >= p.cfg.QueryRetry.MaxAttempts {
			continue // budget exhausted: stay blocked, recovery resolves
		}
		if min.IsZero() || e.nextQuery.Before(min) {
			min = e.nextQuery
		}
	}
	if min.IsZero() {
		return ctx, nil
	}
	return context.WithDeadline(ctx, min)
}

// reply ships one response frame back to the message's sender.
func (p *Participant) reply(ctx context.Context, m transport.Msg, typ uint8, payload []byte) {
	_ = p.ep.Send(ctx, transport.Msg{
		Type: typ, From: p.id, To: m.From, Txn: m.Txn, Attempt: m.Attempt, Payload: payload,
	})
}

// crash realizes a scripted death: the endpoint closes (future frames to
// this node vanish) and Serve unwinds. The WAL file keeps whatever was
// appended — including a torn tail.
func (p *Participant) crash() {
	p.crashed.Store(true)
	p.log.Close()
	p.ep.Close()
}

// handle processes one message; done reports a scripted crash.
func (p *Participant) handle(ctx context.Context, m transport.Msg) (done bool, err error) {
	switch m.Type {
	case MsgPrepare:
		return p.handlePrepare(ctx, m)
	case MsgCommitLocal:
		return false, p.handleCommitLocal(ctx, m)
	case MsgDecideCommit:
		return p.handleDecideCommit(ctx, m)
	case MsgDecideAbort:
		return false, p.handleDecideAbort(ctx, m)
	case MsgStatusQuery:
		cStatusQueries.Inc()
		decided, commit := p.decided(m.Txn)
		switch {
		case decided && commit:
			p.reply(ctx, m, MsgStatusCommit, nil)
		case decided:
			p.reply(ctx, m, MsgStatusAbort, nil)
		default:
			p.reply(ctx, m, MsgStatusUnknown, nil)
		}
	case MsgStatusCommit:
		return false, p.resolveInDoubt(m.Txn, true, false)
	case MsgStatusAbort:
		return false, p.resolveInDoubt(m.Txn, false, false)
	case MsgStatusUnknown:
		// The coordinator partition is alive and has no decision logged:
		// presumed abort, the termination protocol's whole point.
		return false, p.resolveInDoubt(m.Txn, false, true)
	case MsgScan:
		p.reply(ctx, m, MsgScanResp, encodeScanResp(p.scanPairs()))
	}
	return false, nil
}

func (p *Participant) decided(txn uint64) (decided, commit bool) {
	c, ok := p.decisions[txn]
	return ok, c
}

func (p *Participant) handlePrepare(ctx context.Context, m transport.Msg) (bool, error) {
	if p.inDoubt[m.Txn] != nil {
		// Retransmitted prepare for a transaction already staged: re-vote,
		// don't restage.
		p.reply(ctx, m, MsgVoteYes, nil)
		return false, nil
	}
	if decided, commit := p.decided(m.Txn); decided {
		// A spike-delayed prepare can arrive after the round was decided
		// (the driver ignores the stale vote either way).
		if commit {
			p.reply(ctx, m, MsgVoteYes, nil)
		} else {
			p.reply(ctx, m, MsgVoteNo, nil)
		}
		return false, nil
	}
	if len(p.inDoubt) > 0 {
		cVotesNo.Inc()
		p.reply(ctx, m, MsgVoteNo, []byte{ReasonBlocked})
		return false, nil
	}
	coord, ops, err := decodePrepare(m.Payload)
	if err != nil {
		cVotesNo.Inc()
		p.reply(ctx, m, MsgVoteNo, []byte{ReasonBlocked})
		return false, nil
	}
	if p.disarm(faults.PhaseBeforePrepare) {
		// Die mid-append of the PREPARE record: staged writes and a torn
		// tail, no vote — the coordinator's vote timeout aborts the round.
		if err := p.log.AppendTxn(m.Txn, ops, 0, nil); err != nil {
			return false, err
		}
		if err := p.log.AppendTorn(wal.RecPrepare, m.Txn, cluster.CoordPayload(coord), 3); err != nil {
			return false, err
		}
		p.crash()
		return true, nil
	}
	if err := p.log.AppendTxn(m.Txn, ops, wal.RecPrepare, cluster.CoordPayload(coord)); err != nil {
		return false, err
	}
	cPrepares.Inc()
	p.inDoubt[m.Txn] = &inDoubtEntry{
		coord:     coord,
		ops:       ops,
		nextQuery: time.Now().Add(p.cfg.DecisionTimeout),
	}
	p.inDoubtOrder = append(p.inDoubtOrder, m.Txn)
	p.reply(ctx, m, MsgVoteYes, nil)
	return false, nil
}

func (p *Participant) handleCommitLocal(ctx context.Context, m transport.Msg) error {
	if len(p.inDoubt) > 0 {
		cVotesNo.Inc()
		p.reply(ctx, m, MsgVoteNo, []byte{ReasonBlocked})
		return nil
	}
	if done, _ := p.decided(m.Txn); done {
		// Retransmission of an already-applied local commit: re-ack.
		p.reply(ctx, m, MsgAckLocal, nil)
		return nil
	}
	ops, err := decodeCommitLocal(m.Payload)
	if err != nil {
		cVotesNo.Inc()
		p.reply(ctx, m, MsgVoteNo, []byte{ReasonBlocked})
		return nil
	}
	if err := p.log.AppendTxn(m.Txn, ops, wal.RecCommit, nil); err != nil {
		return err
	}
	p.decisions[m.Txn] = true
	if err := p.apply(ops); err != nil {
		return err
	}
	p.reply(ctx, m, MsgAckLocal, nil)
	return nil
}

func (p *Participant) handleDecideCommit(ctx context.Context, m transport.Msg) (bool, error) {
	switch {
	case p.disarm(faults.PhaseBeforeCommit):
		// Die mid-append of the decision: the COMMIT record is torn, so
		// recovery finds no decision — presumed abort.
		if err := p.log.AppendTorn(wal.RecCommit, m.Txn, nil, 5); err != nil {
			return false, err
		}
		p.crash()
		return true, nil
	case p.disarm(faults.PhaseAfterDecision):
		// Die right after the decision is durable: nobody hears it, but
		// the transaction IS committed — resolution replays it.
		if err := p.log.Append(wal.RecCommit, m.Txn, nil); err != nil {
			return false, err
		}
		p.crash()
		return true, nil
	}
	if decided, _ := p.decided(m.Txn); !decided {
		if err := p.log.Append(wal.RecCommit, m.Txn, nil); err != nil {
			return false, err
		}
		p.decisions[m.Txn] = true
		cDecisions.Inc()
		if e := p.inDoubt[m.Txn]; e != nil {
			if err := p.apply(e.ops); err != nil {
				return false, err
			}
			p.dropInDoubt(m.Txn)
		}
	}
	p.reply(ctx, m, MsgAck, nil)
	return false, nil
}

func (p *Participant) handleDecideAbort(ctx context.Context, m transport.Msg) error {
	if decided, _ := p.decided(m.Txn); !decided {
		if err := p.log.Append(wal.RecAbort, m.Txn, nil); err != nil {
			return err
		}
		p.decisions[m.Txn] = false
		cDecisions.Inc()
		p.dropInDoubt(m.Txn) // staged writes discarded: no observable effects
	}
	p.reply(ctx, m, MsgAck, nil)
	return nil
}

// resolveInDoubt finishes an in-doubt transaction from a status answer
// (or the presumed-abort rule when the answer is "unknown").
func (p *Participant) resolveInDoubt(txn uint64, commit, presumed bool) error {
	e := p.inDoubt[txn]
	if e == nil {
		return nil // stale answer; already resolved
	}
	if commit {
		if err := p.log.Append(wal.RecCommit, txn, nil); err != nil {
			return err
		}
		p.decisions[txn] = true
		if err := p.apply(e.ops); err != nil {
			return err
		}
	} else {
		if err := p.log.Append(wal.RecAbort, txn, nil); err != nil {
			return err
		}
		p.decisions[txn] = false
		if presumed {
			p.presumedAborts++
			cPresumedAborts.Inc()
		}
	}
	p.dropInDoubt(txn)
	return nil
}

// terminate runs the termination protocol for overdue in-doubt
// transactions: a status query to the PREPARE-embedded coordinator,
// paced by the capped-exponential QueryRetry policy.
func (p *Participant) terminate(ctx context.Context) {
	now := time.Now()
	for _, txn := range p.inDoubtOrder {
		e := p.inDoubt[txn]
		if e == nil || now.Before(e.nextQuery) || e.attempts >= p.cfg.QueryRetry.MaxAttempts {
			continue
		}
		e.attempts++
		_ = p.ep.Send(ctx, transport.Msg{
			Type: MsgStatusQuery, From: p.id, To: e.coord, Txn: txn, Attempt: e.attempts,
		})
		wait := p.cfg.QueryRetry.BackoffAt(e.attempts)
		e.nextQuery = now.Add(time.Duration(wait * float64(time.Second)))
	}
}

func (p *Participant) dropInDoubt(txn uint64) {
	delete(p.inDoubt, txn)
	for i, id := range p.inDoubtOrder {
		if id == txn {
			p.inDoubtOrder = append(p.inDoubtOrder[:i], p.inDoubtOrder[i+1:]...)
			break
		}
	}
}

func (p *Participant) scanPairs() []inDoubtPair {
	pairs := make([]inDoubtPair, 0, len(p.inDoubt))
	for _, txn := range p.inDoubtOrder {
		if e := p.inDoubt[txn]; e != nil {
			pairs = append(pairs, inDoubtPair{Txn: txn, Coord: e.coord})
		}
	}
	return pairs
}

// apply commits ops on the store atomically and advances the checkpoint
// cadence.
func (p *Participant) apply(ops []db.Op) error {
	if err := p.store.CommitOps(ops); err != nil {
		return err
	}
	p.commitsSince++
	return p.maybeCheckpoint()
}

// maybeCheckpoint snapshots the store when the cadence is due; never
// while in doubt (a snapshot must not bury a pending PREPARE).
func (p *Participant) maybeCheckpoint() error {
	if p.commitsSince < p.cfg.CheckpointEvery || len(p.inDoubt) > 0 {
		return nil
	}
	if err := wal.WriteCheckpoint(p.log, p.store); err != nil {
		return err
	}
	p.commitsSince = 0
	p.checkpoints++
	return nil
}
