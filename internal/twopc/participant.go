package twopc

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
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
	// (default cluster.CheckpointEvery); see cluster.Member for when one
	// is skipped.
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
	return c
}

// termination is one in-doubt transaction's termination-protocol
// schedule.
type termination struct {
	nextQuery time.Time
	attempts  int
}

// Participant is one partition server: a cluster.Member (the partition's
// log and store, holding the prepared-undecided transactions) behind a
// single-goroutine message loop (Serve) speaking the twopc protocol.
// While it holds an in-doubt transaction it refuses new writes
// (VoteNo/ReasonBlocked); once the decision wait exceeds DecisionTimeout
// it runs the termination protocol, and an explicit "no decision logged"
// answer resolves it by presumed abort.
type Participant struct {
	id  int
	ep  transport.Transport
	cfg ParticipantConfig

	m         *cluster.Member
	decisions map[uint64]bool
	terms     map[uint64]*termination // by in-doubt txn
	local     [][]byte                // a MsgCommitLocal's bodies, reused

	// The Recv deadline context and its deadline (see recvCtx).
	deadline time.Time
	dctx     context.Context
	dcancel  context.CancelFunc

	crashArm atomic.Int64 // faults.PhaseCode of the armed crash, 0 when disarmed
	crashed  atomic.Bool
}

// NewParticipant creates partition id's server over dir's WAL.
func NewParticipant(id int, sc *schema.Schema, dir string, ep transport.Transport, cfg ParticipantConfig) (*Participant, error) {
	log, err := wal.Create(wal.PartitionLogPath(dir, id))
	if err != nil {
		return nil, err
	}
	return &Participant{
		id:        id,
		ep:        ep,
		cfg:       cfg.withDefaults(),
		m:         cluster.NewMember(sc, log, cluster.Cadence(cfg.CheckpointEvery)),
		decisions: map[uint64]bool{},
		terms:     map[uint64]*termination{},
	}, nil
}

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
func (p *Participant) Checkpoints() int { return p.m.Checkpoints() }

// WALBytes returns the durable log length, 0 for a crashed participant
// (read after Serve returns).
func (p *Participant) WALBytes() int64 { return p.m.WALBytes() }

// InDoubt returns the in-doubt pairs still held, in prepare order (read
// after Serve returns).
func (p *Participant) InDoubt() []inDoubtPair { return p.scanPairs() }

// Serve runs the message loop until the context ends, the endpoint
// closes, or a scripted crash fires. It owns all participant state; no
// locking is needed beyond the crash-arm atomics.
func (p *Participant) Serve(ctx context.Context) error {
	defer func() {
		if p.dcancel != nil {
			p.dcancel()
		}
		// End-of-run full-cluster crash: the log is closed as-is, the
		// in-memory store is lost, recovery replays the file.
		p.m.Close()
	}()
	for {
		m, err := p.ep.Recv(p.recvCtx(ctx))
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
// deadline, when one is pending. A deadline context lives until it
// expires: it is kept while its deadline is no later than the earliest
// pending one, or while none is pending — waking early only runs a
// terminate that finds nothing due. So a participant builds about one
// per DecisionTimeout, not one per prepare.
func (p *Participant) recvCtx(ctx context.Context) context.Context {
	var min time.Time
	for _, e := range p.terms {
		if e.attempts >= p.cfg.QueryRetry.MaxAttempts {
			continue // budget exhausted: stay blocked, recovery resolves
		}
		if min.IsZero() || e.nextQuery.Before(min) {
			min = e.nextQuery
		}
	}
	if p.dctx != nil && p.dctx.Err() == nil && (min.IsZero() || !min.Before(p.deadline)) {
		return p.dctx
	}
	if p.dcancel != nil {
		p.dcancel()
		p.dctx, p.dcancel = nil, nil
	}
	if min.IsZero() {
		return ctx
	}
	p.deadline = min
	p.dctx, p.dcancel = context.WithDeadline(ctx, min)
	return p.dctx
}

// reply ships one response frame back to the message's sender.
func (p *Participant) reply(ctx context.Context, m transport.Msg, typ uint8, payload []byte) {
	_ = p.ep.Send(ctx, transport.Msg{
		Type: typ, From: p.id, To: m.From, Txn: m.Txn, Attempt: m.Attempt, Payload: payload,
	})
}

// crash realizes a scripted death once the member has left its crash
// shape in the log: the endpoint closes (future frames to this node
// vanish) and Serve unwinds.
func (p *Participant) crash() (bool, error) {
	p.crashed.Store(true)
	p.ep.Close()
	return true, nil
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
	if p.m.IsPrepared(m.Txn) {
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
	if p.m.InDoubt() {
		cVotesNo.Inc()
		p.reply(ctx, m, MsgVoteNo, []byte{ReasonBlocked})
		return false, nil
	}
	coord, bodies, err := decodePrepare(m.Payload)
	if err != nil {
		cVotesNo.Inc()
		p.reply(ctx, m, MsgVoteNo, []byte{ReasonBlocked})
		return false, nil
	}
	if p.disarm(faults.PhaseBeforePrepare) {
		// Die mid-append of the PREPARE record: no vote — the
		// coordinator's vote timeout aborts the round.
		if err := p.m.CrashInPrepare(m.Txn, coord, bodies); err != nil {
			return false, err
		}
		return p.crash()
	}
	// The bodies are slices of the MsgPrepare payload, kept until the
	// decision.
	if err := p.m.Prepare(m.Txn, coord, bodies); err != nil {
		return false, err
	}
	cPrepares.Inc()
	p.terms[m.Txn] = &termination{nextQuery: time.Now().Add(p.cfg.DecisionTimeout)}
	p.reply(ctx, m, MsgVoteYes, nil)
	return false, nil
}

func (p *Participant) handleCommitLocal(ctx context.Context, m transport.Msg) error {
	if p.m.InDoubt() {
		cVotesNo.Inc()
		p.reply(ctx, m, MsgVoteNo, []byte{ReasonBlocked})
		return nil
	}
	if done, _ := p.decided(m.Txn); done {
		// Retransmission of an already-applied local commit: re-ack.
		p.reply(ctx, m, MsgAckLocal, nil)
		return nil
	}
	bodies, err := decodeCommitLocal(p.local[:0], m.Payload)
	if err != nil {
		cVotesNo.Inc()
		p.reply(ctx, m, MsgVoteNo, []byte{ReasonBlocked})
		return nil
	}
	p.local = bodies
	if err := p.m.CommitLocal(m.Txn, bodies); err != nil {
		return err
	}
	p.decisions[m.Txn] = true
	p.reply(ctx, m, MsgAckLocal, nil)
	return nil
}

func (p *Participant) handleDecideCommit(ctx context.Context, m transport.Msg) (bool, error) {
	switch {
	case p.disarm(faults.PhaseBeforeCommit):
		// Die mid-append of the decision: recovery finds no decision —
		// presumed abort.
		if err := p.m.CrashInCommit(m.Txn); err != nil {
			return false, err
		}
		return p.crash()
	case p.disarm(faults.PhaseAfterDecision):
		// Die right after the decision is durable: nobody hears it, but
		// the transaction IS committed — resolution replays it.
		if err := p.m.CrashAfterCommit(m.Txn); err != nil {
			return false, err
		}
		return p.crash()
	}
	if decided, _ := p.decided(m.Txn); !decided {
		if err := p.decide(m.Txn, true); err != nil {
			return false, err
		}
		cDecisions.Inc()
	}
	p.reply(ctx, m, MsgAck, nil)
	return false, nil
}

func (p *Participant) handleDecideAbort(ctx context.Context, m transport.Msg) error {
	if decided, _ := p.decided(m.Txn); !decided {
		// Staged writes discarded: no observable effects.
		if err := p.decide(m.Txn, false); err != nil {
			return err
		}
		cDecisions.Inc()
	}
	p.reply(ctx, m, MsgAck, nil)
	return nil
}

// resolveInDoubt finishes an in-doubt transaction from a status answer
// (or the presumed-abort rule when the answer is "unknown").
func (p *Participant) resolveInDoubt(txn uint64, commit, presumed bool) error {
	if !p.m.IsPrepared(txn) {
		return nil // stale answer; already resolved
	}
	if err := p.decide(txn, commit); err != nil {
		return err
	}
	if presumed {
		cPresumedAborts.Inc()
	}
	return nil
}

// decide logs and applies txn's decision on the member and records it.
func (p *Participant) decide(txn uint64, commit bool) error {
	if err := p.m.Decide(txn, commit); err != nil {
		return err
	}
	p.decisions[txn] = commit
	delete(p.terms, txn)
	return nil
}

// terminate runs the termination protocol for overdue in-doubt
// transactions: a status query to the PREPARE-embedded coordinator,
// paced by the capped-exponential QueryRetry policy.
func (p *Participant) terminate(ctx context.Context) {
	now := time.Now()
	for _, pr := range p.m.Prepared() {
		e := p.terms[pr.Txn]
		if now.Before(e.nextQuery) || e.attempts >= p.cfg.QueryRetry.MaxAttempts {
			continue
		}
		e.attempts++
		_ = p.ep.Send(ctx, transport.Msg{
			Type: MsgStatusQuery, From: p.id, To: pr.Coord, Txn: pr.Txn, Attempt: e.attempts,
		})
		wait := p.cfg.QueryRetry.BackoffAt(e.attempts)
		e.nextQuery = now.Add(time.Duration(wait * float64(time.Second)))
	}
}

func (p *Participant) scanPairs() []inDoubtPair {
	prepared := p.m.Prepared()
	pairs := make([]inDoubtPair, len(prepared))
	for i, pr := range prepared {
		pairs[i] = inDoubtPair{Txn: pr.Txn, Coord: pr.Coord}
	}
	return pairs
}
