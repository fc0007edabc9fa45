package twopc

import (
	"context"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/faults"
	"repro/internal/transport"
)

// driverConfig shapes the coordinator's wire behavior.
type driverConfig struct {
	// wire caps prepare broadcasts (MaxAttempts) and paces every
	// retransmission (BackoffAt: capped exponential).
	wire faults.RetryPolicy
	// voteWait / ackWait are the per-attempt reply windows. They only
	// matter when a frame was actually dropped or a peer died — on a
	// healthy exchange the reply arrives immediately.
	voteWait time.Duration
	ackWait  time.Duration
}

func (c driverConfig) withDefaults() driverConfig {
	c.wire = c.wire.WithDefaults()
	if c.wire.BaseBackoffSec == 0.010 { // faults default is tuned for txn retries
		c.wire.BaseBackoffSec = 0.020
		c.wire.MaxBackoffSec = 0.200
	}
	if c.voteWait <= 0 {
		c.voteWait = 25 * time.Millisecond
	}
	if c.ackWait <= 0 {
		c.ackWait = 25 * time.Millisecond
	}
	return c
}

// driver is the 2PC coordinator process: it owns one endpoint and runs
// one transaction round at a time. Every send bumps a monotonic attempt
// counter, so a retransmission is a distinct frame that the chaos layer
// resamples — the per-round retransmission count is a pure function of
// the seed.
type driver struct {
	id  int
	ep  transport.Transport
	cfg driverConfig
	seq int
}

func newDriver(id int, ep transport.Transport, cfg driverConfig) *driver {
	return &driver{id: id, ep: ep, cfg: cfg.withDefaults()}
}

// roundOutcome is what one 2PC round left behind.
type roundOutcome struct {
	committed bool
	blocked   bool // a participant refused with ReasonBlocked
	// noAck: the commit decision was never acknowledged by the
	// coordinator partition. With loss-exempt acks this means either the
	// decision never arrived (safe to presume abort) or the partition
	// crashed while handling it (the harness knows which crash it armed).
	noAck bool
	// yes lists participants that voted yes, ascending.
	yes []int
	// unresolved lists participants left holding an in-doubt
	// transaction: prepared, but dead (or unreachable) before a decision
	// was acknowledged.
	unresolved []int
}

// send ships one frame, bumping the attempt counter.
func (d *driver) send(ctx context.Context, to int, typ uint8, txn uint64, payload []byte) {
	d.seq++
	_ = d.ep.Send(ctx, transport.Msg{
		Type: typ, From: d.id, To: to, Txn: txn, Attempt: d.seq, Payload: payload,
	})
}

// recvBy waits for the next frame until the deadline.
func (d *driver) recvBy(ctx context.Context, deadline time.Time) (transport.Msg, bool) {
	rctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	m, err := d.ep.Recv(rctx)
	return m, err == nil
}

// waitFor is the reply window for attempt number n: the base window
// stretched by the capped-exponential wire policy.
func (d *driver) waitFor(base time.Duration, attempt int) time.Duration {
	w := time.Duration(d.cfg.wire.BackoffAt(attempt) * float64(time.Second))
	if w < base {
		w = base
	}
	return w
}

// gatherVotes broadcasts MsgPrepare to parts and collects votes,
// retransmitting to silent participants with bumped attempts. It fails
// as soon as any participant votes no or a pending participant is dead.
func (d *driver) gatherVotes(ctx context.Context, txn uint64, coord int, parts []int, ops map[int][]db.Op, dead func(int) bool) (yes []int, blocked, ok bool) {
	pending := make(map[int]bool, len(parts))
	for _, pt := range parts {
		pending[pt] = true
	}
	for attempt := 1; attempt <= d.cfg.wire.MaxAttempts; attempt++ {
		for _, pt := range parts {
			if pending[pt] && !dead(pt) {
				d.send(ctx, pt, MsgPrepare, txn, encodePrepare(coord, ops[pt]))
			}
		}
		deadline := time.Now().Add(d.waitFor(d.cfg.voteWait, attempt))
		for len(pending) > 0 {
			m, got := d.recvBy(ctx, deadline)
			if !got {
				break
			}
			if m.Txn != txn || !pending[m.From] {
				continue // stale frame from an earlier round or duplicate
			}
			switch m.Type {
			case MsgVoteYes:
				delete(pending, m.From)
				yes = append(yes, m.From)
			case MsgVoteNo:
				if len(m.Payload) > 0 && m.Payload[0] == ReasonBlocked {
					blocked = true
				}
				sort.Ints(yes)
				return yes, blocked, false
			}
		}
		if len(pending) == 0 {
			sort.Ints(yes)
			return yes, blocked, true
		}
		for pt := range pending {
			if dead(pt) {
				// A pending participant died mid-round (scripted crash):
				// its vote is never coming.
				sort.Ints(yes)
				return yes, blocked, false
			}
		}
	}
	sort.Ints(yes)
	return yes, blocked, false
}

// decide ships one decision and waits for its ack, retransmitting with
// capped-exponential spacing. maxAttempts <= 0 means "must deliver":
// the cap stretches to 4× the wire policy — a live peer under
// hash-sampled loss is unreachable for that long with vanishing (and
// still deterministic) probability, while a silently-dead peer bounds
// the coordinator's stall instead of hanging it forever.
func (d *driver) decide(ctx context.Context, txn uint64, typ uint8, to int, dead func(int) bool, maxAttempts int) bool {
	if maxAttempts <= 0 {
		maxAttempts = 4 * d.cfg.wire.MaxAttempts
	}
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if dead(to) || ctx.Err() != nil {
			return false
		}
		d.send(ctx, to, typ, txn, nil)
		deadline := time.Now().Add(d.waitFor(d.cfg.ackWait, attempt))
		for {
			m, got := d.recvBy(ctx, deadline)
			if !got {
				break
			}
			if m.Type == MsgAck && m.Txn == txn && m.From == to {
				return true
			}
		}
	}
	return false
}

// round2PC runs one distributed transaction: prepare/vote over every
// write participant, then the decision — to the coordinator partition
// first (that append is the durability point), then the rest.
func (d *driver) round2PC(ctx context.Context, txn uint64, coord int, parts []int, ops map[int][]db.Op, dead func(int) bool) roundOutcome {
	yes, blocked, allYes := d.gatherVotes(ctx, txn, coord, parts, ops, dead)
	if !allYes {
		// Reliable abort fan-out: the decision record goes to the
		// coordinator partition and every write participant (prepared or
		// not — a participant whose VoteYes was lost is still prepared).
		d.fanOut(ctx, txn, MsgDecideAbort, coord, parts, dead)
		return roundOutcome{blocked: blocked, yes: yes, unresolved: deadOf(yes, dead)}
	}
	if !d.decide(ctx, txn, MsgDecideCommit, coord, dead, d.cfg.wire.MaxAttempts) {
		if dead(coord) {
			// The partition crashed handling the decision; the harness
			// disambiguates (torn vs durable) via the crash it armed.
			// Everyone prepared stays in doubt for the standby / recovery.
			return roundOutcome{noAck: true, yes: yes, unresolved: yes}
		}
		// The coordinator partition is alive but every decision frame was
		// lost. Acks are loss-exempt, so no ack means the decision never
		// arrived — nothing is durable and aborting is safe.
		d.fanOut(ctx, txn, MsgDecideAbort, coord, parts, dead)
		return roundOutcome{yes: yes, unresolved: deadOf(yes, dead)}
	}
	for _, pt := range parts {
		if pt != coord {
			d.decide(ctx, txn, MsgDecideCommit, pt, dead, 0)
		}
	}
	return roundOutcome{committed: true, yes: yes, unresolved: deadOf(yes, dead)}
}

// fanOut ships a decision to the coordinator partition and every write
// participant at must-deliver persistence; a target that stays silent
// past that is left for the termination protocol or the standby.
func (d *driver) fanOut(ctx context.Context, txn uint64, typ uint8, coord int, parts []int, dead func(int) bool) {
	if !cluster.Has(parts, coord) {
		d.decide(ctx, txn, typ, coord, dead, 0)
	}
	for _, pt := range parts {
		d.decide(ctx, txn, typ, pt, dead, 0)
	}
}

// commitLocal runs the single-partition fast path.
func (d *driver) commitLocal(ctx context.Context, txn uint64, part int, ops []db.Op) bool {
	for attempt := 1; attempt <= d.cfg.wire.MaxAttempts; attempt++ {
		d.send(ctx, part, MsgCommitLocal, txn, encodeCommitLocal(ops))
		deadline := time.Now().Add(d.waitFor(d.cfg.ackWait, attempt))
		for {
			m, got := d.recvBy(ctx, deadline)
			if !got {
				break
			}
			if m.Txn != txn || m.From != part {
				continue
			}
			switch m.Type {
			case MsgAckLocal:
				return true
			case MsgVoteNo:
				return false
			}
		}
	}
	return false
}

func deadOf(parts []int, dead func(int) bool) []int {
	var out []int
	for _, pt := range parts {
		if dead(pt) {
			out = append(out, pt)
		}
	}
	return out
}
