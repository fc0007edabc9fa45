package twopc

import (
	"context"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/transport"
)

// driver is the 2PC coordinator process: it owns one endpoint and runs
// one transaction round at a time. Every send bumps a monotonic attempt
// counter, so a retransmission is a distinct frame that the chaos layer
// resamples — the per-round retransmission count is a pure function of
// the seed.
type driver struct {
	id int
	ep transport.Transport
	// wire caps prepare broadcasts (MaxAttempts) and paces every
	// retransmission (BackoffAt: capped exponential).
	wire faults.RetryPolicy
	seq  int
}

func newDriver(id int, ep transport.Transport) *driver {
	return &driver{id: id, ep: ep, wire: cluster.WireRetry}
}

// roundOutcome is what one 2PC round left behind.
type roundOutcome struct {
	committed bool
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

// window bounds one attempt's reply wait (cluster.ReplyWindow under the
// driver's wire policy) as one deadline context that every receive of
// the attempt shares.
func (d *driver) window(ctx context.Context, base time.Duration, attempt int) (context.Context, context.CancelFunc) {
	return context.WithDeadline(ctx, time.Now().Add(cluster.ReplyWindow(d.wire, base, attempt)))
}

// await waits out one attempt's reply window for the first frame match
// accepts, skipping the rest (stale or duplicate frames).
func (d *driver) await(ctx context.Context, base time.Duration, attempt int, match func(transport.Msg) bool) (transport.Msg, bool) {
	wctx, cancel := d.window(ctx, base, attempt)
	defer cancel()
	for {
		m, err := d.ep.Recv(wctx)
		if err != nil {
			return m, false
		}
		if match(m) {
			return m, true
		}
	}
}

// gatherVotes broadcasts MsgPrepare to parts and collects votes,
// retransmitting to silent participants with bumped attempts. It fails
// as soon as any participant votes no or a pending participant is dead.
func (d *driver) gatherVotes(ctx context.Context, txn uint64, coord int, w *cluster.Writes, dead func(int) bool) (yes []int, ok bool) {
	parts := w.Parts
	pending := make(map[int]bool, len(parts))
	for _, pt := range parts {
		pending[pt] = true
	}
	for attempt := 1; attempt <= d.wire.MaxAttempts; attempt++ {
		for i, pt := range parts {
			if pending[pt] && !dead(pt) {
				d.send(ctx, pt, MsgPrepare, txn, encodePrepare(coord, w.Of(i)))
			}
		}
		wctx, cancel := d.window(ctx, cluster.ReplyWait, attempt)
		for len(pending) > 0 {
			m, err := d.ep.Recv(wctx)
			if err != nil {
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
				cancel()
				sort.Ints(yes)
				return yes, false
			}
		}
		cancel()
		if len(pending) == 0 {
			sort.Ints(yes)
			return yes, true
		}
		for pt := range pending {
			if dead(pt) {
				// A pending participant died mid-round (scripted crash):
				// its vote is never coming.
				sort.Ints(yes)
				return yes, false
			}
		}
	}
	sort.Ints(yes)
	return yes, false
}

// decide ships one decision and waits for its ack, retransmitting with
// capped-exponential spacing. maxAttempts <= 0 means "must deliver":
// the cap stretches to 4× the wire policy — a live peer under
// hash-sampled loss is unreachable for that long with vanishing (and
// still deterministic) probability, while a silently-dead peer bounds
// the coordinator's stall instead of hanging it forever.
func (d *driver) decide(ctx context.Context, txn uint64, typ uint8, to int, dead func(int) bool, maxAttempts int) bool {
	if maxAttempts <= 0 {
		maxAttempts = 4 * d.wire.MaxAttempts
	}
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if dead(to) || ctx.Err() != nil {
			return false
		}
		d.send(ctx, to, typ, txn, nil)
		if _, ok := d.await(ctx, cluster.ReplyWait, attempt, func(m transport.Msg) bool {
			return m.Type == MsgAck && m.Txn == txn && m.From == to
		}); ok {
			return true
		}
	}
	return false
}

// round2PC runs one distributed transaction: prepare/vote over every
// write participant, then the decision — to the coordinator partition
// first (that append is the durability point), then the rest.
func (d *driver) round2PC(ctx context.Context, txn uint64, coord int, w *cluster.Writes, dead func(int) bool) roundOutcome {
	parts := w.Parts
	yes, allYes := d.gatherVotes(ctx, txn, coord, w, dead)
	if !allYes {
		// Reliable abort fan-out: the decision record goes to the
		// coordinator partition and every write participant (prepared or
		// not — a participant whose VoteYes was lost is still prepared).
		d.fanOut(ctx, txn, MsgDecideAbort, coord, parts, dead)
		return roundOutcome{yes: yes, unresolved: deadOf(yes, dead)}
	}
	if !d.decide(ctx, txn, MsgDecideCommit, coord, dead, d.wire.MaxAttempts) {
		if dead(coord) {
			// The partition crashed handling the decision; the harness
			// disambiguates (torn vs durable) via the crash it armed.
			// Everyone prepared stays in doubt for the standby / recovery.
			return roundOutcome{yes: yes, unresolved: yes}
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
func (d *driver) commitLocal(ctx context.Context, txn uint64, part int, bodies [][]byte) bool {
	for attempt := 1; attempt <= d.wire.MaxAttempts; attempt++ {
		d.send(ctx, part, MsgCommitLocal, txn, encodeCommitLocal(bodies))
		if m, ok := d.await(ctx, cluster.ReplyWait, attempt, func(m transport.Msg) bool {
			return m.Txn == txn && m.From == part && (m.Type == MsgAckLocal || m.Type == MsgVoteNo)
		}); ok {
			return m.Type == MsgAckLocal
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
