package repl

import (
	"context"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/transport"
)

// promotion is what one failover produced: the member adopted as primary
// and the watermark (chain records) its copy held — everything beyond it
// died with the old primary.
type promotion struct {
	Member    int
	Watermark int64
	Epoch     int
}

// detector is one group's failure detector: a lease renewed by driver
// heartbeats, and on lapse a promotion protocol — watermark-query the
// group's backup members, adopt the most-caught-up live one (ties to the
// lowest member id), and tell it so. It reports exactly once and exits;
// the driver respawns a fresh detector (with the bumped epoch) after
// adopting the winner, so repeated crashes of one group each get their
// own lease.
//
// Like twopc.Standby, the lease deadline is absolute: only a heartbeat
// from the driver renews it, and any other frame merely consumes what is
// left of the window.
type detector struct {
	id         int
	ep         transport.Transport
	driverID   int
	candidates []int // flat endpoint ids of the group's backup members
	epoch      int   // group epoch at spawn; promotion installs epoch+1
	lease      time.Duration
	wire       faults.RetryPolicy
	ackWait    time.Duration
	report     chan promotion
}

func newDetector(id int, ep transport.Transport, driverID int, candidates []int, epoch int, lease time.Duration, wire faults.RetryPolicy, ackWait time.Duration) *detector {
	return &detector{
		id:         id,
		ep:         ep,
		driverID:   driverID,
		candidates: append([]int(nil), candidates...),
		epoch:      epoch,
		lease:      lease,
		wire:       wire,
		ackWait:    ackWait,
		report:     make(chan promotion, 1),
	}
}

// done delivers the promotion once the lease lapsed and a winner accepted.
func (dt *detector) done() <-chan promotion { return dt.report }

// run watches heartbeats until the lease lapses, then promotes. A context
// cancellation before expiry returns without a promotion (the primary
// outlived the run).
func (dt *detector) run(ctx context.Context) {
	deadline := time.Now().Add(dt.lease)
	for {
		rctx, cancel := context.WithDeadline(ctx, deadline)
		m, err := dt.ep.Recv(rctx)
		cancel()
		if err == nil {
			if m.Type == MsgReplHeartbeat && m.From == dt.driverID {
				deadline = time.Now().Add(dt.lease)
			}
			continue
		}
		if ctx.Err() != nil {
			return
		}
		cPromotions.Inc()
		dt.report <- dt.promote(ctx)
		return
	}
}

// promote runs the promotion protocol. Watermark and promote frames are
// chaos-exempt, so a live member answers promptly and a silent one is
// dead — the retries only paper over scheduling, not loss.
func (dt *detector) promote(ctx context.Context) promotion {
	winner, watermark := -1, int64(-1)
	for _, cand := range dt.candidates {
		if w, ok := dt.watermarkOf(ctx, cand); ok {
			if w > watermark {
				winner, watermark = cand, w
			}
		}
	}
	next := dt.epoch + 1
	if winner < 0 {
		// Every backup is dead too: the group is lost until recovery. The
		// zero-member promotion is reported so the driver can fail the
		// group loudly instead of hanging.
		return promotion{Member: -1, Watermark: 0, Epoch: next}
	}
	dt.deliver(ctx, winner, MsgPromote, encodeSeq(next, watermark), MsgPromoteAck)
	return promotion{Member: winner, Watermark: watermark, Epoch: next}
}

// watermarkOf queries one candidate's durable watermark.
func (dt *detector) watermarkOf(ctx context.Context, cand int) (int64, bool) {
	for attempt := 1; attempt <= dt.wire.MaxAttempts; attempt++ {
		_ = dt.ep.Send(ctx, transport.Msg{
			Type: MsgWatermarkQuery, From: dt.id, To: cand, Attempt: attempt,
		})
		deadline := time.Now().Add(cluster.ReplyWindow(dt.wire, dt.ackWait, attempt))
		for {
			m, ok := dt.recvBy(ctx, deadline)
			if !ok {
				break
			}
			if m.Type != MsgWatermarkResp || m.From != cand {
				continue
			}
			_, w, err := decodeSeq(m.Payload)
			if err != nil {
				return 0, false
			}
			return w, true
		}
		if ctx.Err() != nil {
			return 0, false
		}
	}
	return 0, false
}

// deliver ships one control frame until the expected ack arrives
// (must-deliver: 4× the wire attempt budget, the same bound twopc uses
// for decisions).
func (dt *detector) deliver(ctx context.Context, to int, typ uint8, payload []byte, ackType uint8) bool {
	for attempt := 1; attempt <= 4*dt.wire.MaxAttempts; attempt++ {
		_ = dt.ep.Send(ctx, transport.Msg{
			Type: typ, From: dt.id, To: to, Attempt: attempt, Payload: payload,
		})
		deadline := time.Now().Add(cluster.ReplyWindow(dt.wire, dt.ackWait, attempt))
		for {
			m, ok := dt.recvBy(ctx, deadline)
			if !ok {
				break
			}
			if m.Type == ackType && m.From == to {
				return true
			}
		}
		if ctx.Err() != nil {
			return false
		}
	}
	return false
}

func (dt *detector) recvBy(ctx context.Context, deadline time.Time) (transport.Msg, bool) {
	rctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	m, err := dt.ep.Recv(rctx)
	return m, err == nil
}
