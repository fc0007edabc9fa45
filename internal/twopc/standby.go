package twopc

import (
	"context"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/transport"
	"repro/internal/wal"
)

// TakeoverReport summarizes one coordinator failover: how many in-doubt
// transactions the standby resolved each way.
type TakeoverReport struct {
	ResolvedCommits int
	ResolvedAborts  int
}

// Standby is the backup coordinator. It watches the leader's heartbeats;
// when the lease lapses it scans every participant for in-doubt
// transactions, recovers each decision from the PREPARE-embedded
// coordinator partition — a live one answers a status query, a dead one
// is read from its WAL file, and no durable decision means presumed
// abort — then ships the decisions and reports. After takeover its
// endpoint becomes the new driver's.
type Standby struct {
	d      *driver
	walDir string
	parts  []int
	lease  time.Duration
	leader int
	report chan TakeoverReport
}

// NewStandby builds a standby over its own endpoint. parts are the
// partition ids to scan, walDir the directory their logs live in, and
// lease how long the leader may stay silent (cluster.LeaseTimeout in a
// run).
func NewStandby(id int, ep transport.Transport, walDir string, parts []int, lease time.Duration) *Standby {
	return &Standby{
		d:      newDriver(id, ep),
		walDir: walDir,
		parts:  append([]int(nil), parts...),
		lease:  lease,
		leader: -1,
		report: make(chan TakeoverReport, 1),
	}
}

// SetLeader pins the node id whose heartbeats renew the lease. Unset
// (negative, the default), a heartbeat from any node renews it.
func (s *Standby) SetLeader(id int) { s.leader = id }

// Done delivers the takeover report once Run has failed over.
func (s *Standby) Done() <-chan TakeoverReport { return s.report }

// Endpoint returns the standby's transport, for promotion to driver.
func (s *Standby) Endpoint() transport.Transport { return s.d.ep }

// Run watches heartbeats until the lease lapses, then takes over and
// returns. A context cancellation before expiry returns without a
// takeover (the leader outlived the run).
//
// Only a HEARTBEAT from the current leader renews the lease: the
// deadline is absolute, and every other frame merely consumes what is
// left of the window. (An earlier version restarted the lease clock on
// every received frame, so a chatty participant — retransmitting votes,
// scan replies, anything — could suppress failover indefinitely even
// with the leader long dead.)
func (s *Standby) Run(ctx context.Context) {
	deadline := time.Now().Add(s.lease)
	for {
		rctx, cancel := context.WithDeadline(ctx, deadline)
		m, err := s.d.ep.Recv(rctx)
		cancel()
		if err == nil {
			if m.Type == MsgHeartbeat && (s.leader < 0 || m.From == s.leader) {
				deadline = time.Now().Add(s.lease)
			}
			continue
		}
		if ctx.Err() != nil {
			return
		}
		// Lease expired: the leader is gone.
		cFailovers.Inc()
		s.report <- s.TakeOver(ctx)
		return
	}
}

// TakeOver runs the failover protocol and returns what it resolved.
func (s *Standby) TakeOver(ctx context.Context) TakeoverReport {
	holders := s.scan(ctx)
	// Resolve transactions in ascending id order for determinism.
	txns := make([]uint64, 0, len(holders))
	for txn := range holders {
		txns = append(txns, txn)
	}
	sort.Slice(txns, func(i, j int) bool { return txns[i] < txns[j] })

	var rep TakeoverReport
	for _, txn := range txns {
		h := holders[txn]
		commit := s.decisionFor(ctx, txn, h.coord)
		typ := uint8(MsgDecideAbort)
		if commit {
			typ = MsgDecideCommit
			rep.ResolvedCommits++
		} else {
			rep.ResolvedAborts++
		}
		for _, pt := range h.parts {
			s.d.decide(ctx, txn, typ, pt, func(int) bool { return ctx.Err() != nil }, s.d.wire.MaxAttempts)
		}
	}
	return rep
}

type holderSet struct {
	coord int
	parts []int
}

// scan asks every participant for its in-doubt pairs. A dead partition
// stays silent and is skipped — its log resolves at recovery.
func (s *Standby) scan(ctx context.Context) map[uint64]holderSet {
	holders := map[uint64]holderSet{}
	for _, pt := range s.parts {
		pairs, ok := s.scanOne(ctx, pt)
		if !ok {
			continue
		}
		for _, pr := range pairs {
			h := holders[pr.Txn]
			h.coord = pr.Coord
			h.parts = append(h.parts, pt)
			holders[pr.Txn] = h
		}
	}
	return holders
}

func (s *Standby) scanOne(ctx context.Context, pt int) ([]inDoubtPair, bool) {
	for attempt := 1; attempt <= s.d.wire.MaxAttempts; attempt++ {
		s.d.send(ctx, pt, MsgScan, 0, nil)
		if m, ok := s.d.await(ctx, cluster.ReplyWait, attempt, func(m transport.Msg) bool {
			return m.Type == MsgScanResp && m.From == pt
		}); ok {
			pairs, err := decodeScanResp(m.Payload)
			if err != nil {
				return nil, false
			}
			return pairs, true
		}
		if ctx.Err() != nil {
			return nil, false
		}
	}
	return nil, false
}

// decisionFor recovers one transaction's outcome from its coordinator
// partition: a status query if it answers, else its WAL on disk. Silence
// plus no durable COMMIT record is the presumed-abort rule — a torn
// decision tail parses as no decision.
func (s *Standby) decisionFor(ctx context.Context, txn uint64, coord int) bool {
	for attempt := 1; attempt <= 3; attempt++ {
		s.d.send(ctx, coord, MsgStatusQuery, txn, nil)
		if m, ok := s.d.await(ctx, cluster.ReplyWait, attempt, func(m transport.Msg) bool {
			return m.Txn == txn && m.From == coord &&
				(m.Type == MsgStatusCommit || m.Type == MsgStatusAbort || m.Type == MsgStatusUnknown)
		}); ok {
			return m.Type == MsgStatusCommit
		}
		if ctx.Err() != nil {
			return false
		}
	}
	// Dead coordinator partition: read its log. ParseFile tolerates a
	// torn tail and a missing file (both mean: no decision durable).
	recs, _, err := wal.ParseFile(wal.PartitionLogPath(s.walDir, coord))
	if err != nil {
		return false
	}
	for _, r := range recs {
		if r.Txn != txn {
			continue
		}
		if r.Type == wal.RecCommit {
			return true
		}
		if r.Type == wal.RecAbort {
			return false
		}
	}
	return false
}
