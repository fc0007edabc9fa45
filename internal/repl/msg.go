// Package repl layers per-partition replica groups on the framed
// transport and the WAL: each partition's primary ships its log records
// to R backups, a configurable commit rule decides when a write is
// client-acknowledged (async: at the primary's local append; quorum: when
// ⌈(N+1)/2⌉ group members hold the commit durably), a heartbeat-leased
// failure detector promotes the most-caught-up backup when a primary
// dies, and rejoining members catch up by anti-entropy — a log-tail ship
// resuming from their durable watermark, or a snapshot install when their
// chain diverged (an old primary's unreplicated suffix is discarded,
// Raft-style).
//
// The architecture mirrors internal/twopc: primaries are driver-local
// (the replay appends to their logs directly — cross-partition
// transactions are an in-process 2PC over the group primaries), while
// backups are server goroutines reachable only through the chaos-wrapped
// transport. Everything nondeterministic rides hash-sampled frame fates
// and the virtual clock, so a (solution, trace, scenario, seed,
// transport) tuple yields byte-identical flight dumps.
//
// The message vocabulary below rides transport.Msg.Type, offset past the
// twopc range so a frame can never be misread across protocols. Payloads
// open with a uvarint group epoch — bumped on every promotion — so a
// spike-delayed frame from a deposed primary is recognizably stale.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/transport"
	"repro/internal/wal"
)

// Protocol message types (transport.Msg.Type). The twopc vocabulary owns
// 1..15; repl starts at 32 so the two protocols can share a bus in tests
// without ambiguity.
const (
	// MsgAppend ships a batch of chain records to a backup
	// (driver → backup): epoch, base sequence, records.
	MsgAppend uint8 = 32 + iota
	// MsgAppendAck acknowledges the durably logged chain through a
	// sequence (backup → driver): epoch, logged sequence. Also acknowledges a
	// snapshot install.
	MsgAppendAck
	// MsgReplHeartbeat renews a group detector's lease (driver → detector).
	MsgReplHeartbeat
	// MsgSnapshotOffer installs a snapshot at a base sequence
	// (driver → backup): epoch, base, snapshot bytes. The backup discards
	// its chain — including any divergent suffix — and restarts from the
	// snapshot.
	MsgSnapshotOffer
	// MsgWatermarkQuery asks a backup for its durable watermark
	// (detector → backup); MsgWatermarkResp answers with epoch, logged.
	MsgWatermarkQuery
	MsgWatermarkResp
	// MsgPromote tells a backup it is the group's new primary
	// (detector → backup): the new epoch. Answered by MsgPromoteAck
	// (epoch, logged), after which the backup's serve loop exits and the
	// driver adopts its chain.
	MsgPromote
	MsgPromoteAck
)

// ErrPayload wraps every payload-decode failure.
var ErrPayload = errors.New("repl: bad payload")

// exemptType lists the frames the chaos layer never drops: the entire
// control plane — leases, watermarks, promotion, snapshot installs, and
// acks. Acks are exempt so silence provably means "the append never
// arrived" (the ship resends from the acked watermark); promotion frames
// are exempt so a failover is an availability event, not a lottery. Only
// MsgAppend — the data plane — is exposed to loss and spikes.
func exemptType(m transport.Msg) bool {
	return m.Type != MsgAppend
}

// appendAppendHead appends the head of a MsgAppend payload: the epoch,
// the chain sequence of the first record and the record count;
// appendRecord appends each record after it. The ship path
// (primary.shipPayload) encodes into one buffer it reuses across ships,
// which rests on transport.Transport's contract that Send does not
// retain a payload.
func appendAppendHead(dst []byte, epoch int, base int64, n int) []byte {
	dst = binary.AppendUvarint(dst, uint64(epoch))
	dst = binary.AppendUvarint(dst, uint64(base))
	return binary.AppendUvarint(dst, uint64(n))
}

// appendRecord appends one length-prefixed record of a MsgAppend
// payload.
func appendRecord(dst []byte, r *wal.Record) []byte {
	dst = append(dst, byte(r.Type))
	dst = binary.AppendUvarint(dst, r.Txn)
	dst = binary.AppendUvarint(dst, uint64(len(r.Payload)))
	return append(dst, r.Payload...)
}

// decodeAppendInto splits a MsgAppend payload, appending its records to
// recs (a backup passes its reused batch, emptied). The record payloads
// are slices of data, not copies: a backup's history keeps them, so
// data must be a buffer nobody writes again — every transport hands
// Recv a fresh one per frame.
func decodeAppendInto(recs []wal.Record, data []byte) (epoch int, base int64, out []wal.Record, err error) {
	e, w := binary.Uvarint(data)
	if w <= 0 {
		return 0, 0, recs, fmt.Errorf("%w: append epoch", ErrPayload)
	}
	data = data[w:]
	b, w := binary.Uvarint(data)
	if w <= 0 {
		return 0, 0, recs, fmt.Errorf("%w: append base", ErrPayload)
	}
	data = data[w:]
	n, w := binary.Uvarint(data)
	if w <= 0 {
		return 0, 0, recs, fmt.Errorf("%w: record count", ErrPayload)
	}
	data = data[w:]
	if n > uint64(len(data))/2+1 { // each record takes ≥3 bytes, tolerate n=0
		return 0, 0, recs, fmt.Errorf("%w: %d records in %d bytes", ErrPayload, n, len(data))
	}
	for i := uint64(0); i < n; i++ {
		if len(data) == 0 {
			return 0, 0, recs, fmt.Errorf("%w: record %d truncated", ErrPayload, i)
		}
		typ := wal.RecType(data[0])
		data = data[1:]
		txn, w := binary.Uvarint(data)
		if w <= 0 {
			return 0, 0, recs, fmt.Errorf("%w: record %d txn", ErrPayload, i)
		}
		data = data[w:]
		sz, w := binary.Uvarint(data)
		if w <= 0 || sz > uint64(len(data)-w) {
			return 0, 0, recs, fmt.Errorf("%w: record %d payload length", ErrPayload, i)
		}
		data = data[w:]
		var payload []byte
		if sz > 0 {
			payload = data[:sz:sz]
		}
		data = data[sz:]
		recs = append(recs, wal.Record{Type: typ, Txn: txn, Payload: payload})
	}
	if len(data) != 0 {
		return 0, 0, recs, fmt.Errorf("%w: %d trailing bytes", ErrPayload, len(data))
	}
	return int(e), int64(b), recs, nil
}

// encodeSeq builds the (epoch, sequence) payload shared by MsgAppendAck,
// MsgWatermarkResp, MsgPromote and MsgPromoteAck.
func encodeSeq(epoch int, seq int64) []byte {
	dst := binary.AppendUvarint(nil, uint64(epoch))
	return binary.AppendUvarint(dst, uint64(seq))
}

func decodeSeq(data []byte) (epoch int, seq int64, err error) {
	e, w := binary.Uvarint(data)
	if w <= 0 {
		return 0, 0, fmt.Errorf("%w: epoch", ErrPayload)
	}
	data = data[w:]
	s, w := binary.Uvarint(data)
	if w <= 0 {
		return 0, 0, fmt.Errorf("%w: sequence", ErrPayload)
	}
	if len(data) != w {
		return 0, 0, fmt.Errorf("%w: %d trailing bytes", ErrPayload, len(data)-w)
	}
	return int(e), int64(s), nil
}

// encodeSnapshot builds a MsgSnapshotOffer payload: epoch, the chain
// sequence the snapshot covers through, then the snapshot bytes.
func encodeSnapshot(epoch int, base int64, snap []byte) []byte {
	dst := binary.AppendUvarint(nil, uint64(epoch))
	dst = binary.AppendUvarint(dst, uint64(base))
	return append(dst, snap...)
}

func decodeSnapshot(data []byte) (epoch int, base int64, snap []byte, err error) {
	e, w := binary.Uvarint(data)
	if w <= 0 {
		return 0, 0, nil, fmt.Errorf("%w: snapshot epoch", ErrPayload)
	}
	data = data[w:]
	b, w := binary.Uvarint(data)
	if w <= 0 {
		return 0, 0, nil, fmt.Errorf("%w: snapshot base", ErrPayload)
	}
	return int(e), int64(b), data[w:], nil
}
