// Package twopc splits the durable 2PC engine of internal/sim onto a
// real transport: an explicit coordinator (driver.go) exchanges framed
// messages with partition-server participants (participant.go) over any
// transport.Transport, every exchange bounded by a timeout with
// capped-exponential retransmission, and a standby coordinator
// (standby.go) takes over on lease expiry. The cluster harness
// (cluster.go) replays a trace through the split engine under a fault
// scenario and ends — like sim.ModeDurable — in a full-cluster crash,
// wal.RecoverDir recovery, and the consistency oracle.
//
// The protocol vocabulary below rides transport.Msg.Type. WAL records
// and their meaning are unchanged from the in-process engine: PREPARE
// payloads embed the coordinator partition id, decisions live on the
// coordinator partition's log, and presumed abort resolves silence.
package twopc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/db"
)

// Protocol message types (transport.Msg.Type). Zero is invalid at the
// framing layer, so the vocabulary starts at 1.
const (
	// MsgPrepare carries the coordinator partition id and the write ops
	// for one participant (driver → participant).
	MsgPrepare uint8 = iota + 1
	// MsgVoteYes / MsgVoteNo answer a prepare. A no vote carries a
	// one-byte reason.
	MsgVoteYes
	MsgVoteNo
	// MsgDecideCommit / MsgDecideAbort ship the decision; the first
	// DecideCommit goes to the coordinator partition, whose append of the
	// COMMIT record makes the decision durable.
	MsgDecideCommit
	MsgDecideAbort
	// MsgAck acknowledges a durable decision (participant → driver).
	MsgAck
	// MsgCommitLocal is the single-partition fast path: BEGIN/WRITE*/
	// COMMIT in one exchange, answered by MsgAckLocal or MsgVoteNo.
	MsgCommitLocal
	MsgAckLocal
	// MsgStatusQuery asks a coordinator partition for a transaction's
	// outcome; it answers MsgStatusCommit, MsgStatusAbort, or
	// MsgStatusUnknown (no decision logged — presumed abort territory).
	MsgStatusQuery
	MsgStatusCommit
	MsgStatusAbort
	MsgStatusUnknown
	// MsgScan asks a participant for its in-doubt (txn, coordinator)
	// pairs; MsgScanResp carries them. The standby's takeover starts
	// here.
	MsgScan
	MsgScanResp
	// MsgHeartbeat renews the leader lease (driver → standby).
	MsgHeartbeat
)

// VoteNo reasons (first payload byte).
const (
	// ReasonBlocked: the participant holds an in-doubt transaction and
	// conservatively refuses new writes until it resolves.
	ReasonBlocked byte = 1
)

// ErrPayload wraps every payload-decode failure.
var ErrPayload = errors.New("twopc: bad payload")

// encodeOps appends a length-prefixed op list.
func encodeOps(dst []byte, ops []db.Op) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	var enc []byte
	for _, op := range ops {
		enc = op.Encode(enc[:0])
		dst = binary.AppendUvarint(dst, uint64(len(enc)))
		dst = append(dst, enc...)
	}
	return dst
}

func decodeOps(data []byte) ([]db.Op, []byte, error) {
	n, w := binary.Uvarint(data)
	if w <= 0 {
		return nil, nil, fmt.Errorf("%w: op count", ErrPayload)
	}
	data = data[w:]
	if n > uint64(len(data)) { // each op takes ≥1 byte
		return nil, nil, fmt.Errorf("%w: %d ops in %d bytes", ErrPayload, n, len(data))
	}
	ops := make([]db.Op, 0, n)
	for i := uint64(0); i < n; i++ {
		sz, w := binary.Uvarint(data)
		if w <= 0 || sz > uint64(len(data)-w) {
			return nil, nil, fmt.Errorf("%w: op %d length", ErrPayload, i)
		}
		data = data[w:]
		op, err := db.DecodeOp(data[:sz])
		if err != nil {
			return nil, nil, fmt.Errorf("%w: op %d: %v", ErrPayload, i, err)
		}
		ops = append(ops, op)
		data = data[sz:]
	}
	return ops, data, nil
}

// encodePrepare builds a MsgPrepare payload: the coordinator partition
// id the participant embeds in its PREPARE record, then the op list.
func encodePrepare(coord int, ops []db.Op) []byte {
	dst := binary.AppendUvarint(nil, uint64(coord))
	return encodeOps(dst, ops)
}

func decodePrepare(data []byte) (coord int, ops []db.Op, err error) {
	c, w := binary.Uvarint(data)
	if w <= 0 {
		return 0, nil, fmt.Errorf("%w: coordinator id", ErrPayload)
	}
	ops, rest, err := decodeOps(data[w:])
	if err != nil {
		return 0, nil, err
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes", ErrPayload, len(rest))
	}
	return int(c), ops, nil
}

// encodeCommitLocal builds a MsgCommitLocal payload: just the op list.
func encodeCommitLocal(ops []db.Op) []byte { return encodeOps(nil, ops) }

func decodeCommitLocal(data []byte) ([]db.Op, error) {
	ops, rest, err := decodeOps(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrPayload, len(rest))
	}
	return ops, nil
}

// inDoubtPair names one prepared-undecided transaction and the
// coordinator partition its PREPARE record points at.
type inDoubtPair struct {
	Txn   uint64
	Coord int
}

// encodeScanResp builds a MsgScanResp payload from in-doubt pairs.
func encodeScanResp(pairs []inDoubtPair) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(pairs)))
	for _, p := range pairs {
		dst = binary.AppendUvarint(dst, p.Txn)
		dst = binary.AppendUvarint(dst, uint64(p.Coord))
	}
	return dst
}

func decodeScanResp(data []byte) ([]inDoubtPair, error) {
	n, w := binary.Uvarint(data)
	if w <= 0 {
		return nil, fmt.Errorf("%w: pair count", ErrPayload)
	}
	data = data[w:]
	if n > uint64(len(data))+1 { // each pair takes ≥2 bytes, tolerate n=0
		return nil, fmt.Errorf("%w: %d pairs in %d bytes", ErrPayload, n, len(data))
	}
	pairs := make([]inDoubtPair, 0, n)
	for i := uint64(0); i < n; i++ {
		txn, w := binary.Uvarint(data)
		if w <= 0 {
			return nil, fmt.Errorf("%w: pair %d txn", ErrPayload, i)
		}
		data = data[w:]
		coord, w := binary.Uvarint(data)
		if w <= 0 {
			return nil, fmt.Errorf("%w: pair %d coordinator", ErrPayload, i)
		}
		data = data[w:]
		pairs = append(pairs, inDoubtPair{Txn: txn, Coord: int(coord)})
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrPayload, len(data))
	}
	return pairs, nil
}
