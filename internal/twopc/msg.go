// Package twopc splits the durable 2PC engine of internal/sim onto a
// real transport: an explicit coordinator (driver.go) exchanges framed
// messages with partition-server participants (participant.go) over any
// transport.Transport, every exchange bounded by a timeout with
// capped-exponential retransmission, and a standby coordinator
// (standby.go) takes over on lease expiry. The cluster harness
// (cluster.go) replays a trace through the split engine under a fault
// scenario and ends — like sim.RunDurable — in a full-cluster crash,
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
	"slices"

	"repro/internal/db"
)

// Protocol message types (transport.Msg.Type). Zero is invalid at the
// framing layer, so the vocabulary starts at 1.
const (
	// MsgPrepare carries the coordinator partition id and the write
	// bodies for one participant (driver → participant).
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

// appendBodies appends a length-prefixed list of write bodies — op
// encodings, as WriteEffects built them — each framed as it is.
func appendBodies(dst []byte, bodies [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(bodies)))
	for _, b := range bodies {
		dst = binary.AppendUvarint(dst, uint64(len(b)))
		dst = append(dst, b...)
	}
	return dst
}

// bodiesSize bounds appendBodies' output length.
func bodiesSize(bodies [][]byte) int {
	n := binary.MaxVarintLen64
	for _, b := range bodies {
		n += binary.MaxVarintLen32 + len(b)
	}
	return n
}

// decodeBodies splits a body list off data, appending each body to dst
// as a slice of data after db.CheckOp validates it: nothing is decoded
// or copied until a store applies the writes.
func decodeBodies(dst [][]byte, data []byte) ([][]byte, []byte, error) {
	n, w := binary.Uvarint(data)
	if w <= 0 {
		return nil, nil, fmt.Errorf("%w: op count", ErrPayload)
	}
	data = data[w:]
	if n > uint64(len(data)) { // each op takes ≥1 byte
		return nil, nil, fmt.Errorf("%w: %d ops in %d bytes", ErrPayload, n, len(data))
	}
	dst = slices.Grow(dst, int(n))
	for i := uint64(0); i < n; i++ {
		sz, w := binary.Uvarint(data)
		if w <= 0 || sz > uint64(len(data)-w) {
			return nil, nil, fmt.Errorf("%w: op %d length", ErrPayload, i)
		}
		body := data[w : w+int(sz) : w+int(sz)]
		if _, err := db.CheckOp(body); err != nil {
			return nil, nil, fmt.Errorf("%w: op %d: %v", ErrPayload, i, err)
		}
		dst = append(dst, body)
		data = data[w+int(sz):]
	}
	return dst, data, nil
}

// encodePrepare builds a MsgPrepare payload: the coordinator partition
// id the participant embeds in its PREPARE record, then the body list.
func encodePrepare(coord int, bodies [][]byte) []byte {
	dst := make([]byte, 0, binary.MaxVarintLen64+bodiesSize(bodies))
	dst = binary.AppendUvarint(dst, uint64(coord))
	return appendBodies(dst, bodies)
}

// decodePrepare splits a MsgPrepare payload; the bodies are slices of
// data.
func decodePrepare(data []byte) (coord int, bodies [][]byte, err error) {
	c, w := binary.Uvarint(data)
	if w <= 0 {
		return 0, nil, fmt.Errorf("%w: coordinator id", ErrPayload)
	}
	bodies, rest, err := decodeBodies(nil, data[w:])
	if err != nil {
		return 0, nil, err
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes", ErrPayload, len(rest))
	}
	return int(c), bodies, nil
}

// encodeCommitLocal builds a MsgCommitLocal payload: just the body list.
func encodeCommitLocal(bodies [][]byte) []byte {
	return appendBodies(make([]byte, 0, bodiesSize(bodies)), bodies)
}

// decodeCommitLocal splits a MsgCommitLocal payload into dst; the bodies
// are slices of data.
func decodeCommitLocal(dst [][]byte, data []byte) ([][]byte, error) {
	bodies, rest, err := decodeBodies(dst, data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrPayload, len(rest))
	}
	return bodies, nil
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
