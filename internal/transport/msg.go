package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// Frame layout (little-endian), mirroring the WAL record framing so both
// durable and wire formats share one torn/corrupt taxonomy:
//
//	uint32 length   — byte length of the body
//	uint32 crc      — CRC-32 (IEEE) of the body
//	body            — [type byte][uvarint from][uvarint to]
//	                  [uvarint attempt][uvarint txn][payload]
//
// The type byte is opaque here — internal/twopc owns the protocol
// vocabulary; a zero type never decodes (so all-zero bytes cannot parse
// as a frame).

// MaxFrameSize caps the body length a frame may declare. Anything larger
// is rejected before allocation — the guard FuzzDecodeFrame leans on.
const MaxFrameSize = 1 << 20

const frameHeader = 8 // uint32 length + uint32 crc

// Typed frame-decode errors; callers classify with errors.Is.
var (
	// ErrTornFrame marks a frame cut short of its declared length — the
	// read-more case for stream transports.
	ErrTornFrame = errors.New("transport: torn frame")
	// ErrBadFrame marks a frame that can never become valid: zero or
	// oversized length, CRC mismatch, or a malformed body.
	ErrBadFrame = errors.New("transport: bad frame")
)

// Msg is one protocol message. From/To are node ids, Txn the protocol
// transaction id, Attempt the sender's retransmission counter (part of
// the chaos-sampling identity: resends must bump it to be resampled).
type Msg struct {
	Type    uint8
	From    int
	To      int
	Attempt int
	Txn     uint64
	Payload []byte
}

// String renders the message for diagnostics.
func (m Msg) String() string {
	return fmt.Sprintf("msg{type=%d %d→%d txn=%d attempt=%d |payload|=%d}",
		m.Type, m.From, m.To, m.Txn, m.Attempt, len(m.Payload))
}

// AppendFrame appends the framed encoding of m to dst, growing dst at
// most once: the body is encoded in place behind a reserved header. The
// result holds a copy of m.Payload, so the caller may reuse the payload
// buffer as soon as AppendFrame returns. Messages with a zero type,
// negative ids, or a body beyond MaxFrameSize are rejected, dst's
// contents unchanged.
func AppendFrame(dst []byte, m Msg) ([]byte, error) {
	if m.Type == 0 {
		return dst, fmt.Errorf("%w: zero message type", ErrBadFrame)
	}
	if m.From < 0 || m.To < 0 || m.Attempt < 0 {
		return dst, fmt.Errorf("%w: negative id in %s", ErrBadFrame, m)
	}
	start := len(dst)
	dst = slices.Grow(dst, frameHeader+1+4*binary.MaxVarintLen64+len(m.Payload))
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, m.Type) // length and CRC patched below
	dst = binary.AppendUvarint(dst, uint64(m.From))
	dst = binary.AppendUvarint(dst, uint64(m.To))
	dst = binary.AppendUvarint(dst, uint64(m.Attempt))
	dst = binary.AppendUvarint(dst, m.Txn)
	dst = append(dst, m.Payload...)
	body := dst[start+frameHeader:]
	if len(body) > MaxFrameSize {
		return dst[:start], fmt.Errorf("%w: body %d bytes exceeds max %d", ErrBadFrame, len(body), MaxFrameSize)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(body))
	return dst, nil
}

// DecodeFrame decodes the first frame of data, returning the message and
// the frame's byte length. ErrTornFrame means data is a valid prefix of
// a longer frame (stream readers should read more); ErrBadFrame means
// the bytes can never decode. The payload aliases data — copy it before
// reusing the buffer. DecodeFrame never panics, whatever the input
// (FuzzDecodeFrame pins that).
func DecodeFrame(data []byte) (Msg, int, error) {
	if len(data) < frameHeader {
		return Msg{}, 0, fmt.Errorf("%w: %d header bytes of %d", ErrTornFrame, len(data), frameHeader)
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	crc := binary.LittleEndian.Uint32(data[4:8])
	if n == 0 {
		return Msg{}, 0, fmt.Errorf("%w: zero-length frame", ErrBadFrame)
	}
	if n > MaxFrameSize {
		return Msg{}, 0, fmt.Errorf("%w: declared length %d exceeds max %d", ErrBadFrame, n, MaxFrameSize)
	}
	if uint64(n) > uint64(len(data)-frameHeader) {
		return Msg{}, 0, fmt.Errorf("%w: frame of %d bytes, %d available", ErrTornFrame, n, len(data)-frameHeader)
	}
	body := data[frameHeader : frameHeader+int(n)]
	if crc32.ChecksumIEEE(body) != crc {
		return Msg{}, 0, fmt.Errorf("%w: crc mismatch", ErrBadFrame)
	}
	m := Msg{Type: body[0]}
	if m.Type == 0 {
		return Msg{}, 0, fmt.Errorf("%w: zero message type", ErrBadFrame)
	}
	rest := body[1:]
	fields := [4]uint64{}
	for i := range fields {
		v, w := binary.Uvarint(rest)
		if w <= 0 {
			return Msg{}, 0, fmt.Errorf("%w: truncated header field %d", ErrBadFrame, i)
		}
		fields[i] = v
		rest = rest[w:]
	}
	const maxID = 1 << 30 // ids and attempts fit int on every platform
	if fields[0] > maxID || fields[1] > maxID || fields[2] > maxID {
		return Msg{}, 0, fmt.Errorf("%w: header field out of range", ErrBadFrame)
	}
	m.From, m.To, m.Attempt, m.Txn = int(fields[0]), int(fields[1]), int(fields[2]), fields[3]
	if len(rest) > 0 {
		m.Payload = rest
	}
	return m, frameHeader + int(n), nil
}
