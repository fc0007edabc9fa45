// Package wal is the per-partition binary write-ahead log of the durable
// execution layer. Each partition of the simulated cluster appends
// BEGIN/WRITE/PREPARE/COMMIT/ABORT/CHECKPOINT records to its own log;
// recovery (recover.go) rebuilds the partition's store from the latest
// checkpoint plus the committed suffix, and resolves transactions left
// in doubt by a crash between prepare and commit with the presumed-abort
// rule.
//
// Record framing (little-endian):
//
//	uint32 length   — byte length of the body
//	uint32 crc      — CRC-32 (IEEE) of the body
//	body            — [type byte][uvarint txn id][payload]
//
// WRITE payloads carry one encoded db.Op (the commit engines encode each
// write once, where they route it, and frame that body as is); PREPARE payloads carry the
// uvarint coordinator partition id (so a log is self-contained for
// presumed-abort resolution); CHECKPOINT payloads carry a db snapshot.
// BEGIN/COMMIT/ABORT have empty payloads.
//
// The reader is tolerant of torn tails by construction: a crash can cut a
// log anywhere, so Parse returns the longest valid record prefix together
// with a typed error classifying the cut (ErrTornTail for a truncated
// frame, ErrCorrupt for a CRC mismatch or malformed body). It never
// panics on arbitrary bytes — the FuzzWALReplay target pins that.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/obs"
)

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	cRecordsAppended = obs.Default.Counter("wal.records_appended")
	cCheckpoints     = obs.Default.Counter("wal.checkpoints_written")
	cTornTails       = obs.Default.Counter("wal.torn_tails_detected")
	hAppendBytes     = obs.Default.HDR("wal.append_bytes")
)

// Typed log-integrity errors; callers classify with errors.Is.
var (
	// ErrTornTail marks a log whose final frame is incomplete — the
	// normal shape of a crash mid-append. The parsed prefix is valid.
	ErrTornTail = errors.New("wal: torn tail")
	// ErrCorrupt marks a frame whose CRC does not match its body, or a
	// body that does not decode (bad type byte, malformed txn id).
	ErrCorrupt = errors.New("wal: corrupt record")
)

// RecType enumerates the record types. The zero value is invalid so an
// all-zero frame never parses as a valid record.
type RecType uint8

// The record types.
const (
	RecBegin RecType = iota + 1
	RecWrite
	RecPrepare
	RecCommit
	RecAbort
	RecCheckpoint
)

// String returns the record-type name.
func (t RecType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecWrite:
		return "WRITE"
	case RecPrepare:
		return "PREPARE"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecCheckpoint:
		return "CHECKPOINT"
	default:
		return fmt.Sprintf("rec(%d)", uint8(t))
	}
}

func (t RecType) valid() bool { return t >= RecBegin && t <= RecCheckpoint }

// Record is one decoded log record.
type Record struct {
	Type    RecType
	Txn     uint64
	Payload []byte
}

const frameHeader = 8 // uint32 length + uint32 crc

// EncodeRecord appends the framed encoding of one record to dst.
func EncodeRecord(dst []byte, typ RecType, txn uint64, payload []byte) []byte {
	dst, start := beginFrame(dst, typ, txn)
	return endFrame(append(dst, payload...), start)
}

// beginFrame reserves a frame header at the end of dst and appends the
// body prefix (type byte, txn id); the caller appends the payload in
// place and endFrame patches the header, so no record is ever encoded
// into a temporary body slice first.
func beginFrame(dst []byte, typ RecType, txn uint64) ([]byte, int) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, byte(typ))
	return binary.AppendUvarint(dst, txn), start
}

// endFrame patches the length and CRC of the frame starting at start.
func endFrame(dst []byte, start int) []byte {
	body := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(body))
	return dst
}

// Parse decodes the longest valid record prefix of data. It returns the
// records, the byte length of the clean prefix, and nil when the data
// ends exactly on a record boundary — otherwise a typed error
// (ErrTornTail, ErrCorrupt) describing the first bad frame. Parse never
// panics, whatever the input.
func Parse(data []byte) ([]Record, int64, error) {
	var recs []Record
	if n := countFrames(data); n > 0 {
		recs = make([]Record, 0, n)
	}
	off := int64(0)
	for int(off) < len(data) {
		rest := data[off:]
		if len(rest) < frameHeader {
			return recs, off, fmt.Errorf("%w: %d trailing bytes at offset %d", ErrTornTail, len(rest), off)
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		if n == 0 {
			return recs, off, fmt.Errorf("%w: zero-length frame at offset %d", ErrCorrupt, off)
		}
		if uint64(n) > uint64(len(rest)-frameHeader) {
			return recs, off, fmt.Errorf("%w: frame of %d bytes at offset %d, %d available",
				ErrTornTail, n, off, len(rest)-frameHeader)
		}
		body := rest[frameHeader : frameHeader+int(n)]
		if crc32.ChecksumIEEE(body) != crc {
			return recs, off, fmt.Errorf("%w: crc mismatch at offset %d", ErrCorrupt, off)
		}
		typ := RecType(body[0])
		if !typ.valid() {
			return recs, off, fmt.Errorf("%w: bad record type %d at offset %d", ErrCorrupt, body[0], off)
		}
		txn, w := binary.Uvarint(body[1:])
		if w <= 0 {
			return recs, off, fmt.Errorf("%w: bad txn id at offset %d", ErrCorrupt, off)
		}
		recs = append(recs, Record{Type: typ, Txn: txn, Payload: body[1+w:]})
		off += frameHeader + int64(n)
	}
	return recs, off, nil
}

// countFrames counts the frames that data's length fields delimit, up to
// the first that is empty or overruns data: at least as many as the
// records Parse decodes, so Parse sizes its record slice once.
func countFrames(data []byte) int {
	n := 0
	for len(data) >= frameHeader {
		size := binary.LittleEndian.Uint32(data)
		if size == 0 || uint64(size) > uint64(len(data)-frameHeader) {
			break
		}
		data = data[frameHeader+int(size):]
		n++
	}
	return n
}

// ParseFile reads and parses a log file. A missing file is an empty log.
func ParseFile(path string) ([]Record, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	return Parse(data)
}

// Log is an append-only record writer backed by a file. Appends are
// written through immediately (the simulated crash model treats every
// completed append as durable); AppendTorn cuts a frame short to model a
// crash mid-append. AppendTxn and AppendBatch frame one protocol step's
// records into one buffer and issue a single write for all of them.
type Log struct {
	f    *os.File
	n    int64
	obsv func(typ RecType, txn uint64, frameBytes int)

	// buf and frames are the encode buffer and its per-record frame
	// marks, reused across appends; ckpt is the checkpoint frame buffer,
	// reused across checkpoints.
	buf    []byte
	frames []frameMark
	ckpt   []byte
}

// frameMark locates one record's frame in the encode buffer.
type frameMark struct {
	typ RecType
	txn uint64
	end int // offset just past the frame
}

// maxRetainedBuf caps the encode buffer kept between appends: a
// checkpoint frame carries a whole snapshot and is not worth holding on
// to.
const maxRetainedBuf = 64 << 10

// SetObserver installs a callback invoked once per record written —
// by Append, AppendTorn, AppendTxn or AppendBatch, after the write and
// in record order — with the record type, transaction id, and the frame
// bytes written. The durable simulation uses it to emit one
// flight-recorder event per WAL append without the wal package knowing
// about trace ids. A nil observer (the default) costs one branch.
func (l *Log) SetObserver(fn func(typ RecType, txn uint64, frameBytes int)) {
	l.obsv = fn
}

// Create truncates/creates the log file at path.
func Create(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &Log{f: f}, nil
}

// OpenAt opens the log for appending after truncating it to cleanLen —
// the recovery path: the torn tail (if any) is discarded before
// resolution records are appended.
func OpenAt(path string, cleanLen int64) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(cleanLen); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(cleanLen, 0); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, n: cleanLen}, nil
}

// Bytes returns the number of bytes written (the durable log length).
func (l *Log) Bytes() int64 { return l.n }

// Append writes one framed record.
func (l *Log) Append(typ RecType, txn uint64, payload []byte) error {
	l.reset()
	l.add(typ, txn, payload)
	return l.write(l.buf)
}

// AppendTxn writes one transaction's BEGIN, one WRITE per body — each
// an encoded db.Op, framed as it is — and, when tail is nonzero, a
// closing tail record (PREPARE or COMMIT) carrying tailPayload, all with
// a single write. The bytes, Bytes(), metrics and observer calls are
// exactly those of the equivalent Append sequence.
func (l *Log) AppendTxn(txn uint64, bodies [][]byte, tail RecType, tailPayload []byte) error {
	l.reset()
	l.add(RecBegin, txn, nil)
	for _, body := range bodies {
		l.add(RecWrite, txn, body)
	}
	if tail != 0 {
		l.add(tail, txn, tailPayload)
	}
	return l.write(l.buf)
}

// AppendBatch writes records with a single write, equivalent to one
// Append per record in order.
func (l *Log) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	l.reset()
	for _, r := range recs {
		l.add(r.Type, r.Txn, r.Payload)
	}
	return l.write(l.buf)
}

func (l *Log) reset() {
	if cap(l.buf) > maxRetainedBuf {
		l.buf = nil
	}
	l.buf, l.frames = l.buf[:0], l.frames[:0]
}

// add encodes one record into the buffer.
func (l *Log) add(typ RecType, txn uint64, payload []byte) {
	l.buf = EncodeRecord(l.buf, typ, txn, payload)
	l.mark(typ, txn)
}

func (l *Log) mark(typ RecType, txn uint64) {
	l.frames = append(l.frames, frameMark{typ: typ, txn: txn, end: len(l.buf)})
}

// write writes buf, whose frames l.frames marks, with one write, then
// accounts each record in order: log length, metrics, observer. A failed
// write accounts only the frames that landed whole and names the first
// that did not.
func (l *Log) write(buf []byte) error {
	n, err := l.f.Write(buf)
	prev := 0
	for _, fm := range l.frames {
		if fm.end > n {
			return fmt.Errorf("wal: append %s: %w", fm.typ, err)
		}
		size := fm.end - prev
		prev = fm.end
		l.n += int64(size)
		cRecordsAppended.Inc()
		hAppendBytes.Observe(int64(size))
		if fm.typ == RecCheckpoint {
			cCheckpoints.Inc()
		}
		if l.obsv != nil {
			l.obsv(fm.typ, fm.txn, size)
		}
	}
	return err
}

// AppendTorn writes only the first keep bytes of the record's frame,
// modeling a crash that cut the append short. keep is clamped to
// [1, frameLen-1] so the tail is always genuinely torn.
func (l *Log) AppendTorn(typ RecType, txn uint64, payload []byte, keep int) error {
	l.reset()
	l.buf = EncodeRecord(l.buf, typ, txn, payload)
	frame := l.buf
	if keep < 1 {
		keep = 1
	}
	if keep >= len(frame) {
		keep = len(frame) - 1
	}
	if _, err := l.f.Write(frame[:keep]); err != nil {
		return fmt.Errorf("wal: append torn %s: %w", typ, err)
	}
	l.n += int64(keep)
	cTornTails.Inc()
	hAppendBytes.Observe(int64(keep))
	if l.obsv != nil {
		l.obsv(typ, txn, keep)
	}
	return nil
}

// Close closes the underlying file.
func (l *Log) Close() error { return l.f.Close() }

// PartitionLogPath names partition p's log inside dir.
func PartitionLogPath(dir string, p int) string {
	return fmt.Sprintf("%s/partition-%03d.wal", dir, p)
}
