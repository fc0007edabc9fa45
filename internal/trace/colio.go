package trace

// Columnar on-disk trace format. The file is a magic header followed by
// CRC-framed chunks, so a 10M-access trace is read a bounded chunk at a
// time and never materializes as []Txn:
//
//	file  := magic frame*
//	magic := "JECBCOL1" (8 bytes)
//	frame := uint32 LE body length | uint32 LE CRC32-IEEE(body) | body
//	body  := 'D' dictDelta | 'T' txnChunk
//
//	dictDelta := kind(0=tables 1=classes) uvarint(firstID) uvarint(n)
//	             n × (uvarint(len) bytes)          -- names for ids firstID..
//	txnChunk  := uvarint(numKeys)
//	             numKeys × (uvarint(tableID) uvarint(len) keyBytes)
//	             uvarint(numTxns)
//	             numTxns × txn
//	txn       := varint(id) uvarint(classID)
//	             uvarint(numParams) numParams × (str(name) str(valueText))
//	             uvarint(numAccesses) numAccesses × uvarint(localKey<<1|write)
//	str       := uvarint(len) bytes
//
// Table and class dictionaries are written incrementally: each chunk is
// preceded by delta frames covering any names first seen in it, so a
// reader's dictionaries are always complete before the chunk that needs
// them. Keys are not global — each chunk carries its own key table (keys
// dominate dictionary size; keeping them chunk-local bounds reader
// memory by the chunk size, not the trace size).
//
// Failure classification mirrors internal/wal: a frame cut off by the
// end of the file is ErrTornTail (crash mid-write; everything before it
// is intact), a CRC mismatch or malformed body is ErrCorrupt.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"iter"
	"os"
	"sort"

	"repro/internal/obs"
	"repro/internal/value"
)

var (
	// ErrTornTail marks a columnar trace whose final frame is incomplete —
	// the writer stopped mid-frame. All preceding chunks are intact.
	ErrTornTail = errors.New("trace: torn tail")
	// ErrCorrupt marks a frame whose CRC does not match its body, or a
	// body that does not parse.
	ErrCorrupt = errors.New("trace: corrupt chunk")
)

const (
	colMagic = "JECBCOL1"

	frameDict = 'D'
	frameTxns = 'T'

	dictKindTables  = 0
	dictKindClasses = 1

	// maxFrame bounds a single frame body; larger lengths are treated as
	// corruption rather than honored as allocations.
	maxFrame = 1 << 28

	// DefaultChunkTxns is the writer's default transactions-per-chunk. At
	// typical 5–20 accesses per transaction a chunk is a few hundred KB —
	// large enough to amortize framing, small enough that the streaming
	// reader's working set stays in cache.
	DefaultChunkTxns = 4096
)

// ColumnarWriter streams transactions into the chunked on-disk format.
// Add transactions (in trace order), then Close to flush the final
// partial chunk.
type ColumnarWriter struct {
	bw  *bufio.Writer
	n   int64
	err error

	tables  *Dict
	classes *Dict
	// flushedTables/flushedClasses count dictionary entries already
	// covered by emitted delta frames.
	flushedTables  int
	flushedClasses int

	chunkTxns int

	// pending chunk state
	keys    []pendingKey
	keyIdx  map[string]int // composite tableID++keyBytes -> local index
	txns    []pendingTxn
	scratch []byte // frame assembly buffer, reused

	wroteTxns   int64
	wroteChunks int64
}

type pendingKey struct {
	tableID uint32
	key     string
}

type pendingTxn struct {
	id      int
	classID uint32
	params  [][2]string // (name, marshaled value), sorted by name
	accs    []uint64    // localKeyIdx<<1 | writeBit
}

// NewColumnarWriter returns a writer emitting the columnar format to w,
// chunkTxns transactions per chunk (WriteColumnar uses DefaultChunkTxns).
func NewColumnarWriter(w io.Writer, chunkTxns int) *ColumnarWriter {
	cw := &ColumnarWriter{
		bw:        bufio.NewWriterSize(w, 1<<16),
		tables:    NewDict(),
		classes:   NewDict(),
		chunkTxns: chunkTxns,
		keyIdx:    make(map[string]int),
	}
	cw.writeRaw([]byte(colMagic))
	return cw
}

func (cw *ColumnarWriter) writeRaw(b []byte) {
	if cw.err != nil {
		return
	}
	n, err := cw.bw.Write(b)
	cw.n += int64(n)
	cw.err = err
}

// Add appends one transaction. The transaction is encoded immediately
// into the pending chunk; t is not retained.
func (cw *ColumnarWriter) Add(t *Txn) error {
	if cw.err != nil {
		return cw.err
	}
	pt := pendingTxn{id: t.ID, classID: cw.classes.ID(t.Class)}
	if len(t.Params) > 0 {
		names := make([]string, 0, len(t.Params))
		for k := range t.Params {
			names = append(names, k)
		}
		sort.Strings(names)
		pt.params = make([][2]string, 0, len(names))
		for _, k := range names {
			v := t.Params[k]
			b, err := v.MarshalText()
			if err != nil {
				cw.err = fmt.Errorf("trace: txn %d param %s: %w", t.ID, k, err)
				return cw.err
			}
			pt.params = append(pt.params, [2]string{k, string(b)})
		}
	}
	pt.accs = make([]uint64, 0, len(t.Accesses))
	var pre [4]byte
	for _, a := range t.Accesses {
		tid := cw.tables.ID(a.Table)
		binary.BigEndian.PutUint32(pre[:], tid)
		comp := string(pre[:]) + string(a.Key)
		li, ok := cw.keyIdx[comp]
		if !ok {
			li = len(cw.keys)
			cw.keyIdx[comp] = li
			cw.keys = append(cw.keys, pendingKey{tableID: tid, key: string(a.Key)})
		}
		enc := uint64(li) << 1
		if a.Write {
			enc |= 1
		}
		pt.accs = append(pt.accs, enc)
	}
	cw.txns = append(cw.txns, pt)
	if len(cw.txns) >= cw.chunkTxns {
		cw.flushChunk()
	}
	return cw.err
}

// frame writes one CRC frame with the given body.
func (cw *ColumnarWriter) frame(body []byte) {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(body))
	cw.writeRaw(hdr[:])
	cw.writeRaw(body)
}

// flushDicts emits delta frames covering dictionary entries interned
// since the last flush.
func (cw *ColumnarWriter) flushDicts() {
	emit := func(kind byte, names []string, flushed *int) {
		if *flushed >= len(names) {
			return
		}
		body := cw.scratch[:0]
		body = append(body, frameDict, kind)
		body = binary.AppendUvarint(body, uint64(*flushed))
		body = binary.AppendUvarint(body, uint64(len(names)-*flushed))
		for _, name := range names[*flushed:] {
			body = binary.AppendUvarint(body, uint64(len(name)))
			body = append(body, name...)
		}
		cw.frame(body)
		cw.scratch = body[:0]
		*flushed = len(names)
	}
	emit(dictKindTables, cw.tables.Names(), &cw.flushedTables)
	emit(dictKindClasses, cw.classes.Names(), &cw.flushedClasses)
}

func (cw *ColumnarWriter) flushChunk() {
	if len(cw.txns) == 0 {
		return
	}
	cw.flushDicts()
	body := cw.scratch[:0]
	body = append(body, frameTxns)
	body = binary.AppendUvarint(body, uint64(len(cw.keys)))
	for _, k := range cw.keys {
		body = binary.AppendUvarint(body, uint64(k.tableID))
		body = binary.AppendUvarint(body, uint64(len(k.key)))
		body = append(body, k.key...)
	}
	body = binary.AppendUvarint(body, uint64(len(cw.txns)))
	for i := range cw.txns {
		t := &cw.txns[i]
		body = binary.AppendVarint(body, int64(t.id))
		body = binary.AppendUvarint(body, uint64(t.classID))
		body = binary.AppendUvarint(body, uint64(len(t.params)))
		for _, kv := range t.params {
			body = binary.AppendUvarint(body, uint64(len(kv[0])))
			body = append(body, kv[0]...)
			body = binary.AppendUvarint(body, uint64(len(kv[1])))
			body = append(body, kv[1]...)
		}
		body = binary.AppendUvarint(body, uint64(len(t.accs)))
		for _, a := range t.accs {
			body = binary.AppendUvarint(body, a)
		}
	}
	cw.frame(body)
	cw.scratch = body[:0]
	cw.wroteTxns += int64(len(cw.txns))
	cw.wroteChunks++
	cw.keys = cw.keys[:0]
	cw.txns = cw.txns[:0]
	clear(cw.keyIdx)
}

// Close flushes the final partial chunk and the buffered output. It does
// not close the underlying writer.
func (cw *ColumnarWriter) Close() error {
	cw.flushChunk()
	if cw.err == nil {
		cw.err = cw.bw.Flush()
	}
	obs.Add("trace.columnar_txns_written", cw.wroteTxns)
	obs.Add("trace.columnar_chunks_written", cw.wroteChunks)
	obs.Add("trace.columnar_bytes_written", cw.n)
	return cw.err
}

// BytesWritten returns the number of bytes emitted so far (including
// bytes still in the flush buffer).
func (cw *ColumnarWriter) BytesWritten() int64 { return cw.n }

// WriteColumnar writes any trace representation to w in the columnar
// on-disk format, returning the byte count.
func WriteColumnar(w io.Writer, src Workload) (int64, error) {
	cw := NewColumnarWriter(w, DefaultChunkTxns)
	for _, t := range src.All() {
		if err := cw.Add(t); err != nil {
			return cw.BytesWritten(), err
		}
	}
	err := cw.Close()
	return cw.BytesWritten(), err
}

// colDecoder accumulates dictionary deltas and decodes chunk frames.
type colDecoder struct {
	tables  *Dict
	classes *Dict
}

func newColDecoder() *colDecoder {
	return &colDecoder{tables: NewDict(), classes: NewDict()}
}

type colParser struct {
	b   []byte
	off int
}

func (p *colParser) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.b[p.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint at byte %d", ErrCorrupt, p.off)
	}
	p.off += n
	return v, nil
}

func (p *colParser) varint() (int64, error) {
	v, n := binary.Varint(p.b[p.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at byte %d", ErrCorrupt, p.off)
	}
	p.off += n
	return v, nil
}

func (p *colParser) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(p.b)-p.off) {
		return nil, fmt.Errorf("%w: %d-byte field overruns body at byte %d", ErrCorrupt, n, p.off)
	}
	b := p.b[p.off : p.off+int(n)]
	p.off += int(n)
	return b, nil
}

func (p *colParser) str() (string, error) {
	n, err := p.uvarint()
	if err != nil {
		return "", err
	}
	b, err := p.bytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// apply decodes one frame body. Dict frames return (nil, nil); txn
// frames return the decoded chunk.
func (d *colDecoder) apply(body []byte) (*Columnar, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("%w: empty frame", ErrCorrupt)
	}
	p := &colParser{b: body, off: 1}
	switch body[0] {
	case frameDict:
		if len(body) < 2 {
			return nil, fmt.Errorf("%w: truncated dict frame", ErrCorrupt)
		}
		kind := body[1]
		p.off = 2
		dict := d.tables
		switch kind {
		case dictKindTables:
		case dictKindClasses:
			dict = d.classes
		default:
			return nil, fmt.Errorf("%w: bad dict kind %d", ErrCorrupt, kind)
		}
		firstID, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		if firstID != uint64(dict.Len()) {
			return nil, fmt.Errorf("%w: dict delta starts at id %d, reader has %d entries",
				ErrCorrupt, firstID, dict.Len())
		}
		n, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < n; i++ {
			name, err := p.str()
			if err != nil {
				return nil, err
			}
			dict.ID(name)
		}
		if p.off != len(body) {
			return nil, fmt.Errorf("%w: %d trailing bytes in dict frame", ErrCorrupt, len(body)-p.off)
		}
		return nil, nil
	case frameTxns:
		return d.decodeChunk(p, body)
	default:
		return nil, fmt.Errorf("%w: bad frame type %d", ErrCorrupt, body[0])
	}
}

func (d *colDecoder) decodeChunk(p *colParser, body []byte) (*Columnar, error) {
	numKeys, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	if numKeys > uint64(len(body)) {
		return nil, fmt.Errorf("%w: key table claims %d entries in %d-byte body", ErrCorrupt, numKeys, len(body))
	}
	type chunkKey struct {
		tableID uint32
		key     string
	}
	keys := make([]chunkKey, numKeys)
	for i := range keys {
		tid, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		if tid >= uint64(d.tables.Len()) {
			return nil, fmt.Errorf("%w: key table references table id %d of %d", ErrCorrupt, tid, d.tables.Len())
		}
		k, err := p.str()
		if err != nil {
			return nil, err
		}
		keys[i] = chunkKey{tableID: uint32(tid), key: k}
	}
	numTxns, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	if numTxns > uint64(len(body)) {
		return nil, fmt.Errorf("%w: chunk claims %d txns in %d-byte body", ErrCorrupt, numTxns, len(body))
	}
	c := &Columnar{
		tables:  d.tables,
		classes: d.classes,
		keys:    NewDict(),
		offsets: make([]uint32, 1, numTxns+1),
	}
	for i := uint64(0); i < numTxns; i++ {
		id, err := p.varint()
		if err != nil {
			return nil, err
		}
		cid, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		if cid >= uint64(d.classes.Len()) {
			return nil, fmt.Errorf("%w: txn references class id %d of %d", ErrCorrupt, cid, d.classes.Len())
		}
		numParams, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		var params map[string]value.Value
		if numParams > 0 {
			if numParams > uint64(len(body)) {
				return nil, fmt.Errorf("%w: txn claims %d params", ErrCorrupt, numParams)
			}
			params = make(map[string]value.Value, numParams)
			for j := uint64(0); j < numParams; j++ {
				name, err := p.str()
				if err != nil {
					return nil, err
				}
				text, err := p.str()
				if err != nil {
					return nil, err
				}
				var v value.Value
				if uerr := v.UnmarshalText([]byte(text)); uerr != nil {
					return nil, fmt.Errorf("%w: param %s: %v", ErrCorrupt, name, uerr)
				}
				params[name] = v
			}
		}
		numAccs, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		if numAccs > uint64(len(body)) {
			return nil, fmt.Errorf("%w: txn claims %d accesses", ErrCorrupt, numAccs)
		}
		c.ids = append(c.ids, int32(id))
		c.classIDs = append(c.classIDs, uint32(cid))
		c.params = append(c.params, params)
		for j := uint64(0); j < numAccs; j++ {
			enc, err := p.uvarint()
			if err != nil {
				return nil, err
			}
			li := enc >> 1
			if li >= uint64(len(keys)) {
				return nil, fmt.Errorf("%w: access references key %d of %d", ErrCorrupt, li, len(keys))
			}
			k := keys[li]
			c.accTable = append(c.accTable, k.tableID)
			c.accKey = append(c.accKey, c.internKey(k.tableID, value.Key(k.key)))
			n := len(c.accTable) - 1
			if n >= len(c.accWrite)*64 {
				c.accWrite = append(c.accWrite, 0)
			}
			if enc&1 != 0 {
				c.accWrite[n>>6] |= 1 << (uint(n) & 63)
			}
		}
		c.offsets = append(c.offsets, uint32(len(c.accTable)))
	}
	if p.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes in txn frame", ErrCorrupt, len(body)-p.off)
	}
	return c, nil
}

// readFrame reads one frame body, reusing buf when large enough. A clean
// EOF at a frame boundary returns io.EOF; a cut inside a frame returns
// ErrTornTail; an absurd length returns ErrCorrupt.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated frame header", ErrTornTail)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("%w: frame length %d", ErrCorrupt, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if got, err := io.ReadFull(br, body); err != nil {
		return nil, fmt.Errorf("%w: frame cut at %d of %d body bytes", ErrTornTail, got, n)
	}
	if crc32.ChecksumIEEE(body) != crc {
		return nil, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	return body, nil
}

// Stream is the streaming reader over a columnar trace file. It
// implements Workload by re-scanning the file per cursor, holding one
// chunk in memory at a time; Len, Classes and Mix are cached after the
// first full pass.
//
// Cursor errors: All and Class cannot return an error mid-iteration, so
// a read failure stops the cursor and is reported by Err. Paths that
// must distinguish clean EOF from a torn file use Chunks, whose cursor
// carries the error explicitly.
type Stream struct {
	path string

	scanned bool
	n       int
	classes []string
	mix     map[string]float64

	err error
}

// SniffColumnar reports whether the file at path begins with the
// columnar magic header — the format-detection hook for tools that
// accept both JSON-lines and columnar trace files.
func SniffColumnar(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var magic [len(colMagic)]byte
	n, err := io.ReadFull(f, magic[:])
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return false, nil // shorter than the magic: not columnar
	}
	if err != nil {
		return false, err
	}
	return string(magic[:n]) == colMagic, nil
}

// OpenColumnar opens a columnar trace file for streaming. The magic
// header is validated eagerly; chunks are only read when a cursor runs.
func OpenColumnar(path string) (*Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [len(colMagic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: missing magic header", ErrTornTail)
	}
	if string(magic[:]) != colMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic[:])
	}
	return &Stream{path: path}, nil
}

// Err returns the first error a Workload cursor (All, Class, or a cached
// view pass) encountered, or nil.
func (s *Stream) Err() error { return s.err }

// Chunks iterates the file's chunks in order. Each yielded Columnar is
// freshly decoded and safe to retain; its table/class dictionaries are
// shared with later chunks of the same pass (append-only, so earlier
// chunks stay valid). On a read error the cursor yields (nil, err) once
// and stops.
func (s *Stream) Chunks() iter.Seq2[*Columnar, error] {
	return func(yield func(*Columnar, error) bool) {
		f, err := os.Open(s.path)
		if err != nil {
			yield(nil, err)
			return
		}
		defer f.Close()
		br := bufio.NewReaderSize(f, 1<<16)
		if _, err := br.Discard(len(colMagic)); err != nil {
			yield(nil, fmt.Errorf("%w: missing magic header", ErrTornTail))
			return
		}
		dec := newColDecoder()
		var buf []byte
		chunks := int64(0)
		txns := int64(0)
		for {
			body, err := readFrame(br, buf)
			if err == io.EOF {
				obs.Add("trace.columnar_chunks_read", chunks)
				obs.Add("trace.columnar_txns_read", txns)
				return
			}
			if err != nil {
				yield(nil, err)
				return
			}
			buf = body[:0]
			chunk, err := dec.apply(body)
			if err != nil {
				yield(nil, err)
				return
			}
			if chunk == nil {
				continue
			}
			chunks++
			txns += int64(chunk.NumTxns())
			if !yield(chunk, nil) {
				return
			}
		}
	}
}

// scan runs one full pass caching Len, Classes and Mix.
func (s *Stream) scan() {
	if s.scanned {
		return
	}
	counts := map[string]int{}
	total := 0
	for chunk, err := range s.Chunks() {
		if err != nil {
			s.err = err
			return
		}
		for i := 0; i < chunk.NumTxns(); i++ {
			counts[chunk.ClassName(chunk.ClassID(i))]++
		}
		total += chunk.NumTxns()
	}
	s.n = total
	s.classes = make([]string, 0, len(counts))
	for c := range counts {
		s.classes = append(s.classes, c)
	}
	sort.Strings(s.classes)
	if total > 0 {
		s.mix = make(map[string]float64, len(counts))
		for c, n := range counts {
			s.mix[c] = float64(n) / float64(total)
		}
	}
	s.scanned = true
}

// Len returns the number of transactions. The first call scans the file.
func (s *Stream) Len() int { s.scan(); return s.n }

// Classes returns the distinct class names, sorted (first call scans).
func (s *Stream) Classes() []string { s.scan(); return s.classes }

// Mix returns each class's workload fraction (first call scans).
func (s *Stream) Mix() map[string]float64 { s.scan(); return s.mix }

// All iterates (index, transaction) in trace order, streaming chunk by
// chunk. The yielded pointer is a reused scratch transaction — valid
// only during the yield (see Workload). Check Err after the loop.
func (s *Stream) All() iter.Seq2[int, *Txn] {
	return func(yield func(int, *Txn) bool) {
		var scratch Txn
		var accBuf []Access
		idx := 0
		for chunk, err := range s.Chunks() {
			if err != nil {
				s.err = err
				return
			}
			for i := 0; i < chunk.NumTxns(); i++ {
				chunk.fill(&scratch, &accBuf, i)
				if !yield(idx, &scratch) {
					return
				}
				idx++
			}
		}
	}
}
