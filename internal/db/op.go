package db

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/value"
)

// ErrOpDecode is wrapped by every op-decoding failure so WAL recovery can
// classify malformed write records from external (possibly corrupted) log
// files without matching message text.
var ErrOpDecode = errors.New("db: malformed op encoding")

// OpKind enumerates the write operations a transaction can stage.
type OpKind uint8

// The write-op kinds. The zero value is invalid so an all-zero record is
// never a valid op.
const (
	OpInsert OpKind = iota + 1
	OpUpdate
	OpDelete
	OpTouch
)

// String returns the lowercase op-kind name.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpTouch:
		return "touch"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is one write: the redo unit of the transaction layer. Ops are what
// CommitOps applies, what WAL WRITE records carry, and what recovery
// re-applies. The encoding is deliberately self-contained (table
// name, key, payload) so a log replays against a fresh database built
// from the schema alone.
type Op struct {
	Kind  OpKind
	Table string
	// Key identifies the target row for update/delete/touch.
	Key value.Key
	// Row is the inserted tuple for OpInsert.
	Row value.Tuple
	// Cols/Vals carry the updated columns for OpUpdate.
	Cols []string
	Vals []value.Value
}

// String renders the op for diagnostics.
func (op Op) String() string {
	switch op.Kind {
	case OpInsert:
		return fmt.Sprintf("insert %s %s", op.Table, op.Row)
	case OpUpdate:
		return fmt.Sprintf("update %s key=%x cols=%v", op.Table, string(op.Key), op.Cols)
	default:
		return fmt.Sprintf("%s %s key=%x", op.Kind, op.Table, string(op.Key))
	}
}

// appendUvarint/appendBytes are the primitive encoders: uvarint lengths,
// raw bytes.
func appendUvarint(dst []byte, n uint64) []byte {
	return binary.AppendUvarint(dst, n)
}

func appendBytes(dst, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// encodeTuple concatenates the unambiguous per-value encodings; the result
// decodes with value.DecodeKey.
func encodeTuple(dst []byte, row value.Tuple) []byte {
	var buf []byte
	for _, v := range row {
		buf = v.Encode(buf)
	}
	return appendBytes(dst, buf)
}

// Encode appends the binary encoding of the op to dst:
//
//	kind byte
//	uvarint len | table name
//	insert:       uvarint len | concatenated value encodings of the row
//	update:       uvarint len | key, uvarint ncols,
//	              (uvarint len | col name, uvarint len | value encoding)*
//	delete/touch: uvarint len | key
func (op Op) Encode(dst []byte) []byte {
	dst = append(dst, byte(op.Kind))
	dst = appendString(dst, op.Table)
	switch op.Kind {
	case OpInsert:
		dst = encodeTuple(dst, op.Row)
	case OpUpdate:
		dst = appendString(dst, string(op.Key))
		dst = appendUvarint(dst, uint64(len(op.Cols)))
		for i, c := range op.Cols {
			dst = appendString(dst, c)
			dst = appendBytes(dst, op.Vals[i].Encode(nil))
		}
	case OpDelete, OpTouch:
		dst = appendString(dst, string(op.Key))
	}
	return dst
}

// opDecoder walks an op encoding with bounds checks everywhere; every
// failure wraps ErrOpDecode (corrupt logs must error, never panic).
type opDecoder struct {
	b []byte
}

func (d *opDecoder) errf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrOpDecode, fmt.Sprintf(format, args...))
}

func (d *opDecoder) byte() (byte, error) {
	if len(d.b) == 0 {
		return 0, d.errf("truncated at kind byte")
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c, nil
}

func (d *opDecoder) uvarint() (uint64, error) {
	n, w := binary.Uvarint(d.b)
	if w <= 0 {
		return 0, d.errf("bad uvarint")
	}
	d.b = d.b[w:]
	return n, nil
}

func (d *opDecoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.b)) {
		return nil, d.errf("length %d exceeds remaining %d bytes", n, len(d.b))
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out, nil
}

// DecodeOp decodes one op produced by Encode. The whole input must be
// consumed; trailing bytes are an error. All failures wrap ErrOpDecode.
// op.Table is taken from d's schema when d knows the table, so decoding
// allocates no table name, and a touch's op.Key from the table when the
// table already versions the key, so decoding allocates no key either: a
// touch allocates only when it adds a key. An unknown table still decodes
// (decoding is structural); applying the op rejects it.
func (d *DB) DecodeOp(data []byte) (Op, error) {
	var op Op
	if _, err := walkOp(data, &op, d.tables); err != nil {
		return Op{}, err
	}
	return op, nil
}

// CheckOp validates one op encoding without decoding it: it accepts
// exactly the encodings DecodeOp accepts, with the same errors, and
// returns the table name as a slice of body. It allocates nothing on
// success, which is what lets the commit path validate a received write
// and keep its encoding as is.
func CheckOp(body []byte) (table []byte, err error) {
	return walkOp(body, nil, nil)
}

// walkOp walks one op encoding with bounds checks everywhere and
// returns its table name bytes. With a non-nil op it also decodes into
// op, naming the table, and a touched key the table holds, with the
// table's own copies when tables holds the table.
func walkOp(data []byte, op *Op, tables map[string]*Table) ([]byte, error) {
	d := &opDecoder{b: data}
	kb, err := d.byte()
	if err != nil {
		return nil, err
	}
	kind := OpKind(kb)
	tbl, err := d.bytes()
	if err != nil {
		return nil, err
	}
	var key []byte // update, delete and touch
	switch kind {
	case OpInsert:
		enc, err := d.bytes()
		if err != nil {
			return nil, err
		}
		if op == nil {
			_, err = value.CheckKey(enc)
		} else {
			var vals []value.Value
			vals, err = value.DecodeKey(value.Key(enc))
			op.Row = value.Tuple(vals)
		}
		if err != nil {
			return nil, d.errf("row: %v", err)
		}
	case OpUpdate:
		key, err = d.bytes()
		if err != nil {
			return nil, err
		}
		ncols, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if ncols > uint64(len(d.b)) { // each col needs >= 1 byte
			return nil, d.errf("column count %d exceeds remaining bytes", ncols)
		}
		for i := uint64(0); i < ncols; i++ {
			col, err := d.bytes()
			if err != nil {
				return nil, err
			}
			venc, err := d.bytes()
			if err != nil {
				return nil, err
			}
			var vs []value.Value
			n := 0
			if op == nil {
				n, err = value.CheckKey(venc)
			} else {
				vs, err = value.DecodeKey(value.Key(venc))
				n = len(vs)
			}
			if err != nil {
				return nil, d.errf("update value: %v", err)
			}
			if n != 1 {
				return nil, d.errf("update value encodes %d values, want 1", n)
			}
			if op != nil {
				op.Cols = append(op.Cols, string(col))
				op.Vals = append(op.Vals, vs[0])
			}
		}
	case OpDelete, OpTouch:
		key, err = d.bytes()
		if err != nil {
			return nil, err
		}
	default:
		return nil, d.errf("unknown op kind %d", kb)
	}
	if len(d.b) != 0 {
		return nil, d.errf("%d trailing bytes after op", len(d.b))
	}
	if op != nil {
		op.Kind = kind
		t := tables[string(tbl)]
		if t != nil {
			op.Table = t.meta.Name
		} else {
			op.Table = string(tbl)
		}
		switch kind {
		case OpTouch:
			op.Key = t.versionedKey(key)
		case OpUpdate, OpDelete:
			op.Key = value.Key(key)
		}
	}
	return tbl, nil
}

// Apply redoes one committed op against the database (the WAL recovery
// path). Apply is tolerant where redo semantics demand it: re-inserting
// over an existing row replaces it, and deleting or updating a missing
// row errors (a structurally valid but semantically impossible log is
// reported, not silently absorbed). Touch always succeeds.
func (d *DB) Apply(op Op) error {
	t := d.Table(op.Table)
	if t == nil {
		return fmt.Errorf("%w: apply %s: unknown table %q", ErrOpDecode, op.Kind, op.Table)
	}
	switch op.Kind {
	case OpInsert:
		if len(op.Row) != len(t.meta.Columns) {
			return fmt.Errorf("db: apply insert %s: arity %d, want %d",
				op.Table, len(op.Row), len(t.meta.Columns))
		}
		k := t.PKOf(op.Row)
		t.Delete(k) // redo overwrite: replace any prior version
		_, err := t.Insert(op.Row)
		return err
	case OpUpdate:
		return t.Update(op.Key, op.Cols, op.Vals)
	case OpDelete:
		if !t.Delete(op.Key) {
			return fmt.Errorf("db: apply delete %s: missing key", op.Table)
		}
		return nil
	case OpTouch:
		t.Touch(op.Key)
		return nil
	default:
		return fmt.Errorf("%w: apply unknown op kind %d", ErrOpDecode, uint8(op.Kind))
	}
}
