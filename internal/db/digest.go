package db

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	"repro/internal/schema"
	"repro/internal/value"
)

// ErrSnapshot is wrapped by every snapshot-decoding failure (corrupt
// checkpoint payloads in a WAL must error, never panic).
var ErrSnapshot = errors.New("db: malformed snapshot")

// snapshotMagic pins the checkpoint format; bump the trailing digit on
// incompatible changes. V2 appended a per-table graveyard section so
// decoded databases keep GetAny navigability for rows the workload
// deleted; V1 payloads (no graveyard) still decode.
const (
	snapshotMagic   = "JSNP2"
	snapshotMagicV1 = "JSNP1"
)

// Digest returns a deterministic 64-bit digest of the table's durable
// state: FNV-1a over the live rows (sorted by primary key, each with its
// unambiguous value encoding) and the Touch version counters (sorted by
// key). Two tables have equal digests iff they hold the same rows and the
// same committed write counts — the byte-for-byte contract the
// consistency oracle asserts after crash recovery. The graveyard and
// index state are deliberately excluded: they are tracing conveniences,
// not durable state.
func (t *Table) Digest() uint64 {
	t.mu.Lock() // versionKeysLocked updates the sorted version keys
	defer t.mu.Unlock()
	h := fnv.New64a()
	var buf, enc []byte

	for _, k := range sortedKeys(t.pk) {
		buf = append(buf[:0], 'R')
		buf = appendString(buf, string(k))
		enc = encodeValues(enc[:0], t.rows[t.pk[k]])
		buf = appendBytes(buf, enc)
		h.Write(buf)
	}
	for _, k := range t.versionKeysLocked() {
		buf = append(buf[:0], 'V')
		buf = appendString(buf, string(k))
		buf = appendUvarint(buf, t.versions[k].n)
		h.Write(buf)
	}
	return h.Sum64()
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[value.Key]V) []value.Key {
	return appendSortedKeys(make([]value.Key, 0, len(m)), m)
}

// appendSortedKeys appends m's keys to dst and sorts all of dst.
func appendSortedKeys[V any](dst []value.Key, m map[value.Key]V) []value.Key {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// encodeValues appends the concatenated per-value encodings of row.
func encodeValues(dst []byte, row value.Tuple) []byte {
	for _, v := range row {
		dst = v.Encode(dst)
	}
	return dst
}

// TableDigests returns the per-table digests of the whole database, keyed
// by table name.
func (d *DB) TableDigests() map[string]uint64 {
	out := make(map[string]uint64, len(d.tables))
	for name, t := range d.tables {
		out[name] = t.Digest()
	}
	return out
}

// EncodeSnapshot serializes the database's state (live rows, version
// counters, and graveyard rows of every table, sorted for determinism) —
// the payload of a WAL CHECKPOINT record and the row universe a captured
// trace is evaluated against (tracegen -db-out). The graveyard rides
// along so join paths through since-deleted rows stay navigable after a
// decode; it is still excluded from Digest, which covers durable state
// only. The same state always encodes to the same bytes.
func (d *DB) EncodeSnapshot() []byte {
	return d.AppendSnapshot(nil)
}

// AppendSnapshot appends EncodeSnapshot's bytes to dst and returns the
// extended slice, so a caller can encode into a buffer it reuses.
func (d *DB) AppendSnapshot(dst []byte) []byte {
	names := make([]string, 0, len(d.tables))
	for name := range d.tables {
		names = append(names, name)
	}
	slices.Sort(names)

	out := append(dst, snapshotMagic...)
	out = appendUvarint(out, uint64(len(names)))
	var enc []byte
	for _, name := range names {
		t := d.tables[name]
		t.mu.Lock() // versionKeysLocked updates the sorted version keys
		out = appendString(out, name)

		keys := sortedKeys(t.pk)
		out = appendUvarint(out, uint64(len(keys)))
		for _, k := range keys {
			enc = encodeValues(enc[:0], t.rows[t.pk[k]])
			out = appendBytes(out, enc)
		}

		vkeys := t.versionKeysLocked()
		out = appendUvarint(out, uint64(len(vkeys)))
		for _, k := range vkeys {
			out = appendString(out, string(k))
			out = appendUvarint(out, t.versions[k].n)
		}

		gkeys := sortedKeys(t.graveyard)
		out = appendUvarint(out, uint64(len(gkeys)))
		for _, k := range gkeys {
			enc = encodeValues(enc[:0], t.graveyard[k])
			out = appendBytes(out, enc)
		}
		t.mu.Unlock()
	}
	return out
}

func snapErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSnapshot, fmt.Sprintf(format, args...))
}

// DecodeSnapshot rebuilds a database from a snapshot produced by
// EncodeSnapshot, validated against the schema. All failures wrap
// ErrSnapshot; the function never panics on corrupt input.
func DecodeSnapshot(sc *schema.Schema, data []byte) (*DB, error) {
	if len(data) < len(snapshotMagic) {
		return nil, snapErrf("bad magic")
	}
	magic := string(data[:len(snapshotMagic)])
	if magic != snapshotMagic && magic != snapshotMagicV1 {
		return nil, snapErrf("bad magic")
	}
	dec := &opDecoder{b: data[len(snapshotMagic):]}
	d := New(sc)
	ntables, err := dec.uvarint()
	if err != nil {
		return nil, snapErrf("table count: %v", err)
	}
	if ntables > uint64(len(dec.b)) {
		return nil, snapErrf("table count %d exceeds remaining bytes", ntables)
	}
	for i := uint64(0); i < ntables; i++ {
		nameB, err := dec.bytes()
		if err != nil {
			return nil, snapErrf("table %d name: %v", i, err)
		}
		t := d.Table(string(nameB))
		if t == nil {
			return nil, snapErrf("table %q not in schema", nameB)
		}
		nrows, err := dec.uvarint()
		if err != nil {
			return nil, snapErrf("%s: row count: %v", nameB, err)
		}
		if nrows > uint64(len(dec.b)) {
			return nil, snapErrf("%s: row count %d exceeds remaining bytes", nameB, nrows)
		}
		for r := uint64(0); r < nrows; r++ {
			enc, err := dec.bytes()
			if err != nil {
				return nil, snapErrf("%s: row %d: %v", nameB, r, err)
			}
			vals, err := value.DecodeKey(value.Key(enc))
			if err != nil {
				return nil, snapErrf("%s: row %d: %v", nameB, r, err)
			}
			if len(vals) != len(t.meta.Columns) {
				return nil, snapErrf("%s: row %d: arity %d, want %d",
					nameB, r, len(vals), len(t.meta.Columns))
			}
			if _, err := t.Insert(value.Tuple(vals)); err != nil {
				return nil, snapErrf("%s: row %d: %v", nameB, r, err)
			}
		}
		nvers, err := dec.uvarint()
		if err != nil {
			return nil, snapErrf("%s: version count: %v", nameB, err)
		}
		if nvers > uint64(len(dec.b)) {
			return nil, snapErrf("%s: version count %d exceeds remaining bytes", nameB, nvers)
		}
		for v := uint64(0); v < nvers; v++ {
			key, err := dec.bytes()
			if err != nil {
				return nil, snapErrf("%s: version key %d: %v", nameB, v, err)
			}
			ver, err := dec.uvarint()
			if err != nil {
				return nil, snapErrf("%s: version %d: %v", nameB, v, err)
			}
			t.setVersion(value.Key(key), ver)
		}
		if magic == snapshotMagicV1 {
			continue
		}
		ngrave, err := dec.uvarint()
		if err != nil {
			return nil, snapErrf("%s: graveyard count: %v", nameB, err)
		}
		if ngrave > uint64(len(dec.b)) {
			return nil, snapErrf("%s: graveyard count %d exceeds remaining bytes", nameB, ngrave)
		}
		for g := uint64(0); g < ngrave; g++ {
			enc, err := dec.bytes()
			if err != nil {
				return nil, snapErrf("%s: graveyard row %d: %v", nameB, g, err)
			}
			vals, err := value.DecodeKey(value.Key(enc))
			if err != nil {
				return nil, snapErrf("%s: graveyard row %d: %v", nameB, g, err)
			}
			if len(vals) != len(t.meta.Columns) {
				return nil, snapErrf("%s: graveyard row %d: arity %d, want %d",
					nameB, g, len(vals), len(t.meta.Columns))
			}
			t.setGraveyard(value.Tuple(vals))
		}
	}
	if len(dec.b) != 0 {
		return nil, snapErrf("%d trailing bytes", len(dec.b))
	}
	return d, nil
}

// setGraveyard installs a deleted row's last version directly (snapshot
// decode only); the key is recomputed from the row's primary-key columns.
func (t *Table) setGraveyard(row value.Tuple) {
	k := t.PKOf(row)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.graveyard == nil {
		t.graveyard = make(map[value.Key]value.Tuple)
	}
	t.graveyard[k] = row
}

// setVersion installs a version counter directly (snapshot decode only).
func (t *Table) setVersion(k value.Key, v uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if v == 0 {
		return
	}
	if t.versions == nil {
		t.versions = make(map[value.Key]version)
	}
	if _, ok := t.versions[k]; !ok && t.vsynced {
		t.vadded = append(t.vadded, k)
	}
	t.versions[k] = version{key: k, n: v}
}
