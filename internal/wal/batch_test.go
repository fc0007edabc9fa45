package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/db"
)

// appendCall is one observer callback.
type appendCall struct {
	typ   RecType
	txn   uint64
	bytes int
}

// appendEffects is everything an append sequence leaves behind: the file
// bytes, the log's length, the metric deltas and the observer calls.
type appendEffects struct {
	file                 []byte
	logBytes             int64
	records, checkpoints int64
	hdrCount, hdrSum     int64
	calls                []appendCall
}

// recordAppends runs fn against the log at path, opened with OpenAt at
// clean (0 creates it), and collects its effects.
func recordAppends(t *testing.T, path string, clean int64, fn func(l *Log) error) appendEffects {
	t.Helper()
	l, err := OpenAt(path, clean)
	if err != nil {
		t.Fatal(err)
	}
	var eff appendEffects
	l.SetObserver(func(typ RecType, txn uint64, frameBytes int) {
		eff.calls = append(eff.calls, appendCall{typ, txn, frameBytes})
	})
	recs0, ckpt0, h0 := cRecordsAppended.Value(), cCheckpoints.Value(), hAppendBytes.Snapshot()
	if err := fn(l); err != nil {
		t.Fatal(err)
	}
	h1 := hAppendBytes.Snapshot()
	eff.records = cRecordsAppended.Value() - recs0
	eff.checkpoints = cCheckpoints.Value() - ckpt0
	eff.hdrCount, eff.hdrSum = h1.Count-h0.Count, h1.Sum-h0.Sum
	eff.logBytes = l.Bytes()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if eff.file, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return eff
}

func (a appendEffects) equal(b appendEffects) bool {
	if !bytes.Equal(a.file, b.file) || a.logBytes != b.logBytes || a.records != b.records ||
		a.checkpoints != b.checkpoints || a.hdrCount != b.hdrCount || a.hdrSum != b.hdrSum ||
		len(a.calls) != len(b.calls) {
		return false
	}
	for i := range a.calls {
		if a.calls[i] != b.calls[i] {
			return false
		}
	}
	return true
}

// appendEach is the reference: one Append per record.
func appendEach(recs []Record) func(l *Log) error {
	return func(l *Log) error {
		for _, r := range recs {
			if err := l.Append(r.Type, r.Txn, r.Payload); err != nil {
				return err
			}
		}
		return nil
	}
}

// txnRecords spells out the records AppendTxn writes.
func txnRecords(txn uint64, ops []db.Op, tail RecType, tailPayload []byte) []Record {
	recs := []Record{{Type: RecBegin, Txn: txn}}
	for _, op := range ops {
		recs = append(recs, Record{Type: RecWrite, Txn: txn, Payload: op.Encode(nil)})
	}
	if tail != 0 {
		recs = append(recs, Record{Type: tail, Txn: txn, Payload: tailPayload})
	}
	return recs
}

// bodiesOf encodes ops as the WRITE bodies AppendTxn frames.
func bodiesOf(ops []db.Op) [][]byte {
	bodies := make([][]byte, len(ops))
	for i, op := range ops {
		bodies[i] = op.Encode(nil)
	}
	return bodies
}

// TestAppendTxnMatchesAppend pins the batched appends to the per-record
// path: AppendTxn, AppendBatch and WriteCheckpoint must leave the same
// file bytes, log length, counter and HDR deltas and observer call
// sequence as a loop of Append — on a fresh log and on one reopened with
// OpenAt.
func TestAppendTxnMatchesAppend(t *testing.T) {
	sc := testSchema()
	snap := db.New(sc)
	snap.Table("ACCOUNT").Touch(key(1))
	ops := []db.Op{
		touchOp("ACCOUNT", 1),
		{Kind: db.OpInsert, Table: "ORDERS", Row: tuple(5, 1)},
		touchOp("ORDERS", 300),
	}
	bodies := bodiesOf(ops)
	type batchCase struct {
		name    string
		recs    []Record // what the batched call must be equivalent to
		batched func(l *Log) error
	}
	batch := append(txnRecords(6, ops[:1], RecCommit, nil),
		Record{Type: RecCheckpoint, Payload: snap.EncodeSnapshot()},
		Record{Type: RecAbort, Txn: 7})
	big := db.New(sc)
	for i := int64(0); i < 5000; i++ {
		big.Table("ORDERS").Touch(key(i))
	}
	ckpts := append([]Record{{Type: RecCheckpoint, Payload: big.EncodeSnapshot()}},
		append(txnRecords(8, ops, RecCommit, nil), Record{Type: RecCheckpoint, Payload: snap.EncodeSnapshot()})...)
	cases := []batchCase{
		{"zero-ops-no-tail", txnRecords(1, nil, 0, nil),
			func(l *Log) error { return l.AppendTxn(1, nil, 0, nil) }},
		{"zero-ops-commit", txnRecords(2, nil, RecCommit, nil),
			func(l *Log) error { return l.AppendTxn(2, nil, RecCommit, nil) }},
		{"ops-no-tail", txnRecords(3, ops, 0, nil),
			func(l *Log) error { return l.AppendTxn(3, bodies, 0, nil) }},
		{"ops-prepare", txnRecords(4, ops, RecPrepare, []byte{7}),
			func(l *Log) error { return l.AppendTxn(4, bodies, RecPrepare, []byte{7}) }},
		{"ops-commit", txnRecords(5, ops, RecCommit, nil),
			func(l *Log) error { return l.AppendTxn(5, bodies, RecCommit, nil) }},
		{"batch-with-checkpoint", batch, func(l *Log) error { return l.AppendBatch(batch) }},
		{"empty-batch", nil, func(l *Log) error { return l.AppendBatch(nil) }},
		{"checkpoints", ckpts, func(l *Log) error {
			// A large checkpoint, a protocol step, then a smaller
			// checkpoint in the reused checkpoint buffer.
			if err := WriteCheckpoint(l, big); err != nil {
				return err
			}
			if err := l.AppendTxn(8, bodies, RecCommit, nil); err != nil {
				return err
			}
			return WriteCheckpoint(l, snap)
		}},
	}
	for _, reopened := range []bool{false, true} {
		for _, tc := range cases {
			name := tc.name
			if reopened {
				name += "/reopened"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				refPath, gotPath := filepath.Join(dir, "ref.wal"), filepath.Join(dir, "got.wal")
				var clean int64
				if reopened {
					// Both logs start from the same history plus a torn tail
					// that OpenAt must cut before the appends.
					prefix := EncodeRecord(nil, RecBegin, 99, nil)
					clean = int64(len(prefix))
					prefix = append(prefix, EncodeRecord(nil, RecCommit, 99, nil)[:3]...)
					for _, p := range []string{refPath, gotPath} {
						if err := os.WriteFile(p, prefix, 0o644); err != nil {
							t.Fatal(err)
						}
					}
				}
				want := recordAppends(t, refPath, clean, appendEach(tc.recs))
				got := recordAppends(t, gotPath, clean, tc.batched)
				if !got.equal(want) {
					t.Fatalf("batched append effects differ:\n got %+v\nwant %+v", got, want)
				}
				if want.records != int64(len(tc.recs)) {
					t.Fatalf("reference appended %d records, want %d", want.records, len(tc.recs))
				}
			})
		}
	}
}

// TestWarmAppendsAllocateNothing: once the log's encode buffer is warm,
// a single-record Append and a touch-body AppendTxn allocate nothing.
func TestWarmAppendsAllocateNothing(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "p.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	bodies := bodiesOf([]db.Op{touchOp("ACCOUNT", 1), touchOp("ORDERS", 2), touchOp("ACCOUNT", 3)})
	payload := []byte{1, 2, 3}
	if n := testing.AllocsPerRun(100, func() {
		if err := l.Append(RecPrepare, 1, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm Append: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := l.AppendTxn(2, bodies, RecCommit, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm AppendTxn: %v allocs, want 0", n)
	}
}

// BenchmarkLogAppendTxn measures one protocol step on a file-backed log:
// BEGIN, eight touch WRITEs and a COMMIT in one write.
func BenchmarkLogAppendTxn(b *testing.B) {
	l, err := Create(filepath.Join(b.TempDir(), "p.wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	bodies := make([][]byte, 8)
	for i := range bodies {
		bodies[i] = touchOp("ACCOUNT", int64(i)).Encode(nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.AppendTxn(uint64(i+1), bodies, RecCommit, nil); err != nil {
			b.Fatal(err)
		}
	}
}
