package repl

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/fixture"
	"repro/internal/schema"
	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/wal"
)

func intKey(v int64) value.Key { return value.MakeKey(value.NewInt(v)) }

func writeRec(txn uint64, op db.Op) wal.Record {
	return wal.Record{Type: wal.RecWrite, Txn: txn, Payload: op.Encode(nil)}
}

// protocolChain builds a chain over the CustInfo schema that exercises
// every record type a replica group logs: plain commits, prepared
// commits, prepared and unprepared aborts, and interleaved transactions.
// Transaction ids start at first; inserted keys are offset by it so two
// chains built with different first ids do not collide.
func protocolChain(first uint64) []wal.Record {
	k := int64(first) * 100
	t1, t2, t3, t4, t5, t6 := first, first+1, first+2, first+3, first+4, first+5
	return []wal.Record{
		{Type: wal.RecBegin, Txn: t1},
		writeRec(t1, db.Op{Kind: db.OpInsert, Table: "CUSTOMER_ACCOUNT",
			Row: value.Tuple{value.NewInt(k), value.NewInt(3)}}),
		writeRec(t1, db.Op{Kind: db.OpInsert, Table: "TRADE",
			Row: value.Tuple{value.NewInt(k + 1), value.NewInt(k), value.NewInt(5)}}),
		{Type: wal.RecCommit, Txn: t1},
		{Type: wal.RecBegin, Txn: t2},
		writeRec(t2, db.Op{Kind: db.OpUpdate, Table: "TRADE", Key: intKey(k + 1),
			Cols: []string{"T_QTY"}, Vals: []value.Value{value.NewInt(9)}}),
		{Type: wal.RecPrepare, Txn: t2, Payload: []byte{1}},
		{Type: wal.RecCommit, Txn: t2},
		{Type: wal.RecBegin, Txn: t3},
		writeRec(t3, db.Op{Kind: db.OpDelete, Table: "TRADE", Key: intKey(k + 1)}),
		{Type: wal.RecPrepare, Txn: t3, Payload: []byte{0}},
		{Type: wal.RecAbort, Txn: t3},
		{Type: wal.RecBegin, Txn: t4},
		writeRec(t4, db.Op{Kind: db.OpInsert, Table: "HOLDING_SUMMARY",
			Row: value.Tuple{value.NewString("ZZ"), value.NewInt(k), value.NewInt(2)}}),
		{Type: wal.RecBegin, Txn: t5},
		writeRec(t5, db.Op{Kind: db.OpInsert, Table: "TRADE",
			Row: value.Tuple{value.NewInt(k + 2), value.NewInt(k), value.NewInt(1)}}),
		{Type: wal.RecCommit, Txn: t5},
		{Type: wal.RecCommit, Txn: t4},
		{Type: wal.RecBegin, Txn: t6},
		writeRec(t6, db.Op{Kind: db.OpDelete, Table: "TRADE", Key: intKey(k + 2)}),
		{Type: wal.RecAbort, Txn: t6},
		{Type: wal.RecBegin, Txn: t6 + 1},
		writeRec(t6+1, db.Op{Kind: db.OpDelete, Table: "TRADE", Key: intKey(k + 2)}),
		{Type: wal.RecCommit, Txn: t6 + 1},
	}
}

// eagerStore is the reference: a wal.Applier fed every record at once.
type eagerStore struct {
	t   *testing.T
	app *wal.Applier
}

func (e *eagerStore) apply(rec wal.Record) {
	e.t.Helper()
	if err := e.app.Apply(rec); err != nil {
		e.t.Fatalf("reference apply %v txn %d: %v", rec.Type, rec.Txn, err)
	}
}

func (e *eagerStore) check(what string, got []byte) {
	e.t.Helper()
	if want := e.app.DB().EncodeSnapshot(); !bytes.Equal(got, want) {
		e.t.Fatalf("%s: member store differs from the eager applier's (%d vs %d bytes)", what, len(got), len(want))
	}
}

// newTestPrimary builds a group primary over a fresh log in dir.
func newTestPrimary(t *testing.T, sc *schema.Schema, dir string) *primary {
	t.Helper()
	log, err := wal.Create(filepath.Join(dir, "primary.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return &primary{chain: newChain(sc, log), acked: map[int]int64{}}
}

// chainStore materializes a member's store and encodes it, as
// snapshotTo does.
func chainStore(t *testing.T, c *chain) []byte {
	t.Helper()
	st, err := c.store()
	if err != nil {
		t.Fatal(err)
	}
	return st.EncodeSnapshot()
}

// TestMemberStoreMatchesEagerApply pins the store a replica member
// serves — the one snapshotTo encodes, and the one a promotion adopts —
// against an eager wal.Applier fed the same records, at every prefix of a
// chain holding every protocol record type and a snapshot install.
func TestMemberStoreMatchesEagerApply(t *testing.T) {
	sc := fixture.CustInfoSchema()

	t.Run("primary", func(t *testing.T) {
		p := newTestPrimary(t, sc, t.TempDir())
		ref := &eagerStore{t: t, app: wal.NewApplier(sc)}
		ref.check("empty chain", chainStore(t, &p.chain))
		for i, rec := range protocolChain(1) {
			if err := p.append(rec.Type, rec.Txn, rec.Payload); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			ref.apply(rec)
			ref.check("single-record prefix", chainStore(t, &p.chain))
		}
		// One protocol step per appendTxn, as writeRound logs them.
		ops := []db.Op{
			{Kind: db.OpInsert, Table: "TRADE", Row: value.Tuple{value.NewInt(901), value.NewInt(1), value.NewInt(4)}},
			{Kind: db.OpUpdate, Table: "TRADE", Key: intKey(901), Cols: []string{"T_QTY"}, Vals: []value.Value{value.NewInt(6)}},
		}
		steps := []struct {
			txn     uint64
			tail    wal.RecType
			payload []byte
		}{{50, wal.RecCommit, nil}, {51, wal.RecPrepare, []byte{1}}, {52, 0, nil}}
		for _, s := range steps {
			stepOps := ops
			if s.txn != 50 {
				stepOps = ops[1:]
			}
			bodies := make([][]byte, len(stepOps))
			for i, op := range stepOps {
				bodies[i] = op.Encode(nil)
			}
			if err := p.appendTxn(s.txn, bodies, s.tail, s.payload); err != nil {
				t.Fatalf("appendTxn %d: %v", s.txn, err)
			}
			ref.apply(wal.Record{Type: wal.RecBegin, Txn: s.txn})
			for _, op := range stepOps {
				ref.apply(writeRec(s.txn, op))
			}
			if s.tail != 0 {
				ref.apply(wal.Record{Type: s.tail, Txn: s.txn, Payload: s.payload})
			}
			ref.check("transaction step", chainStore(t, &p.chain))
		}
		for _, txn := range []uint64{51, 52} {
			if err := p.append(wal.RecCommit, txn, nil); err != nil {
				t.Fatal(err)
			}
			ref.apply(wal.Record{Type: wal.RecCommit, Txn: txn})
			ref.check("decision", chainStore(t, &p.chain))
		}
	})

	t.Run("backup", func(t *testing.T) {
		bus := transport.NewBus()
		bEp, err := bus.Endpoint(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bus.Endpoint(9); err != nil {
			t.Fatal(err)
		}
		b, err := newBackup(0, 1, 2, sc, t.TempDir(), bEp)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.log.Close() })
		ctx := context.Background()
		ref := &eagerStore{t: t, app: wal.NewApplier(sc)}
		var seq int64
		// ship logs recs as one batch; read checks the store afterwards,
		// and a batch shipped without it stays in the unapplied backlog.
		ship := func(recs []wal.Record, read bool) {
			t.Helper()
			if _, err := b.handleAppend(ctx, transport.Msg{Type: MsgAppend, From: 9, To: 1,
				Payload: encodeAppend(0, seq, recs)}); err != nil {
				t.Fatalf("append at %d: %v", seq, err)
			}
			seq += int64(len(recs))
			for _, rec := range recs {
				ref.apply(rec)
			}
			if read {
				ref.check("shipped prefix", chainStore(t, &b.chain))
			}
		}

		ref.check("empty chain", chainStore(t, &b.chain))
		head := protocolChain(1)
		for _, rec := range head[:12] {
			ship([]wal.Record{rec}, true)
		}
		// The rest is never read before the snapshot install, which must
		// drop the unapplied backlog with the history.
		for _, rec := range head[12:] {
			ship([]wal.Record{rec}, false)
		}
		// A snapshot install resets the chain at its base.
		snap := fixture.CustInfoDB().EncodeSnapshot()
		seq += 7
		if err := b.handleSnapshot(ctx, transport.Msg{Type: MsgSnapshotOffer, From: 9, To: 1,
			Payload: encodeSnapshot(0, seq, snap)}); err != nil {
			t.Fatal(err)
		}
		ref.apply(wal.Record{Type: wal.RecCheckpoint, Payload: snap})
		ref.check("snapshot install", chainStore(t, &b.chain))
		// The tail after the install: single records, then one batch.
		tail := protocolChain(20)
		for _, rec := range tail[:10] {
			ship([]wal.Record{rec}, true)
		}
		ship(tail[10:16], false)
		ship(tail[16:], true)
	})
}

// TestBadShipBatchNoAck pins what a backup does with a ship batch whose
// WRITE does not decode, or names a table the schema lacks: the batch is
// logged as received, no ack goes out, and the server stops.
func TestBadShipBatchNoAck(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write []byte
	}{
		{"undecodable-write", []byte{0xff, 0x01}},
		{"unknown-table-write", (db.Op{Kind: db.OpTouch, Table: "NOPE", Key: intKey(1)}).Encode(nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			b, dEp, stop := busPair(t, dir)
			defer stop()
			good := chainRecords(1)
			if m := sendRecv(t, dEp, 1, MsgAppend, encodeAppend(0, 0, good)); m.Type != MsgAppendAck {
				t.Fatalf("valid batch answered with type %d", m.Type)
			}
			bad := []wal.Record{
				{Type: wal.RecBegin, Txn: 2},
				{Type: wal.RecWrite, Txn: 2, Payload: tc.write},
				{Type: wal.RecCommit, Txn: 2},
			}
			if err := dEp.Send(context.Background(), transport.Msg{Type: MsgAppend, From: 9, To: 1, Attempt: 2,
				Payload: encodeAppend(0, int64(len(good)), bad)}); err != nil {
				t.Fatal(err)
			}
			select {
			case <-b.done:
			case <-time.After(5 * time.Second):
				t.Fatal("backup kept serving after a bad batch")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			if m, err := dEp.Recv(ctx); err == nil {
				t.Fatalf("bad batch answered with type %d", m.Type)
			}

			var want []byte
			for _, rec := range append(good, bad...) {
				want = wal.EncodeRecord(want, rec.Type, rec.Txn, rec.Payload)
			}
			got, err := os.ReadFile(MemberLogPath(dir, 0, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("log holds %d bytes, want the %d bytes of both batches", len(got), len(want))
			}
		})
	}
}

// TestReadMemberLogs pins how the oracle reads member logs: identical
// logs share their group's first copy, a log that differs from it only
// in its last byte stays distinct, and a missing file is an empty log,
// equal to an empty file. The logs span several compareChunk reads.
func TestReadMemberLogs(t *testing.T) {
	dir := t.TempDir()
	h := &harness{k: 2, cfg: Config{Replicas: 2, WALDir: dir}}
	data := make([]byte, 3*compareChunk+100)
	for i := range data {
		data[i] = byte(i * 7)
	}
	last := append([]byte(nil), data...)
	last[len(last)-1]++
	for _, f := range []struct {
		g, m  int
		bytes []byte // nil: no file
	}{
		{0, 0, data}, {0, 1, data}, {0, 2, last},
		{1, 1, []byte{}}, {1, 2, data},
	} {
		if err := os.WriteFile(MemberLogPath(dir, f.g, f.m), f.bytes, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	members, same, logs := h.readMemberLogs()
	for i, m := range members {
		if m.err != nil {
			t.Fatalf("member %d: %v", i, m.err)
		}
	}
	if want := []int{0, 0, 2, 3, 3, 5}; !reflect.DeepEqual(same, want) {
		t.Fatalf("same = %v, want %v", same, want)
	}
	for i, want := range [][]byte{data, nil, last, nil, nil, data} {
		if !bytes.Equal(logs[i], want) {
			t.Errorf("logs[%d] holds %d bytes, want %d", i, len(logs[i]), len(want))
		}
		if same[i] != i && logs[i] != nil {
			t.Errorf("logs[%d] keeps a copy of member %d's log", i, same[i])
		}
	}
}
