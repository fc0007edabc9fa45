package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/db"
	"repro/internal/schema"
	"repro/internal/value"
)

func testSchema() *schema.Schema {
	s := schema.New("wal_test")
	s.AddTable("ACCOUNT", schema.Cols("A_ID", schema.Int, "A_BAL", schema.Int), "A_ID")
	s.AddTable("ORDERS", schema.Cols("O_ID", schema.Int, "O_A_ID", schema.Int), "O_ID")
	return s.MustValidate()
}

func key(id int64) value.Key { return value.MakeKey(value.NewInt(id)) }

func tuple(vs ...int64) value.Tuple {
	out := make(value.Tuple, len(vs))
	for i, v := range vs {
		out[i] = value.NewInt(v)
	}
	return out
}

func touchOp(table string, id int64) db.Op {
	return db.Op{Kind: db.OpTouch, Table: table, Key: key(id)}
}

// checkDigests fails unless got's table digests are those of a fresh
// store that applied want.
func checkDigests(t *testing.T, sc *schema.Schema, got *db.DB, want ...db.Op) {
	t.Helper()
	d := db.New(sc)
	for _, op := range want {
		if err := d.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	gd := got.TableDigests()
	for name, dg := range d.TableDigests() {
		if gd[name] != dg {
			t.Errorf("table %s digest %x, want %x", name, gd[name], dg)
		}
	}
}

// appendTxn writes one committed transaction's records.
func appendTxn(t *testing.T, l *Log, txn uint64, ops ...db.Op) {
	t.Helper()
	if err := l.Append(RecBegin, txn, nil); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := l.Append(RecWrite, txn, op.Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Append(RecCommit, txn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseRoundTripAndReplay(t *testing.T) {
	sc := testSchema()
	path := filepath.Join(t.TempDir(), "p.wal")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	appendTxn(t, l, 1, touchOp("ACCOUNT", 10), touchOp("ORDERS", 20))
	appendTxn(t, l, 2, touchOp("ACCOUNT", 10))
	// An aborted transaction: staged writes must not apply.
	_ = l.Append(RecBegin, 3, nil)
	_ = l.Append(RecWrite, 3, touchOp("ACCOUNT", 99).Encode(nil))
	_ = l.Append(RecAbort, 3, nil)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := RecoverFile(sc, path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TailErr != nil {
		t.Fatalf("clean log: TailErr = %v", rec.TailErr)
	}
	if len(rec.Committed) != 2 {
		t.Fatalf("committed = %v", rec.Committed)
	}
	// ACCOUNT/10 twice and ORDERS/20 once; the aborted ACCOUNT/99 never.
	checkDigests(t, sc, rec.DB, touchOp("ACCOUNT", 10), touchOp("ORDERS", 20), touchOp("ACCOUNT", 10))
}

func TestRecoveryFromCheckpointMatchesFullReplay(t *testing.T) {
	sc := testSchema()
	path := filepath.Join(t.TempDir(), "p.wal")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	appendTxn(t, l, 1, touchOp("ACCOUNT", 1), touchOp("ACCOUNT", 2))
	appendTxn(t, l, 2, touchOp("ORDERS", 7))

	// Checkpoint the state so far, then more commits.
	base := db.New(sc)
	base.Table("ACCOUNT").Touch(key(1))
	base.Table("ACCOUNT").Touch(key(2))
	base.Table("ORDERS").Touch(key(7))
	if err := WriteCheckpoint(l, base); err != nil {
		t.Fatal(err)
	}
	appendTxn(t, l, 3, touchOp("ACCOUNT", 1))
	l.Close()

	rec, err := RecoverFile(sc, path)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.CheckpointSeen {
		t.Fatal("checkpoint not used")
	}
	if len(rec.Committed) != 1 || rec.Committed[0] != 3 {
		t.Fatalf("post-checkpoint committed = %v", rec.Committed)
	}
	want := db.New(sc)
	want.Table("ACCOUNT").Touch(key(1))
	want.Table("ACCOUNT").Touch(key(2))
	want.Table("ORDERS").Touch(key(7))
	want.Table("ACCOUNT").Touch(key(1))
	for name, dg := range want.TableDigests() {
		if got := rec.DB.TableDigests()[name]; got != dg {
			t.Errorf("table %s digest %x, want %x", name, got, dg)
		}
	}
}

func TestTornTailRecoversPrefix(t *testing.T) {
	sc := testSchema()
	path := filepath.Join(t.TempDir(), "p.wal")
	l, _ := Create(path)
	appendTxn(t, l, 1, touchOp("ACCOUNT", 1))
	clean := l.Bytes()
	// Crash mid-append of txn 2's commit record.
	_ = l.Append(RecBegin, 2, nil)
	_ = l.Append(RecWrite, 2, touchOp("ACCOUNT", 2).Encode(nil))
	_ = l.AppendTorn(RecCommit, 2, nil, 5)
	l.Close()

	rec, err := RecoverFile(sc, path)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rec.TailErr, ErrTornTail) {
		t.Fatalf("TailErr = %v, want ErrTornTail", rec.TailErr)
	}
	if len(rec.Committed) != 1 || rec.Committed[0] != 1 {
		t.Fatalf("committed = %v", rec.Committed)
	}
	checkDigests(t, sc, rec.DB, touchOp("ACCOUNT", 1)) // not txn 2's write
	if rec.Discarded != 1 {
		t.Errorf("discarded = %d, want 1 (txn 2 presumed aborted)", rec.Discarded)
	}
	if rec.CleanLen <= clean {
		t.Errorf("clean length %d not past txn 2's writes", rec.CleanLen)
	}
}

func TestBitFlipStopsAtCorruptRecord(t *testing.T) {
	sc := testSchema()
	path := filepath.Join(t.TempDir(), "p.wal")
	l, _ := Create(path)
	appendTxn(t, l, 1, touchOp("ACCOUNT", 1))
	mid := l.Bytes()
	appendTxn(t, l, 2, touchOp("ACCOUNT", 2))
	l.Close()

	data, _ := os.ReadFile(path)
	data[mid+frameHeader] ^= 0x40 // flip a bit inside txn 2's first body
	rec := RecoverData(sc, data)
	if !errors.Is(rec.TailErr, ErrCorrupt) {
		t.Fatalf("TailErr = %v, want ErrCorrupt", rec.TailErr)
	}
	if len(rec.Committed) != 1 {
		t.Fatalf("committed = %v", rec.Committed)
	}
	if rec.CleanLen != mid {
		t.Errorf("clean length = %d, want %d", rec.CleanLen, mid)
	}
}

func TestRecoverDirResolvesInDoubt(t *testing.T) {
	sc := testSchema()
	dir := t.TempDir()

	// Partition 0 is the coordinator: it decided COMMIT for txn 5 and
	// nothing for txn 6.
	l0, _ := Create(PartitionLogPath(dir, 0))
	appendTxn(t, l0, 5, touchOp("ACCOUNT", 1))
	l0.Close()

	// Partition 1 prepared both txns and crashed before the commits; the
	// crash also tore its tail.
	l1, _ := Create(PartitionLogPath(dir, 1))
	coord := []byte{0} // uvarint(0)
	_ = l1.Append(RecBegin, 5, nil)
	_ = l1.Append(RecWrite, 5, touchOp("ORDERS", 50).Encode(nil))
	_ = l1.Append(RecPrepare, 5, coord)
	_ = l1.Append(RecBegin, 6, nil)
	_ = l1.Append(RecWrite, 6, touchOp("ORDERS", 60).Encode(nil))
	_ = l1.Append(RecPrepare, 6, coord)
	_ = l1.AppendTorn(RecCommit, 5, nil, 3)
	l1.Close()

	cr, err := RecoverDir(sc, dir)
	if err != nil {
		t.Fatal(err)
	}
	if cr.InDoubtCommitted != 1 || cr.InDoubtAborted != 1 {
		t.Fatalf("resolution: %d committed / %d aborted, want 1/1",
			cr.InDoubtCommitted, cr.InDoubtAborted)
	}
	if cr.TornTails != 1 {
		t.Errorf("torn tails = %d, want 1", cr.TornTails)
	}
	// In-doubt txn 5 (coordinator committed) applied, txn 6 (presumed
	// abort) not.
	checkDigests(t, sc, cr.Parts[1].DB, touchOp("ORDERS", 50))

	// Resolution is durable: a second recovery finds nothing in doubt
	// and the same digests.
	want := cr.TableDigests()
	cr2, err := RecoverDir(sc, dir)
	if err != nil {
		t.Fatal(err)
	}
	if cr2.InDoubtCommitted != 0 || cr2.InDoubtAborted != 0 || cr2.TornTails != 0 {
		t.Errorf("second recovery not clean: %+v", cr2)
	}
	for _, p := range cr2.Parts {
		if len(p.InDoubt) != 0 {
			t.Error("in-doubt transactions survived resolution")
		}
	}
	got := cr2.TableDigests()
	for name, dg := range want {
		if got[name] != dg {
			t.Errorf("table %s digest changed across re-recovery: %x -> %x", name, got[name], dg)
		}
	}
}

func TestRecoverFileMissingIsEmpty(t *testing.T) {
	rec, err := RecoverFile(testSchema(), filepath.Join(t.TempDir(), "absent.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 0 || rec.TailErr != nil || len(rec.Committed) != 0 {
		t.Errorf("missing file recovery not empty: %+v", rec)
	}
}
