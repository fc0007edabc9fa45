package wal

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/db"
)

// TestApplierMatchesReplayAtEveryPrefix pins the Applier's contract: the
// incremental store after applying N records equals what a full replay
// of those N records rebuilds — including mid-transaction prefixes,
// aborts, and a checkpoint install.
func TestApplierMatchesReplayAtEveryPrefix(t *testing.T) {
	sc := testSchema()

	var recs []Record
	add := func(typ RecType, txn uint64, payload []byte) {
		recs = append(recs, Record{Type: typ, Txn: txn, Payload: payload})
	}
	add(RecBegin, 1, nil)
	add(RecWrite, 1, touchOp("ACCOUNT", 10).Encode(nil))
	add(RecWrite, 1, touchOp("ORDERS", 20).Encode(nil))
	add(RecCommit, 1, nil)
	add(RecBegin, 2, nil)
	add(RecWrite, 2, touchOp("ACCOUNT", 99).Encode(nil))
	add(RecAbort, 2, nil)
	base := db.New(sc)
	if err := base.Apply(touchOp("ACCOUNT", 7)); err != nil {
		t.Fatal(err)
	}
	add(RecCheckpoint, 0, base.EncodeSnapshot())
	add(RecBegin, 3, nil)
	add(RecWrite, 3, touchOp("ACCOUNT", 10).Encode(nil))
	add(RecPrepare, 3, []byte{0})
	add(RecCommit, 3, nil)

	a := NewApplier(sc)
	for i, rec := range recs {
		if err := a.Apply(rec); err != nil {
			t.Fatalf("apply record %d: %v", i, err)
		}
		want := Replay(sc, recs[:i+1], 0, nil)
		wd, gd := want.DB.TableDigests(), a.DB().TableDigests()
		for name, d := range wd {
			if gd[name] != d {
				t.Fatalf("after record %d: table %s digest %016x, replay wants %016x",
					i, name, gd[name], d)
			}
		}
	}
}

func TestApplierCorruptPayloads(t *testing.T) {
	a := NewApplier(testSchema())
	bad := []Record{
		{Type: RecWrite, Txn: 1, Payload: []byte{0xff, 0xff}},
		{Type: RecPrepare, Txn: 1, Payload: nil},
		{Type: RecCheckpoint, Txn: 0, Payload: []byte("not a snapshot")},
		{Type: RecType(42), Txn: 1},
	}
	for i, rec := range bad {
		if err := a.Apply(rec); !errors.Is(err, ErrCorrupt) {
			t.Errorf("record %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	// A failed apply leaves the store untouched.
	empty := db.New(testSchema()).EncodeSnapshot()
	if got := a.DB().EncodeSnapshot(); !bytes.Equal(got, empty) {
		t.Error("corrupt records mutated the store")
	}
}

func TestApplierReset(t *testing.T) {
	sc := testSchema()
	a := NewApplier(sc)
	if err := a.Apply(Record{Type: RecBegin, Txn: 9}); err != nil {
		t.Fatal(err)
	}
	if err := a.Apply(Record{Type: RecWrite, Txn: 9, Payload: touchOp("ACCOUNT", 1).Encode(nil)}); err != nil {
		t.Fatal(err)
	}
	base := db.New(sc)
	if err := base.Apply(touchOp("ORDERS", 5)); err != nil {
		t.Fatal(err)
	}
	if err := a.Reset(base.EncodeSnapshot()); err != nil {
		t.Fatal(err)
	}
	// The reset dropped txn 9's staged write: its commit applies nothing.
	if err := a.Apply(Record{Type: RecCommit, Txn: 9}); err != nil {
		t.Fatal(err)
	}
	checkDigests(t, sc, a.DB(), touchOp("ORDERS", 5))
}
