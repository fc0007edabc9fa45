package db

import (
	"errors"
	"testing"

	"repro/internal/value"
)

func TestOpEncodeDecodeRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpInsert, Table: "TRADE", Row: value.Tuple{value.NewInt(3), value.NewInt(-1), value.NewInt(0)}},
		{Kind: OpUpdate, Table: "T", Key: value.MakeKey(value.NewInt(7)),
			Cols: []string{"A", "B"}, Vals: []value.Value{value.NewString("x"), value.NewFloat(1.5)}},
		{Kind: OpDelete, Table: "HS", Key: value.MakeKey(value.NewString("sym"), value.NewInt(2))},
		{Kind: OpTouch, Table: "", Key: value.MakeKey(value.NewNull())},
	}
	d := New(custInfoSchema())
	for _, op := range ops {
		enc := op.Encode(nil)
		got, err := d.DecodeOp(enc)
		if err != nil {
			t.Fatalf("DecodeOp(%s): %v", op, err)
		}
		if got.String() != op.String() || got.Kind != op.Kind || got.Table != op.Table || got.Key != op.Key {
			t.Errorf("round trip: got %s, want %s", got, op)
		}
		// Truncations must error (never panic).
		for i := 0; i < len(enc); i++ {
			if _, err := d.DecodeOp(enc[:i]); !errors.Is(err, ErrOpDecode) {
				t.Errorf("DecodeOp(%s[:%d]) = %v, want ErrOpDecode", op, i, err)
			}
		}
	}
	if _, err := d.DecodeOp([]byte{0xff, 0x00}); !errors.Is(err, ErrOpDecode) {
		t.Errorf("unknown kind: %v", err)
	}
	if _, err := d.DecodeOp(append(ops[2].Encode(nil), 0x01)); !errors.Is(err, ErrOpDecode) {
		t.Errorf("trailing bytes: %v", err)
	}
}

func TestApplyRedo(t *testing.T) {
	d := loadFigure1(t)
	k1 := value.MakeKey(value.NewInt(1))
	if err := d.Apply(Op{Kind: OpTouch, Table: "TRADE", Key: k1}); err != nil {
		t.Fatalf("apply touch: %v", err)
	}
	if versionOf(d.Table("TRADE"), k1) != 1 {
		t.Error("touch not applied")
	}
	// Redo insert over an existing key replaces the row.
	if err := d.Apply(Op{Kind: OpInsert, Table: "TRADE",
		Row: value.Tuple{value.NewInt(1), value.NewInt(8), value.NewInt(5)}}); err != nil {
		t.Fatalf("apply insert-overwrite: %v", err)
	}
	row, _ := d.Table("TRADE").Get(k1)
	if row[1].Int() != 8 {
		t.Errorf("insert-overwrite: row = %v", row)
	}
	if err := d.Apply(Op{Kind: OpDelete, Table: "TRADE", Key: value.MakeKey(value.NewInt(999))}); err == nil {
		t.Error("apply delete of missing key succeeded")
	}
	if err := d.Apply(Op{Kind: OpTouch, Table: "NOPE", Key: k1}); err == nil {
		t.Error("apply against unknown table succeeded")
	}
}
