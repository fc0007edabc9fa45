package db

import (
	"testing"

	"repro/internal/value"
)

// opSeeds are one encoding of every op kind, plus a few malformed ones.
func opSeeds() [][]byte {
	iv := value.NewInt
	ops := []Op{
		{Kind: OpInsert, Table: "TRADE", Row: value.Tuple{iv(1), value.NewString("x"), value.NewFloat(2.5), {}}},
		{Kind: OpUpdate, Table: "TRADE", Key: intKey(5), Cols: []string{"T_QTY", "T_CA_ID"},
			Vals: []value.Value{iv(42), value.NewString("long enough to need a string length")}},
		{Kind: OpDelete, Table: "CUSTOMER_ACCOUNT", Key: intKey(2)},
		{Kind: OpTouch, Table: "HOLDING_SUMMARY", Key: value.MakeKey(value.NewString("ADLAE"), iv(1))},
	}
	var seeds [][]byte
	for _, op := range ops {
		enc := op.Encode(nil)
		seeds = append(seeds, enc, enc[:len(enc)-1], append(enc[:len(enc):len(enc)], 0))
	}
	return append(seeds, nil, []byte{byte(OpTouch)}, []byte{9, 1, 'T', 0},
		// A well-framed insert whose row holds a bad kind byte.
		[]byte{byte(OpInsert), 1, 'T', 2, 9, 0},
		// An update value holding a string whose length overflows.
		[]byte{byte(OpUpdate), 1, 'T', 1, 'k', 1, 1, 'c', 12, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 'a'})
}

// FuzzCheckOp: CheckOp accepts exactly the encodings DecodeOp accepts,
// with the same error, and names the same table; neither panics.
func FuzzCheckOp(f *testing.F) {
	for _, s := range opSeeds() {
		f.Add(s)
	}
	d := New(custInfoSchema())
	f.Fuzz(func(t *testing.T, body []byte) {
		table, cerr := CheckOp(body)
		op, derr := d.DecodeOp(body)
		if (cerr == nil) != (derr == nil) {
			t.Fatalf("CheckOp err %v, DecodeOp err %v", cerr, derr)
		}
		if derr != nil {
			if cerr.Error() != derr.Error() {
				t.Fatalf("errors differ: CheckOp %q, DecodeOp %q", cerr, derr)
			}
			return
		}
		if string(table) != op.Table {
			t.Fatalf("CheckOp table %q, DecodeOp table %q", table, op.Table)
		}
	})
}

// TestCheckOpAllocatesNothing: validating a received write costs no
// allocation, whatever its kind.
func TestCheckOpAllocatesNothing(t *testing.T) {
	d := New(custInfoSchema())
	for _, body := range opSeeds()[:12:12] {
		if _, err := d.DecodeOp(body); err != nil {
			continue
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := CheckOp(body); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("CheckOp(%x): %v allocs, want 0", body, n)
		}
	}
}

// TestDBDecodeOpNamesTableFromSchema: the store's decoder hands back the
// schema's table name string, so decoding allocates no name; an unknown
// table still decodes.
func TestDBDecodeOpNamesTableFromSchema(t *testing.T) {
	d := New(custInfoSchema())
	body := Op{Kind: OpTouch, Table: "TRADE", Key: intKey(3)}.Encode(nil)
	op, err := d.DecodeOp(body)
	if err != nil || op.Table != "TRADE" || op.Key != intKey(3) {
		t.Fatalf("DecodeOp = %v, %v", op, err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := d.DecodeOp(body); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("DecodeOp of a touch: %v allocs, want 1 (the key)", n)
	}
	op, err = d.DecodeOp(Op{Kind: OpTouch, Table: "NOPE", Key: intKey(3)}.Encode(nil))
	if err != nil || op.Table != "NOPE" {
		t.Fatalf("unknown table: DecodeOp = %v, %v", op, err)
	}
}
