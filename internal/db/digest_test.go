package db

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/value"
)

func TestDigestDeterministicAndStateSensitive(t *testing.T) {
	d1 := loadFigure1(t)
	d2 := loadFigure1(t)
	tr1, tr2 := d1.Table("TRADE"), d2.Table("TRADE")
	if tr1.Digest() != tr2.Digest() {
		t.Fatal("identical tables digest differently")
	}
	k := value.MakeKey(value.NewInt(1))
	tr2.Touch(k)
	if tr1.Digest() == tr2.Digest() {
		t.Error("touch did not change digest")
	}
	tr1.Touch(k)
	if tr1.Digest() != tr2.Digest() {
		t.Error("same touch history digests differently")
	}
	if err := tr2.Update(k, []string{"T_QTY"}, []value.Value{value.NewInt(1234)}); err != nil {
		t.Fatal(err)
	}
	if tr1.Digest() == tr2.Digest() {
		t.Error("row update did not change digest")
	}
}

func TestDigestIgnoresGraveyardAndIndexes(t *testing.T) {
	d1 := loadFigure1(t)
	d2 := loadFigure1(t)
	// Build a secondary index and a graveyard entry on d2 only, then
	// restore the row: durable state is identical, digests must match.
	tr2 := d2.Table("TRADE")
	_ = tr2.LookupRows("T_CA_ID", value.NewInt(1))
	k := value.MakeKey(value.NewInt(2))
	row, _ := tr2.Get(k)
	saved := row.Clone()
	tr2.Delete(k)
	if _, err := tr2.Insert(saved); err != nil {
		t.Fatal(err)
	}
	if d1.Table("TRADE").Digest() != tr2.Digest() {
		t.Error("graveyard/index state leaked into digest")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	d := loadFigure1(t)
	tr := d.Table("TRADE")
	tr.Touch(value.MakeKey(value.NewInt(3)))
	tr.Touch(value.MakeKey(value.NewInt(3)))
	tr.Touch(value.MakeKey(value.NewInt(5)))
	// A version entry for a key with no live row (pure durable-store use).
	d.Table("HOLDING_SUMMARY").Touch(value.MakeKey(value.NewString("GHOST"), value.NewInt(0)))

	enc := d.EncodeSnapshot()
	if string(enc) != string(d.EncodeSnapshot()) {
		t.Fatal("snapshot encoding not deterministic")
	}
	got, err := DecodeSnapshot(d.Schema(), enc)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	want, have := d.TableDigests(), got.TableDigests()
	for name, dg := range want {
		if have[name] != dg {
			t.Errorf("table %s: decoded digest %x, want %x", name, have[name], dg)
		}
	}
	if got.TotalRows() != d.TotalRows() {
		t.Errorf("decoded rows = %d, want %d", got.TotalRows(), d.TotalRows())
	}
}

// TestSnapshotCarriesGraveyard: deleted rows survive the snapshot round
// trip so GetAny (and join-path evaluation through since-deleted tuples)
// behaves identically on the decoded database. V1 payloads, which
// predate the graveyard section, still decode.
func TestSnapshotCarriesGraveyard(t *testing.T) {
	d := loadFigure1(t)
	tr := d.Table("TRADE")
	k := value.MakeKey(value.NewInt(2))
	row, _ := tr.Get(k)
	want := row.Clone()
	if !tr.Delete(k) {
		t.Fatal("delete missed")
	}

	got, err := DecodeSnapshot(d.Schema(), d.EncodeSnapshot())
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	gt := got.Table("TRADE")
	if _, live := gt.Get(k); live {
		t.Error("deleted row came back live")
	}
	dead, ok := gt.GetAny(k)
	if !ok {
		t.Fatal("graveyard row lost in round trip")
	}
	for i := range want {
		if dead[i].Compare(want[i]) != 0 {
			t.Errorf("graveyard column %d = %v, want %v", i, dead[i], want[i])
		}
	}

	// A V1 payload (old magic, no graveyard sections) still decodes.
	v1 := appendUvarint([]byte(snapshotMagicV1), 0)
	old, err := DecodeSnapshot(d.Schema(), v1)
	if err != nil {
		t.Fatalf("V1 decode: %v", err)
	}
	if old.TotalRows() != 0 {
		t.Errorf("empty V1 snapshot decoded %d rows", old.TotalRows())
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	d := loadFigure1(t)
	enc := d.EncodeSnapshot()
	cases := [][]byte{
		nil,
		[]byte("JUNK!"),
		enc[:len(enc)/2],
		append(append([]byte{}, enc...), 0x01),
	}
	for i, c := range cases {
		if _, err := DecodeSnapshot(d.Schema(), c); !errors.Is(err, ErrSnapshot) {
			t.Errorf("case %d: err = %v, want ErrSnapshot", i, err)
		}
	}
	// Every truncation must error, never panic.
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeSnapshot(d.Schema(), enc[:i]); err == nil {
			t.Errorf("truncation at %d decoded successfully", i)
		}
	}
}

// FuzzDecodeSnapshot: DecodeSnapshot is total — it never panics, and
// every rejection wraps ErrSnapshot — and a snapshot it accepts
// re-encodes to bytes that decode to a database encoding to the same
// bytes. The seeds are the Figure 1 fixture's snapshot, with a version
// counter and a deleted row so every section is present, and an empty
// V1 snapshot.
func FuzzDecodeSnapshot(f *testing.F) {
	d := loadFigure1(f)
	f.Add(d.EncodeSnapshot())
	d.Table("TRADE").Touch(value.MakeKey(value.NewInt(2)))
	d.Table("TRADE").Delete(value.MakeKey(value.NewInt(3)))
	f.Add(d.EncodeSnapshot())
	f.Add(appendUvarint([]byte(snapshotMagicV1), 0))
	sc := d.Schema()
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeSnapshot(sc, data)
		if err != nil {
			if !errors.Is(err, ErrSnapshot) {
				t.Fatalf("rejection %v does not wrap ErrSnapshot", err)
			}
			return
		}
		enc := got.EncodeSnapshot()
		again, err := DecodeSnapshot(sc, enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if reenc := again.EncodeSnapshot(); !bytes.Equal(reenc, enc) {
			t.Fatalf("re-encoding is not stable:\n%x\n%x", enc, reenc)
		}
	})
}
