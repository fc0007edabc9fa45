package trace

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/value"
)

// colSampleTrace builds a trace wide enough to exercise interning: several
// classes, repeated and fresh keys, composite keys, params, and write bits.
func colSampleTrace(n int) *Trace {
	tr := &Trace{}
	classes := []string{"NewOrder", "Payment", "StockLevel"}
	for i := 0; i < n; i++ {
		cls := classes[i%len(classes)]
		t := Txn{ID: i, Class: cls}
		if i%2 == 0 {
			t.Params = map[string]value.Value{
				"w_id": value.NewInt(int64(i % 7)),
				"name": value.NewString(fmt.Sprintf("cust-%d", i%5)),
			}
		}
		t.Accesses = append(t.Accesses, Access{
			Table: "WAREHOUSE",
			Key:   value.KeyOf([]value.Value{value.NewInt(int64(i % 7))}),
		})
		if i%3 != 0 {
			t.Accesses = append(t.Accesses, Access{
				Table: "ORDER_LINE",
				Key: value.KeyOf([]value.Value{
					value.NewInt(int64(i % 7)), value.NewInt(int64(i)),
				}),
				Write: true,
			})
		}
		tr.txns = append(tr.txns, t)
	}
	return tr
}

// assertSameTxns walks two workloads in lockstep and requires identical
// transactions: id, class, params, and every access field.
func assertSameTxns(t *testing.T, got, want Workload) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), want.Len())
	}
	wantTxns := make([]Txn, 0, want.Len())
	for _, txn := range want.All() {
		wantTxns = append(wantTxns, txn.Clone())
	}
	i := 0
	for _, g := range got.All() {
		w := &wantTxns[i]
		if g.ID != w.ID || g.Class != w.Class {
			t.Fatalf("txn %d: got (%d, %q), want (%d, %q)", i, g.ID, g.Class, w.ID, w.Class)
		}
		if !reflect.DeepEqual(normalizeParams(g.Params), normalizeParams(w.Params)) {
			t.Fatalf("txn %d params: got %v, want %v", i, g.Params, w.Params)
		}
		if len(g.Accesses) != len(w.Accesses) {
			t.Fatalf("txn %d: %d accesses, want %d", i, len(g.Accesses), len(w.Accesses))
		}
		for j := range w.Accesses {
			ga, wa := g.Accesses[j], w.Accesses[j]
			if ga.Table != wa.Table || ga.Write != wa.Write || !bytes.Equal([]byte(ga.Key), []byte(wa.Key)) {
				t.Fatalf("txn %d access %d: got %+v, want %+v", i, j, ga, wa)
			}
		}
		i++
	}
	if i != want.Len() {
		t.Fatalf("All() yielded %d txns, want %d", i, want.Len())
	}
}

func TestColumnarizeMatchesTrace(t *testing.T) {
	tr := colSampleTrace(50)
	c := Columnarize(tr)
	if c.NumTxns() != tr.Len() {
		t.Fatalf("NumTxns = %d, want %d", c.NumTxns(), tr.Len())
	}
	assertSameTxns(t, c, tr)
	if !reflect.DeepEqual(c.Classes(), tr.Classes()) {
		t.Errorf("Classes: %v vs %v", c.Classes(), tr.Classes())
	}
	if !reflect.DeepEqual(c.Mix(), tr.Mix()) {
		t.Errorf("Mix: %v vs %v", c.Mix(), tr.Mix())
	}
	// Interning must dedup: 7 warehouse keys + one ORDER_LINE key per
	// distinct (i%7, i) pair, far fewer than total accesses for the
	// warehouse column.
	if c.NumTables() != 2 || c.NumClasses() != 3 {
		t.Errorf("tables=%d classes=%d, want 2/3", c.NumTables(), c.NumClasses())
	}
	assertSameTxns(t, c, tr)
}

// readStream writes data to a file in dir and decodes it through the file
// reader jecb -trace-in runs, OpenColumnar then Stream.Chunks, into one
// Columnar; it returns the first error either reports.
func readStream(t testing.TB, dir string, data []byte) (*Columnar, error) {
	t.Helper()
	path := filepath.Join(dir, "trace.col")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenColumnar(path)
	if err != nil {
		return nil, err
	}
	out := NewColumnar()
	for chunk, err := range s.Chunks() {
		if err != nil {
			return nil, err
		}
		for _, txn := range chunk.All() {
			out.Add(txn)
		}
	}
	return out, nil
}

// classTxnIDs returns the ids of w's transactions of class cls, in trace
// order, filtering All.
func classTxnIDs(w Workload, cls string) []int {
	var ids []int
	for _, txn := range w.All() {
		if txn.Class == cls {
			ids = append(ids, txn.ID)
		}
	}
	return ids
}

// TestColumnarClassCursor checks that the columnar cursor names each
// transaction's class as the row trace does: filtering All by class
// yields the same transactions in the same order, and an unknown class
// none.
func TestColumnarClassCursor(t *testing.T) {
	tr := colSampleTrace(60)
	c := Columnarize(tr)
	for _, cls := range tr.Classes() {
		if got, want := classTxnIDs(c, cls), classTxnIDs(tr, cls); !reflect.DeepEqual(got, want) {
			t.Errorf("class %s: ids %v, want %v", cls, got, want)
		}
	}
	if ids := classTxnIDs(c, "NoSuchClass"); ids != nil {
		t.Fatalf("unknown class matched transactions %v", ids)
	}
}

// TestColumnarCursorScratchReuse pins the documented pointer-lifetime
// contract: the columnar cursor reuses one scratch Txn, so retaining
// requires Clone.
func TestColumnarCursorScratchReuse(t *testing.T) {
	c := Columnarize(colSampleTrace(10))
	var raw []*Txn
	var cloned []Txn
	for _, txn := range c.All() {
		raw = append(raw, txn)
		cloned = append(cloned, txn.Clone())
	}
	for i := 1; i < len(raw); i++ {
		if raw[i] != raw[0] {
			t.Fatal("columnar cursor handed out distinct pointers; scratch reuse contract changed")
		}
	}
	for i := range cloned {
		if cloned[i].ID != i {
			t.Fatalf("clone %d has ID %d", i, cloned[i].ID)
		}
	}
}

func TestColumnarIORoundTrip(t *testing.T) {
	tr := colSampleTrace(100)
	var buf bytes.Buffer
	n, err := WriteColumnar(&buf, tr)
	if err != nil {
		t.Fatalf("WriteColumnar: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := readStream(t, t.TempDir(), buf.Bytes())
	if err != nil {
		t.Fatalf("readStream: %v", err)
	}
	assertSameTxns(t, got, tr)
}

func TestColumnarIOEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteColumnar(&buf, &Trace{}); err != nil {
		t.Fatalf("WriteColumnar: %v", err)
	}
	got, err := readStream(t, t.TempDir(), buf.Bytes())
	if err != nil {
		t.Fatalf("readStream: %v", err)
	}
	if got.NumTxns() != 0 {
		t.Errorf("empty round trip has %d txns", got.NumTxns())
	}
}

// writeStreamFile writes tr to a columnar file with a tiny chunk size so
// multi-chunk paths (dict deltas, per-chunk key tables) are exercised.
func writeStreamFile(t *testing.T, tr *Trace, chunkTxns int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.col")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cw := NewColumnarWriter(f, chunkTxns)
	for i := range tr.txns {
		if err := cw.Add(&tr.txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStreamMultiChunk(t *testing.T) {
	tr := colSampleTrace(97) // not a multiple of the chunk size
	path := writeStreamFile(t, tr, 8)
	s, err := OpenColumnar(path)
	if err != nil {
		t.Fatal(err)
	}
	chunks := 0
	total := 0
	for chunk, err := range s.Chunks() {
		if err != nil {
			t.Fatal(err)
		}
		chunks++
		total += chunk.NumTxns()
	}
	if chunks != 13 { // ceil(97/8)
		t.Errorf("chunks = %d, want 13", chunks)
	}
	if total != 97 {
		t.Errorf("streamed %d txns, want 97", total)
	}
	if s.Len() != tr.Len() {
		t.Errorf("Len = %d, want %d", s.Len(), tr.Len())
	}
	if !reflect.DeepEqual(s.Classes(), tr.Classes()) {
		t.Errorf("Classes: %v vs %v", s.Classes(), tr.Classes())
	}
	if !reflect.DeepEqual(s.Mix(), tr.Mix()) {
		t.Errorf("Mix: %v vs %v", s.Mix(), tr.Mix())
	}
	// Two full cursor passes over the same stream must agree (each pass
	// re-opens the file).
	assertSameTxns(t, s, tr)
	assertSameTxns(t, s, tr)
	if s.Err() != nil {
		t.Fatalf("stream error after clean passes: %v", s.Err())
	}
}

// TestStreamClassCursor is TestColumnarClassCursor for the streaming
// reader, whose chunks each intern classes in a dictionary of their own.
func TestStreamClassCursor(t *testing.T) {
	tr := colSampleTrace(40)
	path := writeStreamFile(t, tr, 7)
	s, err := OpenColumnar(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cls := range tr.Classes() {
		if got, want := classTxnIDs(s, cls), classTxnIDs(tr, cls); !reflect.DeepEqual(got, want) {
			t.Errorf("class %s: ids %v, want %v", cls, got, want)
		}
	}
}

func TestOpenColumnarRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "trace.jsonl")
	if err := os.WriteFile(jsonl, []byte(`{"id":1,"class":"A"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenColumnar(jsonl); !errors.Is(err, ErrCorrupt) {
		t.Errorf("jsonl file: err = %v, want ErrCorrupt", err)
	}
	short := filepath.Join(dir, "short.col")
	if err := os.WriteFile(short, []byte("JECB"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenColumnar(short); !errors.Is(err, ErrTornTail) {
		t.Errorf("short file: err = %v, want ErrTornTail", err)
	}
	if _, err := OpenColumnar(filepath.Join(dir, "missing.col")); err == nil {
		t.Error("missing file: want error")
	}
}

// TestColumnarTornTail cuts a valid stream at every byte offset. A cut at
// a frame boundary yields a clean prefix; any other cut must surface
// ErrTornTail — never a panic, never silent truncation mislabeled as
// success with missing frames in between.
func TestColumnarTornTail(t *testing.T) {
	tr := colSampleTrace(30)
	var buf bytes.Buffer
	w := NewColumnarWriter(&buf, 6)
	for i := range tr.txns {
		if err := w.Add(&tr.txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	dir := t.TempDir()
	cleanCuts := 0
	for cut := 0; cut < len(data); cut++ {
		c, err := readStream(t, dir, data[:cut])
		if err == nil {
			cleanCuts++
			if c.NumTxns()%6 != 0 || c.NumTxns() >= tr.Len() {
				t.Fatalf("cut %d: clean decode of %d txns, want a proper chunk prefix", cut, c.NumTxns())
			}
			continue
		}
		if !errors.Is(err, ErrTornTail) {
			t.Fatalf("cut %d: err = %v, want ErrTornTail", cut, err)
		}
	}
	// One clean cut per frame boundary (after magic+dicts, then between
	// chunks) — there must be at least the inter-chunk boundaries.
	if cleanCuts < 4 {
		t.Errorf("only %d clean frame-boundary cuts, want >= 4", cleanCuts)
	}
}

// TestColumnarCorruptByte flips every byte of a valid stream in turn; each
// flip must be detected (bad magic, CRC mismatch, torn tail from a
// lengthened frame, or a parse error) — never accepted silently.
func TestColumnarCorruptByte(t *testing.T) {
	tr := colSampleTrace(12)
	var buf bytes.Buffer
	w := NewColumnarWriter(&buf, 5)
	for i := range tr.txns {
		if err := w.Add(&tr.txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	dir := t.TempDir()
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xFF
		if _, err := readStream(t, dir, mut); err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
	// Corrupting only the CRC field of the first frame must specifically
	// report ErrCorrupt (frames start right after the magic).
	mut := append([]byte(nil), data...)
	mut[len(colMagic)+4] ^= 0xFF
	if _, err := readStream(t, dir, mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("crc flip: err = %v, want ErrCorrupt", err)
	}
}

// FuzzColumnarRoundTrip mirrors the WAL fuzzer: arbitrary bytes must never
// panic the file reader, and anything accepted must re-encode and re-read
// to an identical workload.
func FuzzColumnarRoundTrip(f *testing.F) {
	valid := func(n, chunk int) []byte {
		var buf bytes.Buffer
		w := NewColumnarWriter(&buf, chunk)
		tr := colSampleTrace(n)
		for i := range tr.txns {
			w.Add(&tr.txns[i])
		}
		w.Close()
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add([]byte(colMagic))
	f.Add([]byte("JECBCOL0\x00\x00"))
	f.Add(valid(0, 4))
	f.Add(valid(9, 4))
	full := valid(25, 8)
	f.Add(full)
	f.Add(full[:len(full)-3]) // torn tail
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)/2] ^= 0x40 // corrupt chunk body
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		c, err := readStream(t, dir, data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := WriteColumnar(&buf, c); err != nil {
			t.Fatalf("accepted columnar failed to re-encode: %v", err)
		}
		c2, err := readStream(t, dir, buf.Bytes())
		if err != nil {
			t.Fatalf("re-read of re-encoded stream failed: %v", err)
		}
		if c2.NumTxns() != c.NumTxns() || c2.NumAccesses() != c.NumAccesses() {
			t.Fatalf("round trip: %d/%d txns, %d/%d accesses",
				c2.NumTxns(), c.NumTxns(), c2.NumAccesses(), c.NumAccesses())
		}
		assertSameTxns(t, c2, c)
	})
}

// TestColumnarizeAllocs bounds Columnarize's allocations by what it
// must keep: one string per distinct key, the copy of each transaction's
// params (two allocations: a small map's header and its slot group), and
// a constant for the growth of the columns and dictionaries. A composite
// key built per access, instead of in a stack buffer, costs one
// allocation per access and fails it.
func TestColumnarizeAllocs(t *testing.T) {
	tr := colSampleTrace(20000)
	var withParams int
	keys := map[string]bool{}
	for _, txn := range tr.All() {
		if len(txn.Params) > 0 {
			withParams++
		}
		for _, a := range txn.Accesses {
			keys[a.Table+"\x00"+string(a.Key)] = true
		}
	}
	const growth = 1024
	allocs := testing.AllocsPerRun(3, func() { Columnarize(tr) })
	t.Logf("%v allocations: %d distinct keys, %d transactions with params", allocs, len(keys), withParams)
	if limit := float64(len(keys) + 2*withParams + growth); allocs > limit {
		t.Errorf("Columnarize: %v allocations, want <= %v", allocs, limit)
	}
}
