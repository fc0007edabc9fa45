package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func key(n int64) value.Key { return value.MakeKey(value.NewInt(n)) }

func sampleTrace() *Trace {
	c := NewCollector()
	c.Begin("A", map[string]value.Value{"id": value.NewInt(1)})
	c.Read("T", key(1))
	c.Write("U", key(2))
	c.Commit()
	c.Begin("B", nil)
	c.Read("T", key(3))
	c.Commit()
	c.Begin("A", map[string]value.Value{"id": value.NewInt(2)})
	c.Read("T", key(1))
	c.Commit()
	return c.Trace()
}

func TestCollectorBasics(t *testing.T) {
	tr := sampleTrace()
	if tr.Len() != 3 {
		t.Fatalf("len = %d", tr.Len())
	}
	if got := tr.Classes(); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Errorf("classes = %v", got)
	}
	if tr.txns[0].ID != 0 || tr.txns[2].ID != 2 {
		t.Errorf("ids = %d, %d", tr.txns[0].ID, tr.txns[2].ID)
	}
	if got := tr.txns[0].Tables(); !reflect.DeepEqual(got, []string{"T", "U"}) {
		t.Errorf("tables = %v", got)
	}
}

func TestCollectorDedupesAndUpgrades(t *testing.T) {
	c := NewCollector()
	c.Begin("A", nil)
	c.Read("T", key(1))
	c.Read("T", key(1))
	c.Write("T", key(1)) // read then write: single access with Write=true
	c.Read("T", key(2))
	c.Commit()
	tr := c.Trace()
	accs := tr.txns[0].Accesses
	if len(accs) != 2 {
		t.Fatalf("accesses = %v", accs)
	}
	if !accs[0].Write || accs[0].Key != key(1) {
		t.Errorf("first access = %+v", accs[0])
	}
	if accs[1].Write {
		t.Errorf("second access = %+v", accs[1])
	}
}

func TestCollectorAbort(t *testing.T) {
	c := NewCollector()
	c.Begin("A", nil)
	c.Read("T", key(1))
	c.Abort()
	c.Begin("B", nil)
	c.Commit()
	tr := c.Trace()
	if tr.Len() != 1 || tr.txns[0].Class != "B" || tr.txns[0].ID != 0 {
		t.Errorf("trace after abort = %+v", tr.txns)
	}
}

// TestCollectorReusesDedupState checks that the dedup map one collector
// reuses across transactions carries nothing from one to the next: the
// same key is recorded again in each transaction, a read-then-write
// upgrade indexes only the open transaction's accesses, and an aborted
// transaction leaves no entries behind.
func TestCollectorReusesDedupState(t *testing.T) {
	c := NewCollector()
	c.Begin("A", nil)
	c.Read("T", key(1))
	c.Write("T", key(2))
	c.Commit()
	c.Begin("A", nil)
	c.Read("T", key(3)) // shifts key(1)'s position relative to txn 0
	c.Read("T", key(1))
	c.Write("T", key(1)) // upgrade must hit this txn's access 1, not txn 0's
	c.Commit()
	c.Begin("B", nil)
	c.Write("T", key(4))
	c.Read("T", key(5))
	c.Abort()
	c.Begin("C", nil)
	c.Read("T", key(4)) // aborted write must not upgrade or suppress this
	c.Read("T", key(5))
	c.Write("T", key(5))
	c.Commit()

	got := c.Trace()
	want := [][]Access{
		{{Table: "T", Key: key(1)}, {Table: "T", Key: key(2), Write: true}},
		{{Table: "T", Key: key(3)}, {Table: "T", Key: key(1), Write: true}},
		{{Table: "T", Key: key(4)}, {Table: "T", Key: key(5), Write: true}},
	}
	if got.Len() != len(want) {
		t.Fatalf("trace has %d txns, want %d", got.Len(), len(want))
	}
	for i, w := range want {
		if txn := got.At(i); !reflect.DeepEqual(txn.Accesses, w) {
			t.Errorf("txn %d (%s) accesses = %+v, want %+v", i, txn.Class, txn.Accesses, w)
		}
	}
	if got.At(2).ID != 2 {
		t.Errorf("txn after abort has ID %d, want 2", got.At(2).ID)
	}
	c.Begin("D", nil)
	c.Read("T", key(6))
	c.Abort()
	c.Begin("E", nil)
	if len(c.idx) != 0 {
		t.Errorf("dedup map holds %d stale entries at Begin", len(c.idx))
	}
	c.Abort()
}

func TestCollectorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("double begin", func() {
		c := NewCollector()
		c.Begin("A", nil)
		c.Begin("B", nil)
	})
	mustPanic("access outside txn", func() { NewCollector().Read("T", key(1)) })
	mustPanic("commit outside txn", func() { NewCollector().Commit() })
	mustPanic("abort outside txn", func() { NewCollector().Abort() })
}

func TestMix(t *testing.T) {
	tr := sampleTrace()
	mix := tr.Mix()
	if mix["A"] < 0.66 || mix["A"] > 0.67 || mix["B"] < 0.33 || mix["B"] > 0.34 {
		t.Errorf("mix = %v", mix)
	}
	var empty Trace
	if empty.Mix() != nil {
		t.Error("empty mix must be nil")
	}
}

func TestTrainTest(t *testing.T) {
	var tr Trace
	for i := 0; i < 100; i++ {
		tr.txns = append(tr.txns, Txn{ID: i, Class: "A"})
	}
	train, test := tr.TrainTest(0.3, rand.New(rand.NewSource(1)))
	if train.Len() != 30 || test.Len() != 70 {
		t.Fatalf("split sizes = %d/%d", train.Len(), test.Len())
	}
	seen := map[int]bool{}
	for _, x := range append(append([]Txn{}, train.txns...), test.txns...) {
		if seen[x.ID] {
			t.Fatalf("txn %d appears twice", x.ID)
		}
		seen[x.ID] = true
	}
	if len(seen) != 100 {
		t.Errorf("union size = %d", len(seen))
	}
	// Determinism.
	train2, _ := tr.TrainTest(0.3, rand.New(rand.NewSource(1)))
	if !reflect.DeepEqual(train.txns, train2.txns) {
		t.Error("TrainTest must be deterministic for a fixed seed")
	}
	defer func() {
		if recover() == nil {
			t.Error("bad fraction must panic")
		}
	}()
	tr.TrainTest(1.5, rand.New(rand.NewSource(1)))
}

func TestHead(t *testing.T) {
	tr := sampleTrace()
	if tr.Head(2).Len() != 2 || tr.Head(99).Len() != 3 {
		t.Error("Head sizes wrong")
	}
}

func TestStats(t *testing.T) {
	c := NewCollector()
	c.Begin("A", nil)
	c.Read("T", key(1))
	c.Read("T", key(2))
	c.Write("U", key(1))
	c.Commit()
	c.Begin("B", nil)
	c.Read("T", key(1))
	c.Write("U", key(2))
	c.Write("U", key(3))
	c.Commit()
	c.Begin("C", nil)
	c.Read("U", key(1))
	c.Commit()
	tr := c.Trace()
	st := tr.Stats()
	if len(st) != 2 || st["T"] == nil || st["T"].WriteTxns != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st["U"].WriteTxns != 2 {
		t.Errorf("U stats = %+v", st["U"])
	}
	if f := st["U"].WriteTxnFraction(tr.Len()); f < 0.66 || f > 0.67 {
		t.Errorf("U write txn fraction = %v", f)
	}
	if (TableStats{}).WriteTxnFraction(0) != 0 {
		t.Error("zero-txn fraction must be 0")
	}
}

func TestIORoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.txns, got.txns) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", tr.txns, got.txns)
	}
}

func TestIOCompositeStringKeys(t *testing.T) {
	c := NewCollector()
	c.Begin("A", map[string]value.Value{"s": value.NewString("x:y\nz")})
	c.Read("T", value.MakeKey(value.NewString("BLS"), value.NewInt(8)))
	c.Commit()
	tr := c.Trace()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.txns, got.txns) {
		t.Error("composite/string key round trip mismatch")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("{not json")); err == nil {
		t.Error("bad JSON must error")
	}
	if _, err := Read(strings.NewReader(`{"id":1,"class":"A","accesses":[{"t":"T","k":["zz:1"]}]}`)); err == nil {
		t.Error("bad key text must error")
	}
}

// txnGen generates random transactions for the round-trip property test.
type txnGen Txn

func (txnGen) Generate(r *rand.Rand, size int) reflect.Value {
	t := Txn{ID: r.Intn(1000), Class: string(rune('A' + r.Intn(3)))}
	n := r.Intn(5)
	for i := 0; i < n; i++ {
		var vals []value.Value
		for j := 0; j <= r.Intn(2); j++ {
			if r.Intn(2) == 0 {
				vals = append(vals, value.NewInt(r.Int63n(100)))
			} else {
				vals = append(vals, value.NewString(string(rune('a'+r.Intn(26)))))
			}
		}
		t.Accesses = append(t.Accesses, Access{
			Table: string(rune('T' + r.Intn(3))),
			Key:   value.KeyOf(vals),
			Write: r.Intn(2) == 0,
		})
	}
	return reflect.ValueOf(txnGen(t))
}

func TestIORoundTripProperty(t *testing.T) {
	f := func(gens []txnGen) bool {
		tr := &Trace{}
		for _, g := range gens {
			tr.txns = append(tr.txns, Txn(g))
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.txns) != len(tr.txns) {
			return false
		}
		return reflect.DeepEqual(tr.txns, got.txns) || len(tr.txns) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
