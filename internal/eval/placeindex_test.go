package eval

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/fixture"
	"repro/internal/trace"
)

// TestPlaceIndexMatchesEvaluate: the indexed columnar evaluator and the
// row evaluator must agree bit-for-bit, including per-txn classification.
func TestPlaceIndexMatchesEvaluate(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 500, 7)
	for _, sol := range []string{"join-extension", "naive"} {
		s := joinExtensionSolution(4)
		if sol == "naive" {
			s = naiveSolution(4)
		}
		a, err := NewAssigner(d, s)
		if err != nil {
			t.Fatal(err)
		}
		c := trace.Columnarize(tr)
		want := resultFingerprint(t, a.Evaluate(tr, runtime.GOMAXPROCS(0)))
		if got := resultFingerprint(t, a.EvaluateColumnar(c)); got != want {
			t.Errorf("%s: columnar diverged\n got %s\nwant %s", sol, got, want)
		}
		idx := a.Index(c)
		v := d.View()
		for i := 0; i < tr.Len(); i++ {
			ws, gs := a.Span(v, tr.At(i)), idx.Span(i)
			if gs.Parts.String() != ws.Parts.String() || gs.All != ws.All {
				t.Fatalf("%s txn %d: indexed (%v,%v), row (%v,%v)",
					sol, i, &gs.Parts, gs.All, &ws.Parts, ws.All)
			}
		}
		v.Close()
	}
}

// TestEvaluateStreamMatchesEvaluate: chunked streaming evaluation merges
// to the identical result, from the first transaction and from offsets
// inside a chunk, on a chunk boundary and past the end.
func TestEvaluateStreamMatchesEvaluate(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 300, 11)
	path := filepath.Join(t.TempDir(), "trace.col")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cw := trace.NewColumnarWriter(f, 17) // many partial chunks
	for _, txn := range tr.All() {
		if err := cw.Add(txn); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := trace.OpenColumnar(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAssigner(d, joinExtensionSolution(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range []int{0, 5, 34, 299, 300} {
		want := resultFingerprint(t, a.Evaluate(tr.Window(from, tr.Len()), runtime.GOMAXPROCS(0)))
		got, err := a.EvaluateStream(s, from)
		if err != nil {
			t.Fatal(err)
		}
		if g := resultFingerprint(t, got); g != want {
			t.Errorf("stream from %d diverged\n got %s\nwant %s", from, g, want)
		}
	}
}

// TestEvaluateStreamPeakRSS scores a 10M-access columnar trace through
// EvaluateStream. Every transaction must be scored, and the process's
// peak RSS must stay under half of a lower bound on the same trace held
// as []Txn (struct sizes only, no key or param payloads). The trace is
// written straight to disk by replaying a 2,000-transaction template
// under fresh ids, so no step ever holds more than one chunk of it.
func TestEvaluateStreamPeakRSS(t *testing.T) {
	const target = 10_000_000
	d := fixture.CustInfoDB()
	template := fixture.MixedTrace(d, 2000, 7)
	path := filepath.Join(t.TempDir(), "big.col")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cw := trace.NewColumnarWriter(f, trace.DefaultChunkTxns)
	accesses, txns := 0, 0
	for accesses < target {
		for _, txn := range template.All() {
			txn.ID = txns
			if err := cw.Add(txn); err != nil {
				t.Fatal(err)
			}
			txns++
			accesses += len(txn.Accesses)
			if accesses >= target {
				break
			}
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	a, err := NewAssigner(d, joinExtensionSolution(8))
	if err != nil {
		t.Fatal(err)
	}
	s, err := trace.OpenColumnar(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.EvaluateStream(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != txns {
		t.Fatalf("streamed evaluation scored %d of %d transactions", r.Total, txns)
	}
	est := uint64(accesses)*uint64(unsafe.Sizeof(trace.Access{})) +
		uint64(txns)*uint64(unsafe.Sizeof(trace.Txn{}))
	peak, known := PeakRSS()
	t.Logf("%d accesses / %d txns: peak RSS %d MB (known %v) vs >= %d MB in memory",
		accesses, txns, peak>>20, known, est>>20)
	if known && peak >= est/2 {
		t.Errorf("peak RSS %d bytes is not under half the in-memory bound %d", peak, est)
	}
}

// TestEvaluateAllocBudget is the zero-alloc gate: once the PlaceIndex is
// built, scoring the whole trace must stay within 10 allocations — the
// Result, its ByClass map and entries, and the two per-class tally
// arrays. The per-transaction loop itself must not allocate at all.
func TestEvaluateAllocBudget(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 1000, 7)
	a, err := NewAssigner(d, joinExtensionSolution(4))
	if err != nil {
		t.Fatal(err)
	}
	c := trace.Columnarize(tr)
	idx := a.Index(c) // build excluded from the budget
	allocs := testing.AllocsPerRun(20, func() {
		idx.Evaluate()
	})
	if allocs > 10 {
		t.Errorf("Evaluate = %.0f allocs/op, budget is 10", allocs)
	}
}
