package eval

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fixture"
	"repro/internal/pool"
)

// resultFingerprint renders the fields Evaluate must reproduce
// bit-identically for any worker count.
func resultFingerprint(t *testing.T, r *Result) string {
	t.Helper()
	type classJSON struct {
		Class       string `json:"class"`
		Total       int    `json:"total"`
		Distributed int    `json:"distributed"`
	}
	classes := make([]classJSON, 0)
	for _, c := range r.Classes() {
		classes = append(classes, classJSON{c.Class, c.Total, c.Distributed})
	}
	b, err := json.Marshal(struct {
		Solution    string      `json:"solution"`
		K           int         `json:"k"`
		Total       int         `json:"total"`
		Distributed int         `json:"distributed"`
		Classes     []classJSON `json:"classes"`
	}{r.Solution, r.K, r.Total, r.Distributed, classes})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestEvaluateParallelMatchesSequential is the evaluator half of the
// determinism contract: sharded evaluation is bit-identical to the
// sequential loop for any worker count, including counts larger than
// the trace, and leaves no goroutine running.
func TestEvaluateParallelMatchesSequential(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 500, 7)
	for _, sol := range []struct {
		name string
		k    int
	}{{"join-extension", 4}, {"naive", 4}, {"join-extension", 8}} {
		s := joinExtensionSolution(sol.k)
		if sol.name == "naive" {
			s = naiveSolution(sol.k)
		}
		a, err := NewAssigner(d, s)
		if err != nil {
			t.Fatal(err)
		}
		want := resultFingerprint(t, a.Evaluate(tr, 1))
		for _, workers := range []int{1, 2, 3, 8, 16, 1000} {
			before := runtime.NumGoroutine()
			got := resultFingerprint(t, a.Evaluate(tr, workers))
			waitGoroutines(t, before)
			if got != want {
				t.Fatalf("%s k=%d workers=%d: result diverged\n got %s\nwant %s",
					sol.name, sol.k, workers, got, want)
			}
		}
	}
}

// TestAssignerSharedStress hammers one shared Assigner from 16 goroutines
// mixing PlaceKey, Span, and full Evaluate calls — the
// access pattern of the parallel phase-3 search. Run under -race this is
// the concurrency-safety proof for Assigner.
func TestAssignerSharedStress(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 11)
	a, err := NewAssigner(d, joinExtensionSolution(4))
	if err != nil {
		t.Fatal(err)
	}
	want := resultFingerprint(t, a.Evaluate(tr, runtime.GOMAXPROCS(0)))

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				switch (g + iter) % 3 {
				case 0:
					got := resultFingerprint(t, a.Evaluate(tr, 1+g%4))
					if got != want {
						errs <- fmt.Errorf("goroutine %d iter %d: result diverged", g, iter)
						return
					}
				case 1:
					v := d.View()
					for _, txn := range tr.All() {
						s := a.Span(v, txn)
						s.Distributed()
					}
					v.Close()
				default:
					v := d.View()
					for _, txn := range tr.All() {
						for _, acc := range txn.Accesses {
							a.PlaceKey(v, acc)
						}
					}
					v.Close()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEvaluatePackageLevelUnchanged pins the package-level Evaluate
// convenience wrapper to the Assigner path.
func TestEvaluatePackageLevelUnchanged(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 100, 5)
	sol := joinExtensionSolution(4)
	r1, err := Evaluate(d, sol, tr)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAssigner(d, sol)
	if err != nil {
		t.Fatal(err)
	}
	r2 := a.Evaluate(tr, 4)
	if resultFingerprint(t, r1) != resultFingerprint(t, r2) {
		t.Fatal("package-level Evaluate diverged from Assigner.Evaluate")
	}
}

// TestEvaluateShardCutoff pins the small-input serial cutoff: a trace
// of fewer than 2*pool.MinShardItems transactions is scored as one
// shard whatever the worker count, a longer one splits into at most
// n/pool.MinShardItems shards, and the Result is identical at workers
// 1, 2 and 8 on either side of the cutoff, as it is at the GOMAXPROCS
// default. No goroutine outlives a sharded call.
func TestEvaluateShardCutoff(t *testing.T) {
	d := fixture.CustInfoDB()
	a, err := NewAssigner(d, joinExtensionSolution(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{pool.MinShardItems - 1, 2*pool.MinShardItems - 1, 20 * pool.MinShardItems} {
		tr := fixture.MixedTrace(d, n, 3)
		if tr.Len() != n {
			t.Fatalf("fixture trace has %d transactions, want %d", tr.Len(), n)
		}
		want := resultFingerprint(t, a.Evaluate(tr, 1))
		for _, workers := range []int{1, 2, 8} {
			wantShards := 1
			if n >= 2*pool.MinShardItems {
				wantShards = min(workers, n/pool.MinShardItems)
			}
			if got := pool.ShardCount(workers, n); got != wantShards {
				t.Errorf("n=%d workers=%d: %d shards, want %d", n, workers, got, wantShards)
			}
			before := runtime.NumGoroutine()
			got := resultFingerprint(t, a.Evaluate(tr, workers))
			waitGoroutines(t, before)
			if got != want {
				t.Errorf("n=%d workers=%d: result diverged\n got %s\nwant %s", n, workers, got, want)
			}
		}
		before := runtime.NumGoroutine()
		if got := resultFingerprint(t, a.Evaluate(tr, runtime.GOMAXPROCS(0))); got != want {
			t.Errorf("n=%d: Evaluate at GOMAXPROCS diverged from the sequential loop", n)
		}
		waitGoroutines(t, before)
	}
}

// waitGoroutines fails the test unless the goroutine count drops back to
// before within two seconds: a shard goroutine may still be returning
// when the call that waited on it returns.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d running after the call, %d before\n%s", n, before, buf)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPlaceTraceStop checks that Stop joins PlaceTrace's workers: once
// it returns, no further chunk is placed and no worker is left, even
// though the trace was far from fully placed.
func TestPlaceTraceStop(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 20000, 3)
	a, err := NewAssigner(d, joinExtensionSolution(4))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	p := a.PlaceTrace(tr, 2)
	p.Txn(0)
	p.Stop()
	p.Stop() // idempotent
	placed := func() int {
		n := 0
		for c := range p.done {
			if p.done[c].Load() {
				n++
			}
		}
		return n
	}
	n := placed()
	time.Sleep(20 * time.Millisecond)
	if again := placed(); again != n {
		t.Fatalf("%d chunks placed after Stop returned, %d when it did", again, n)
	}
	t.Logf("%d of %d chunks placed before Stop", n, len(p.done))
	waitGoroutines(t, before)
}
