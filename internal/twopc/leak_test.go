package twopc

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/trace"
	"repro/internal/value"
)

// cancelAfter is a context whose Err reports context.Canceled from its
// (n+1)-th call on. The replay asks once per transaction, so a run under
// it stops before transaction n, the same one every time.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func newCancelAfter(n int64) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.n.Store(n)
	return c
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// waitGoroutines fails the test unless the goroutine count falls back to
// its pre-run value within a short deadline: a joined goroutine may
// still be returning when the call that joined it returns.
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
			t.Fatalf("goroutine leak: %d running after the run, %d before\n%s", n, before, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// placing reports whether a PlaceTrace worker is still running.
func placing() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("(*TracePlacement).fill"))
}

// withBadWrite returns a copy of tr whose transaction i also writes a
// table the schema lacks: the write routes to the coordinator, whose
// server logs it and then fails on it.
func withBadWrite(tr *trace.Trace, i int) *trace.Trace {
	txns := make([]trace.Txn, tr.Len())
	for j := range txns {
		txns[j] = *tr.At(j)
	}
	txns[i].Accesses = append(slices.Clip(txns[i].Accesses),
		trace.Access{Table: "NO_SUCH_TABLE", Key: value.MakeKey(value.NewInt(1)), Write: true})
	return trace.FromTxns(txns)
}

// runLimit bounds every run of TestRunLeavesNoGoroutine: a run that
// outlives it hangs.
const runLimit = 10 * time.Second

// TestRunLeavesNoGoroutine checks that a 2PC run joins every goroutine
// it starts — participant servers, and the workers placing its window
// ahead of the replay — whether it finishes, is cancelled, or fails on
// a participant's store error. The cancelled runs replay the window
// repeated 100 times, which takes a worker far longer to place than the
// 100 ms the check allows, so a run that left its placement to finish on
// its own fails here. The failing run must end with the participant's
// error instead of re-sending decisions to its dead server.
func TestRunLeavesNoGoroutine(t *testing.T) {
	d, sol, window := tpccWindow(t)
	long := window.Concat(slices.Repeat([]*trace.Trace{window}, 99)...)
	sc, err := faults.Builtin("none", sol.K)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		ctx     context.Context
		tr      *trace.Trace
		wantErr string // the error the run must end with; "": none
	}{
		{"clean", context.Background(), window, ""},
		{"cancelled at the first transaction", newCancelAfter(0), long, context.Canceled.Error()},
		{"cancelled mid-window", newCancelAfter(int64(window.Len() / 2)), long, context.Canceled.Error()},
		{"store error", context.Background(), withBadWrite(window, 10),
			`twopc: participant: db: commit: unknown table "NO_SUCH_TABLE"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var res *Result
			var err error
			done := make(chan struct{})
			go func() {
				defer close(done)
				res, err = Run(c.ctx, d, sol, c.tr, Config{Scenario: sc, Seed: 1, WALDir: t.TempDir()})
			}()
			select {
			case <-done:
			case <-time.After(runLimit):
				t.Fatalf("run did not return within %v", runLimit)
			}
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatal(err)
			case c.wantErr == "" && !res.OracleOK:
				t.Fatalf("clean run failed its oracle: %s", res)
			case c.wantErr != "" && (err == nil || err.Error() != c.wantErr):
				t.Fatalf("run returned %v, want %s", err, c.wantErr)
			}
			for deadline := time.Now().Add(100 * time.Millisecond); placing(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("a placement worker outlived the run")
				}
			}
			waitGoroutines(t, before)
		})
	}
}
