package twopc

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/trace"
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

// TestRunLeavesNoGoroutine checks that a 2PC run joins every goroutine
// it starts — participant servers, and the workers placing its window
// ahead of the replay — whether it finishes or fails mid-window. The
// failing runs replay the window repeated 100 times, which takes a
// worker far longer to place than the 100 ms the check allows, so a run
// that left its placement to finish on its own fails here.
func TestRunLeavesNoGoroutine(t *testing.T) {
	d, sol, window := tpccWindow(t)
	long := window.Concat(slices.Repeat([]*trace.Trace{window}, 99)...)
	sc, err := faults.Builtin("none", sol.K)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		cancel int64 // the transaction the run is cancelled at; -1: never
	}{
		{"clean", -1},
		{"cancelled at the first transaction", 0},
		{"cancelled mid-window", int64(window.Len() / 2)},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, tr := context.Context(context.Background()), window
			if c.cancel >= 0 {
				ctx, tr = newCancelAfter(c.cancel), long
			}
			before := runtime.NumGoroutine()
			res, err := Run(ctx, d, sol, tr, Config{Scenario: sc, Seed: 1, WALDir: t.TempDir()})
			switch {
			case c.cancel < 0 && err != nil:
				t.Fatal(err)
			case c.cancel < 0 && !res.OracleOK:
				t.Fatalf("clean run failed its oracle: %s", res)
			case c.cancel >= 0 && !errors.Is(err, context.Canceled):
				t.Fatalf("cancelled run returned %v, want context.Canceled", err)
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
