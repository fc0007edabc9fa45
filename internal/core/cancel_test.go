package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pool"
)

// TestForEachIndexedCancellation pins the pool's cancellation contract:
// a pre-cancelled context runs nothing, a context cancelled mid-run on
// the sequential path stops after the item that cancelled it, and the
// returned error is exactly the context's.
func TestForEachIndexedCancellation(t *testing.T) {
	t.Run("pre-cancelled runs nothing", func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			ran := 0
			err := pool.ForEach(ctx, workers, 100, nil, func(i int) { ran++ })
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: err = %v, want Canceled", workers, err)
			}
			if ran != 0 {
				t.Fatalf("workers=%d: ran %d items on a cancelled context", workers, ran)
			}
		}
	})
	t.Run("sequential cancel stops deterministically", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		ran := 0
		err := pool.ForEach(ctx, 1, 100, nil, func(i int) {
			ran++
			if i == 5 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
		// The check runs before each claim: item 5 cancels, item 6 never
		// starts.
		if ran != 6 {
			t.Fatalf("ran %d items, want exactly 6", ran)
		}
	})
	t.Run("uncancelled runs everything", func(t *testing.T) {
		var hit [50]bool
		if err := pool.ForEach(context.Background(), 4, len(hit), nil, func(i int) { hit[i] = true }); err != nil {
			t.Fatal(err)
		}
		for i, ok := range hit {
			if !ok {
				t.Fatalf("item %d never ran", i)
			}
		}
	})
}

func TestForEachShardCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ran := 0
		_, err := pool.Shards(ctx, workers, 100, func(shard, lo, hi int) { ran++ })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want Canceled", workers, err)
		}
		if ran != 0 {
			t.Fatalf("workers=%d: ran %d shards on a cancelled context", workers, ran)
		}
	}
}

// TestPartitionCancelled drives cancellation through the public API: a
// cancelled context surfaces context.Canceled from the full pipeline,
// identically for any worker count (the satellite determinism contract —
// no partial fold ever masks the cancellation).
//
// Every goroutine the run started has exited once Partition returns,
// whether the context was cancelled before the run or partway through
// it (countdownCtx), where the pools are mid-flight.
func TestPartitionCancelled(t *testing.T) {
	in, _ := custInfoInput(t, 200)
	for _, par := range []int{1, 4} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, _, err := Partition(ctx, in, Options{K: 2, Parallelism: par})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism=%d: err = %v, want context.Canceled", par, err)
		}
		waitGoroutines(t, before)
	}
	// Cancel at each successive check until a run gets through, so every
	// cancellation point of every phase is hit.
	big, _ := custInfoInput(t, 2000)
	for _, par := range []int{1, 4} {
		for after := int64(1); ; after++ {
			if after > 1000 {
				t.Fatalf("parallelism=%d: no run finished within 1000 cancellation checks", par)
			}
			before := runtime.NumGoroutine()
			ctx := &countdownCtx{Context: context.Background()}
			ctx.left.Store(after)
			_, _, err := Partition(ctx, big, Options{K: 2, Parallelism: par})
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("parallelism=%d cancel after %d checks: err = %v", par, after, err)
			}
			waitGoroutines(t, before)
			if err == nil {
				break
			}
		}
	}
}

// countdownCtx is a context whose Err turns to context.Canceled after
// left calls: it cancels a run partway through at a point that depends
// on the number of cancellation checks, not on timing.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// waitGoroutines fails the test unless the goroutine count drops back to
// before within two seconds: a pool goroutine may still be returning
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

// TestPhase3Cancelled cancels between phases: phase2 completes, phase3
// must refuse to fold half-costed candidates and report the cancellation.
func TestPhase3Cancelled(t *testing.T) {
	in, _ := custInfoInput(t, 200)
	p, err := New(in, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	v := p.in.DB.View()
	defer v.Close()
	pre, err := p.phase1(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	classes, err := p.phase2(context.Background(), pre)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := p.phase3(ctx, pre, classes); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
