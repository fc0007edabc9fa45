package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Worker-pool metrics (see DESIGN.md, "Metric reference"): the gauges
// report the worker count of the most recent parallel phase and the
// (approximate) depth of its pending-work queue while it drains.
var (
	gPhase2Workers = obs.Default.Gauge("core.phase2_workers")
	gPhase2Queue   = obs.Default.Gauge("core.phase2_queue")
	gPhase3Workers = obs.Default.Gauge("core.phase3_workers")
	gPhase3Queue   = obs.Default.Gauge("core.phase3_queue")
)

// parallelism resolves the effective worker count of a run:
// Options.Parallelism when positive, else runtime.GOMAXPROCS(0).
// (withDefaults pins it, so after New this is always Options.Parallelism;
// the fallback keeps zero-valued Options usable in tests.)
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// forEachIndexed runs fn(i) for every i in [0, n) on a pool of at most
// `workers` goroutines. Work items are claimed from an atomic counter, so
// which worker runs which index is schedule-dependent — callers must make
// fn write only to index-i state (disjoint slots of a pre-sized slice)
// and do any order-sensitive folding sequentially after return. With
// workers <= 1 it degenerates to a plain loop (no goroutines at all), so
// the Parallelism=1 path is exactly the sequential code.
//
// Cancelling ctx stops the pool between items: no new index is claimed
// once ctx.Err() is non-nil, in-flight fn calls finish, and the context's
// error is returned. Callers must treat a non-nil return as "some slots
// never ran" and surface the error before folding results.
//
// queue, when non-nil, tracks the approximate number of unclaimed items.
func forEachIndexed(ctx context.Context, workers, n int, queue *obs.Gauge, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if queue != nil {
		queue.Set(float64(n))
		defer queue.Set(0)
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if queue != nil {
					queue.Set(float64(n - i - 1))
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// minShardItems is the fewest items forEachShard hands one worker. Its
// items are transactions, each a few navigations: below this many, a
// shard's goroutine costs more than it saves, and small class streams
// (SEATS's) ran slower sharded than serial. forEachIndexed has no such
// cutoff: each of its items (a class, a table option, a candidate
// solution) is a whole scan of a stream.
const minShardItems = 128

// forEachShard splits [0, n) into at most `workers` contiguous half-open
// ranges of at least minShardItems (one range when n is smaller) and
// runs fn(shard, lo, hi) for each concurrently. It returns the number of
// ranges. Shard boundaries depend only on (workers, n) — never on
// scheduling — so
// callers that fold per-shard accumulators in shard order get identical
// results for any actual interleaving; callers whose accumulation is
// commutative (integer sums, disjoint index writes) get identical results
// for any worker count. With workers <= 1 it is a direct call.
//
// Cancelling ctx skips shards not yet started (each worker checks before
// calling fn) and returns the context's error; a shard already inside fn
// runs to completion.
func forEachShard(ctx context.Context, workers, n int, fn func(shard, lo, hi int)) (int, error) {
	if n <= 0 {
		return 0, ctx.Err()
	}
	workers = min(workers, n/minShardItems)
	if workers <= 1 {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		fn(0, 0, n)
		return 1, ctx.Err()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			if ctx.Err() != nil {
				return
			}
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	return workers, ctx.Err()
}
