// Package pool runs index-parallel work on bounded goroutine pools: one
// item per claim (ForEach) or one contiguous shard per worker (Shards).
// Callers that write only index-owned state, or fold per-shard results
// in shard order, get the same answer at any worker count and under any
// schedule.
package pool

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// ForEach runs fn(i) for every i in [0, n) on a pool of at most
// `workers` goroutines. Work items are claimed from an atomic counter, so
// which worker runs which index is schedule-dependent — callers must make
// fn write only to index-i state (disjoint slots of a pre-sized slice)
// and do any order-sensitive folding sequentially after return. With
// workers <= 1 it degenerates to a plain loop (no goroutines at all), so
// the one-worker path is exactly the sequential code.
//
// Cancelling ctx stops the pool between items: no new index is claimed
// once ctx.Err() is non-nil, in-flight fn calls finish, and the context's
// error is returned. Callers must treat a non-nil return as "some slots
// never ran" and surface the error before folding results.
//
// queue, when non-nil, tracks the approximate number of unclaimed items.
func ForEach(ctx context.Context, workers, n int, queue *obs.Gauge, fn func(i int)) error {
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

// MinShardItems is the fewest items Shards hands one worker. Its items
// are transactions, each a few navigations or placements: below this
// many, a shard's goroutine costs more than it saves, and small class
// streams (SEATS's) ran slower sharded than serial. ForEach has no such
// cutoff: each of its items (a class, a table, a candidate solution) is
// a whole scan of a stream.
const MinShardItems = 128

// ShardCount is the number of shards Shards splits n items into for the
// given worker count: at most workers, each of at least MinShardItems,
// and at least one.
func ShardCount(workers, n int) int {
	return max(1, min(workers, n/MinShardItems))
}

// Shards splits [0, n) into ShardCount(workers, n) contiguous half-open
// ranges, shard w being [w·n/s, (w+1)·n/s) of s shards, and runs
// fn(w, lo, hi) for each concurrently. It returns the number of shards.
// Shard boundaries depend only on (workers, n) — never on scheduling —
// so callers that fold per-shard accumulators in shard order get
// identical results for any actual interleaving; callers whose
// accumulation is commutative (integer sums, disjoint index writes) get
// identical results for any worker count. With one shard it is a direct
// call on the caller's goroutine.
//
// Cancelling ctx skips shards not yet started (each worker checks before
// calling fn) and returns the context's error; a shard already inside fn
// runs to completion.
func Shards(ctx context.Context, workers, n int, fn func(shard, lo, hi int)) (int, error) {
	if n <= 0 {
		return 0, ctx.Err()
	}
	shards := ShardCount(workers, n)
	if shards == 1 {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		fn(0, 0, n)
		return 1, ctx.Err()
	}
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		lo, hi := w*n/shards, (w+1)*n/shards
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
	return shards, ctx.Err()
}
