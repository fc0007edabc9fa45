package core

import (
	"context"
	"testing"

	"repro/internal/pool"
	"repro/internal/workloads/tpcc"
)

// TestForEachShardCutoff pins the small-input serial cutoff of the
// shard pool core's phases 1 and 2 use: fewer than
// 2*pool.MinShardItems items run as one shard whatever the worker
// count, more split into at most n/pool.MinShardItems shards, and a
// per-shard fold folded in shard order is identical at workers 1, 2
// and 8 on either side of the cutoff.
func TestForEachShardCutoff(t *testing.T) {
	for _, n := range []int{1, pool.MinShardItems - 1, 2*pool.MinShardItems - 1, 2 * pool.MinShardItems, 10*pool.MinShardItems + 7} {
		var want int64
		for _, workers := range []int{1, 2, 8} {
			sums := make([]int64, workers)
			shards, err := pool.Shards(context.Background(), workers, n, func(shard, lo, hi int) {
				for i := lo; i < hi; i++ {
					sums[shard] += int64(i) * int64(i)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if wantShards := max(1, min(workers, n/pool.MinShardItems)); shards != wantShards {
				t.Errorf("n=%d workers=%d: %d shards, want %d", n, workers, shards, wantShards)
			}
			var got int64
			for _, s := range sums {
				got += s
			}
			if workers == 1 {
				want = got
			} else if got != want {
				t.Errorf("n=%d workers=%d: fold %d, want %d", n, workers, got, want)
			}
		}
	}
}

// TestPartitionCutoffDeterminism runs the pipeline at Parallelism 1, 2
// and 8 on a TPC-C trace whose class streams all fall below the shard
// cutoff and on one whose largest streams shard: Solution and Report
// JSON are byte-identical across worker counts in both.
func TestPartitionCutoffDeterminism(t *testing.T) {
	for _, txns := range []int{200, 4000} {
		var wantSol, wantRep string
		for _, par := range []int{1, 2, 8} {
			sol, rep := runFingerprint(t, tpcc.New(), 4, txns, Options{K: 4, Seed: 42, Parallelism: par})
			if par == 1 {
				wantSol, wantRep = sol, rep
				continue
			}
			if sol != wantSol || rep != wantRep {
				t.Errorf("txns=%d parallelism=%d: output diverged from parallelism=1", txns, par)
			}
		}
	}
}
