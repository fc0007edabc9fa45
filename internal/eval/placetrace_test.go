package eval_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/workloads"
	_ "repro/internal/workloads/all"
)

// solved loads one registered benchmark, partitions the training half of
// a generated trace into k partitions and returns the database, the
// bound solution and the test half.
func solved(tb testing.TB, name string, scale, txns, k int) (*db.DB, *partition.Solution, *eval.Assigner, *trace.Trace) {
	tb.Helper()
	b, ok := workloads.Get(name)
	if !ok {
		tb.Fatalf("no benchmark %q", name)
	}
	d, err := b.Load(workloads.Config{Scale: scale, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	full := workloads.GenerateTrace(b, d, txns, 2)
	train, test := full.TrainTest(0.5, rand.New(rand.NewSource(3)))
	sol, _, err := core.Partition(context.Background(), core.Input{
		DB: d, Procedures: workloads.Procedures(b), Train: train, Test: test,
	}, core.Options{K: k, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	a, err := eval.NewAssigner(d, sol)
	if err != nil {
		tb.Fatal(err)
	}
	return d, sol, a, test
}

// TestPlaceTraceMatchesPlaceTxn checks, on every benchmark at 1, 2 and 8
// workers, that the placement PlaceTrace fills ahead of its reader is
// PlaceTxn's, transaction by transaction, whether the reader goes
// through the trace in order, backwards, or in a random order.
func TestPlaceTraceMatchesPlaceTxn(t *testing.T) {
	scales := map[string]int{"tpcc": 2, "tatp": 50}
	for _, name := range []string{"auctionmark", "seats", "synthetic", "tatp", "tpcc", "tpce"} {
		t.Run(name, func(t *testing.T) {
			scale, ok := scales[name]
			if !ok {
				scale = 30
			}
			d, _, a, tr := solved(t, name, scale, 1200, 4)
			n := tr.Len()
			want := make([][]int32, n)
			v := d.View()
			for i := range want {
				want[i] = a.PlaceTxn(v, tr.At(i), nil)
			}
			v.Close()
			backwards := make([]int, n)
			for i := range backwards {
				backwards[i] = n - 1 - i
			}
			orders := map[string][]int{
				"in order":  nil,
				"backwards": backwards,
				"shuffled":  rand.New(rand.NewSource(5)).Perm(n),
			}
			for _, workers := range []int{1, 2, 8} {
				for oname, order := range orders {
					p := a.PlaceTrace(tr, workers)
					for j := 0; j < n; j++ {
						i := j
						if order != nil {
							i = order[j]
						}
						if got := p.Txn(i); !slices.Equal(got, want[i]) {
							p.Stop()
							t.Fatalf("workers=%d %s: txn %d placed %v, PlaceTxn gives %v", workers, oname, i, got, want[i])
						}
					}
					p.Stop()
				}
			}
		})
	}
}

// BenchmarkPlaceTrace is the placement layer's row: one PlaceTrace of a
// 3,000-transaction TPC-C (8 warehouses) and TPC-E (200 customers)
// window, read in order as a replay reads it, at one worker and at
// GOMAXPROCS. first-chunk-ns is the time from the call until the first
// transaction's placements can be read; placed-ns (and ns/op) until the
// last one's can, that is, until the window is fully placed.
func BenchmarkPlaceTrace(b *testing.B) {
	for _, w := range []struct {
		name  string
		scale int
	}{{"tpcc", 8}, {"tpce", 200}} {
		_, _, a, test := solved(b, w.name, w.scale, 6000, 4)
		window := test.Head(3000)
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%s/workers=%d", w.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				var first, full time.Duration
				for i := 0; i < b.N; i++ {
					start := time.Now()
					p := a.PlaceTrace(window, workers)
					p.Txn(0)
					first += time.Since(start)
					for j := 1; j < window.Len(); j++ {
						p.Txn(j)
					}
					full += time.Since(start)
					p.Stop()
				}
				b.ReportMetric(float64(first.Nanoseconds())/float64(b.N), "first-chunk-ns")
				b.ReportMetric(float64(full.Nanoseconds())/float64(b.N), "placed-ns")
			})
		}
	}
}
