package core

// Benchmarks of the parallel search on TPC-C and SEATS, each at a sweep
// of worker counts: the full pipeline (Partition, phases 1–3), then
// phase 2 (per-class join trees) and phase 3 (combination search) in
// isolation — plus phases 2 and 3 on TPC-E, the workload with the most
// classes, combinations and table options. Loading the database,
// generating the trace, and the phases run before the timed one happen
// outside the timer. The evaluator's counterparts live in
// internal/eval/parallel_bench_test.go.
//
// Run: go test -bench='Partition|Phase2|Phase3' -benchtime=100x -count=3 ./internal/core/

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/workloads"
	"repro/internal/workloads/seats"
	"repro/internal/workloads/tpcc"
	"repro/internal/workloads/tpce"
)

// benchInput loads a benchmark and splits a generated trace in halves:
// the set-up every benchmark here keeps outside the timed loop.
func benchInput(tb testing.TB, b workloads.Benchmark, scale, txns int) Input {
	tb.Helper()
	d, err := b.Load(workloads.Config{Scale: scale, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	full := workloads.GenerateTrace(b, d, txns, 2)
	train, test := full.TrainTest(0.5, rand.New(rand.NewSource(3)))
	return Input{DB: d, Procedures: workloads.Procedures(b), Train: train, Test: test}
}

// benchOptions are the search options of every benchmark here.
func benchOptions(workers int) Options { return Options{K: 8, Seed: 42, Parallelism: workers} }

func benchPartition(b *testing.B, bench workloads.Benchmark, scale, txns int) {
	in := benchInput(b, bench, scale, txns)
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Partition(context.Background(), in, benchOptions(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPartitioner constructs a ready-to-run Partitioner, so phase 2 and
// phase 3 can be timed in isolation, and a function that runs phase 1 in
// a new database view, closing the one it opened before. As in
// RunContext, the phases read through that view. Each timed iteration
// calls it first, with the timer stopped, so it starts with the hop memo
// a solve gives it: cold for phase 2, and for phase 3 as phase 2 left it
// in the same view.
func benchPartitioner(tb testing.TB, b workloads.Benchmark, scale, txns, workers int) (*Partitioner, func() *preprocessed) {
	tb.Helper()
	p, err := New(benchInput(tb, b, scale, txns), benchOptions(workers))
	if err != nil {
		tb.Fatal(err)
	}
	v := p.in.DB.View()
	tb.Cleanup(func() { v.Close() })
	return p, func() *preprocessed {
		v.Close()
		v = p.in.DB.View()
		pre, err := p.phase1(context.Background(), v)
		if err != nil {
			tb.Fatal(err)
		}
		return pre
	}
}

func benchPhase2(b *testing.B, bench workloads.Benchmark, scale, txns int) {
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p, phase1 := benchPartitioner(b, bench, scale, txns, workers)
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pre := phase1()
				b.StartTimer()
				if _, err := p.phase2(ctx, pre); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchPhase3(b *testing.B, bench workloads.Benchmark, scale, txns int) {
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p, phase1 := benchPartitioner(b, bench, scale, txns, workers)
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pre := phase1()
				classes, err := p.phase2(ctx, pre)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, err := p.phase3(ctx, pre, classes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPartitionTPCC(b *testing.B)  { benchPartition(b, tpcc.New(), 8, 2000) }
func BenchmarkPartitionSEATS(b *testing.B) { benchPartition(b, seats.New(), 300, 2000) }
func BenchmarkPhase2TPCC(b *testing.B)     { benchPhase2(b, tpcc.New(), 8, 2000) }
func BenchmarkPhase2SEATS(b *testing.B)    { benchPhase2(b, seats.New(), 300, 2000) }
func BenchmarkPhase2TPCE(b *testing.B)     { benchPhase2(b, tpce.New(), 200, 2000) }
func BenchmarkPhase3TPCC(b *testing.B)     { benchPhase3(b, tpcc.New(), 8, 2000) }
func BenchmarkPhase3SEATS(b *testing.B)    { benchPhase3(b, seats.New(), 300, 2000) }
func BenchmarkPhase3TPCE(b *testing.B)     { benchPhase3(b, tpce.New(), 200, 2000) }
