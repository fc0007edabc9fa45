package eval

// Benchmarks of the sharded evaluator: the same Assigner scoring the same
// trace at a sweep of worker counts. TPC-C/SEATS full-pipeline numbers
// live in internal/core/parallel_bench_test.go.
//
// Run: go test -bench=AssignerEvaluate -benchmem ./internal/eval/

import (
	"fmt"
	"testing"

	"repro/internal/fixture"
)

func BenchmarkAssignerEvaluate(b *testing.B) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 4000, 7)
	a, err := NewAssigner(d, joinExtensionSolution(8))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if r := a.Evaluate(tr, workers); r.Total != tr.Len() {
					b.Fatalf("scored %d of %d", r.Total, tr.Len())
				}
			}
		})
	}
}
