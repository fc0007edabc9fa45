package eval_test

// Run: go test -bench=EvaluateRow -benchmem -run='^$' ./internal/eval/

import (
	"testing"

	"repro/internal/eval"
)

// BenchmarkEvaluateRow measures eval.Evaluate, the row-trace evaluator
// jecb and jecbbench score the test half with, on a benchmark's JECB
// solution (K=8, a 2000-transaction trace split in halves): assigner
// construction plus one placement per test access. The inputs are TPC-C
// at 8 warehouses and TPC-E at its default size (scale 0).
func BenchmarkEvaluateRow(b *testing.B) {
	for _, c := range []struct {
		name  string
		scale int
	}{{"tpcc", 8}, {"tpce", 0}} {
		b.Run(c.name, func(b *testing.B) {
			d, sol, _, test := solved(b, c.name, c.scale, 2000, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := eval.Evaluate(d, sol, test)
				if err != nil {
					b.Fatal(err)
				}
				if r.Total != test.Len() {
					b.Fatalf("scored %d of %d", r.Total, test.Len())
				}
			}
		})
	}
}
