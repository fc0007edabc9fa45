package workloads_test

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

var traceSink *trace.Trace

// BenchmarkGenerateTrace times trace generation alone at the jecbbench
// sizes. Generation mutates the database, so each iteration loads a fresh
// one with the timer stopped.
func BenchmarkGenerateTrace(b *testing.B) {
	for _, c := range []struct {
		name        string
		scale, txns int
	}{
		{"tpcc", 32, 20000},
		{"tpce", 200, 6000},
	} {
		b.Run(c.name, func(b *testing.B) {
			bench, _ := workloads.Get(c.name)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d, err := bench.Load(workloads.Config{Scale: c.scale, Seed: 11})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				traceSink = workloads.GenerateTrace(bench, d, c.txns, 12)
			}
		})
	}
}
