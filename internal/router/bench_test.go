package router

// Benchmarks of the router layer on a benchmark's JECB solution.
//
// Run: go test -bench='RouterNew|Route$' -benchmem -run='^$' ./internal/router/

import (
	"context"
	"testing"
)

// benchCases are the router layer's benchmark inputs: TPC-C at 8
// warehouses and TPC-E at its default size (scale 0).
var benchCases = []struct {
	name  string
	scale int
}{{"tpcc", 8}, {"tpce", 0}}

// BenchmarkRouterNew measures building the router for a benchmark's JECB
// solution: the SQL analysis is done once, so each iteration plans every
// class and builds the lookup tables its plan consults, placing each
// table's rows once however many of its routing columns are built.
func BenchmarkRouterNew(b *testing.B) {
	for _, c := range benchCases {
		b.Run(c.name, func(b *testing.B) {
			s := solvedAt(b, c.name, c.scale)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := New(s.d, s.sol, s.analyses); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRoute measures Router.Route on a benchmark's JECB solution:
// each iteration routes every test transaction with every node up, the
// way jecb and jecbbench route the test half.
func BenchmarkRoute(b *testing.B) {
	for _, c := range benchCases {
		b.Run(c.name, func(b *testing.B) {
			s := solvedAt(b, c.name, c.scale)
			rt, err := New(s.d, s.sol, s.analyses)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, txn := range s.test.All() {
					if _, err := rt.Route(ctx, Request{Class: txn.Class, Params: txn.Params}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
