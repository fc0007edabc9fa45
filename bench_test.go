// Benchmarks that regenerate the paper's tables and figures (one per
// experiment, sized to finish in seconds; cmd/experiments runs the full
// paper scales) plus micro-benchmarks of the hot substrates.
//
// Run: go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/fixture"
	"repro/internal/graphpart"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/router"
	"repro/internal/schism"
	"repro/internal/sqlparse"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workloads"
	_ "repro/internal/workloads/all"
)

// --- Experiment benchmarks: one per paper table/figure -------------------

// BenchmarkFigure5 regenerates the TPC-C 128-warehouse scaling curves
// (reduced warehouse count per iteration to stay in benchmark budgets).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TPCCScaling(32, []float64{0.01, 0.10}, []int{2, 8, 32}, 1)
		if err != nil {
			b.Fatal(err)
		}
		reportScaling(b, res)
	}
}

// BenchmarkFigure6 regenerates the larger-database variant (Figure 6's
// 1024 warehouses shrunk to 128 for bench budgets; cmd/experiments runs
// the full size).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TPCCScaling(128, []float64{0.002, 0.01}, []int{2, 16, 128}, 1)
		if err != nil {
			b.Fatal(err)
		}
		reportScaling(b, res)
	}
}

func reportScaling(b *testing.B, res *experiments.ScalingResult) {
	b.Helper()
	last := res.JECB[len(res.JECB)-1]
	b.ReportMetric(100*last.Cost, "jecb_%dist_at_maxk")
	for label, series := range res.Schism {
		b.ReportMetric(100*series[len(series)-1].Cost,
			strings.ReplaceAll(label, " ", "_")+"_%dist_at_maxk")
	}
}

// BenchmarkTable1 regenerates the resource-consumption comparison at the
// 128-warehouse scale of Table 1.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TPCCResources(128,
			[]experiments.TrainSize{{Label: "1%", Txns: 220}, {Label: "5%", Txns: 1100}, {Label: "10%", Txns: 2200}}, 8, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.RAMMB, strings.ReplaceAll(r.Approach, " ", "_")+"_MB")
		}
	}
}

// BenchmarkTable2 is the bigger-database variant (Table 2's 1024
// warehouses shrunk to 256 for bench budgets).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TPCCResources(256,
			[]experiments.TrainSize{{Label: "0.2%", Txns: 900}, {Label: "1%", Txns: 4400}}, 8, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.RAMMB, strings.ReplaceAll(r.Approach, " ", "_")+"_MB")
		}
	}
}

// BenchmarkFigure7 regenerates the five-benchmark quality comparison.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Quality(
			[]string{"tpcc", "tatp", "seats", "auctionmark", "tpce"}, 8, 3000, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(100*r.JECB, r.Benchmark+"_jecb_%")
			b.ReportMetric(100*r.Schism, r.Benchmark+"_schism_%")
			b.ReportMetric(100*r.Horticulture, r.Benchmark+"_hc_%")
		}
	}
}

// benchTPCE shares the TPC-E deep-dive run behind Tables 3–4 and
// Figures 8–9.
func benchTPCE(b *testing.B, report func(*experiments.TPCEResult)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.TPCE(200, 4000, 8, 1)
		if err != nil {
			b.Fatal(err)
		}
		report(res)
	}
}

// BenchmarkTable3 regenerates the TPC-E per-class solution table.
func BenchmarkTable3(b *testing.B) {
	benchTPCE(b, func(res *experiments.TPCEResult) {
		total := 0
		for _, row := range res.Report.Table3() {
			if row.Total != "No" && row.Total != "Read-only" {
				total++
			}
		}
		b.ReportMetric(float64(total), "classes_with_total_solutions")
	})
}

// BenchmarkTable4 regenerates the TPC-E per-table placement table.
func BenchmarkTable4(b *testing.B) {
	benchTPCE(b, func(res *experiments.TPCEResult) {
		partitioned := 0
		for _, ts := range res.Report.Solution.Tables {
			if !ts.Replicate {
				partitioned++
			}
		}
		b.ReportMetric(float64(partitioned), "partitioned_tables")
	})
}

// BenchmarkFigure8 reports JECB's overall TPC-E cost (the area under
// Figure 8).
func BenchmarkFigure8(b *testing.B) {
	benchTPCE(b, func(res *experiments.TPCEResult) {
		b.ReportMetric(100*res.JECBCost, "jecb_%dist")
	})
}

// BenchmarkFigure9 reports the published Horticulture solution's overall
// TPC-E cost (the area under Figure 9).
func BenchmarkFigure9(b *testing.B) {
	benchTPCE(b, func(res *experiments.TPCEResult) {
		b.ReportMetric(100*res.HCCost, "horticulture_%dist")
	})
}

// BenchmarkSynthetic regenerates the §7.6 mix sweep.
func BenchmarkSynthetic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.SyntheticSweep([]float64{0.9, 0.5, 0.1}, 100, 200, 1200, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.ReportMetric(100*p.JECB, fmt.Sprintf("jecb_%%dist_at_%.0f%%schema", 100*p.SchemaFrac))
		}
	}
}

// --- Ablation benchmarks (DESIGN.md's design-choice index) ---------------

// BenchmarkAblationIntraTable compares full JECB against the
// intra-table-only ablation on TPC-E: the gap is the value of join
// extension.
func BenchmarkAblationIntraTable(b *testing.B) {
	r := mustTPCERun(b)
	for i := 0; i < b.N; i++ {
		for _, intra := range []bool{false, true} {
			sol, _, err := core.Partition(context.Background(), core.Input{
				DB: r.d, Procedures: workloads.Procedures(r.b), Train: r.train, Test: r.test,
			}, core.Options{K: 8, IntraTableOnly: intra})
			if err != nil {
				b.Fatal(err)
			}
			res, err := eval.Evaluate(r.d, sol, r.test)
			if err != nil {
				b.Fatal(err)
			}
			name := "full_jecb_%dist"
			if intra {
				name = "intra_table_only_%dist"
			}
			b.ReportMetric(100*res.Cost(), name)
		}
	}
}

// BenchmarkAblationKeepAllTrees measures the cost of skipping
// compatible-tree merging (Definition 9) in Phase 2.
func BenchmarkAblationKeepAllTrees(b *testing.B) {
	r := mustTPCERun(b)
	for i := 0; i < b.N; i++ {
		for _, keep := range []bool{false, true} {
			_, rep, err := core.Partition(context.Background(), core.Input{
				DB: r.d, Procedures: workloads.Procedures(r.b), Train: r.train, Test: r.test,
			}, core.Options{K: 8, KeepAllTrees: keep})
			if err != nil {
				b.Fatal(err)
			}
			name := "merged"
			if keep {
				name = "keepall"
			}
			b.ReportMetric(float64(rep.CombosEvaluated), name+"_combos")
			// The per-table candidate pool (and with it the unpruned
			// space) grows when coarser trees are kept; the Phase 3
			// compatibility heuristics absorb most of it, which is
			// itself a finding.
			b.ReportMetric(float64(rep.UnprunedSpace), name+"_space")
		}
	}
}

// tpceRun caches a loaded TPC-E database plus its trace split for the
// ablation and pipeline benchmarks.
type tpceRun struct {
	b           workloads.Benchmark
	d           *db.DB
	train, test *trace.Trace
}

func mustTPCERun(b *testing.B) *tpceRun {
	b.Helper()
	bench, _ := workloads.Get("tpce")
	d, err := bench.Load(workloads.Config{Scale: 150, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	full := workloads.GenerateTrace(bench, d, 3000, 2)
	train, test := full.TrainTest(0.5, rand.New(rand.NewSource(3)))
	return &tpceRun{b: bench, d: d, train: train, test: test}
}

// --- Micro-benchmarks of the hot substrates ------------------------------

// BenchmarkPathEval measures compiled join-path navigation from a key,
// the inner loop of every cost evaluation.
func BenchmarkPathEval(b *testing.B) {
	d := fixture.CustInfoDB()
	nav, err := d.Compile(fixture.TradePath())
	if err != nil {
		b.Fatal(err)
	}
	keys := d.Table("TRADE").Keys()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		navSink, _ = nav.FromKey(keys[i%len(keys)])
	}
}

// navSink keeps BenchmarkPathEval's navigations live.
var navSink value.Value

// benchSolution is the hand-built join-path solution the evaluation
// benchmarks score.
func benchSolution() *partition.Solution {
	sol := partition.NewSolution("bench", 8)
	sol.Set(partition.NewByPath("TRADE", fixture.TradePath(), partition.NewHash(8)))
	sol.Set(partition.NewByPath("HOLDING_SUMMARY", fixture.HSPath(), partition.NewHash(8)))
	sol.Set(partition.NewByPath("CUSTOMER_ACCOUNT", fixture.CAPath(), partition.NewHash(8)))
	return sol
}

// BenchmarkEvaluate measures full-solution evaluation on the zero-alloc
// path: a prebuilt PlaceIndex over the columnar trace, scoring with array
// loads only. This is the steady state the phase-3 combination search and
// the streaming evaluator run in.
func BenchmarkEvaluate(b *testing.B) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 500, 1)
	a, err := eval.NewAssigner(d, benchSolution())
	if err != nil {
		b.Fatal(err)
	}
	idx := a.Index(trace.Columnarize(tr))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := idx.Evaluate(); r.Total != tr.Len() {
			b.Fatalf("scored %d of %d", r.Total, tr.Len())
		}
	}
}

// BenchmarkEvaluateLegacy measures the row-at-a-time path the package
// started with — assigner construction plus per-access map/navigation
// work each iteration — kept as the baseline the columnar numbers are
// read against.
func BenchmarkEvaluateLegacy(b *testing.B) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 500, 1)
	sol := benchSolution()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Evaluate(d, sol, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphPartition measures the min-cut heuristic on a clustered
// co-access graph.
func BenchmarkGraphPartition(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graphpart.New(4096)
	for c := 0; c < 256; c++ {
		base := c * 16
		for i := 0; i < 16; i++ {
			for j := i + 1; j < 16; j++ {
				g.AddEdge(base+i, base+j, 4)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		g.AddEdge(rng.Intn(4096), rng.Intn(4096), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphpart.Partition(g, 16, graphpart.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchismTPCC measures the Schism pipeline end to end.
func BenchmarkSchismTPCC(b *testing.B) {
	bench, _ := workloads.Get("tpcc")
	d, err := bench.Load(workloads.Config{Scale: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tr := workloads.GenerateTrace(bench, d, 2000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := schism.Partition(schism.Input{DB: d, Train: tr},
			schism.Options{K: 8, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJECBTPCE measures the full JECB pipeline on TPC-E.
func BenchmarkJECBTPCE(b *testing.B) {
	r := mustTPCERun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Partition(context.Background(), core.Input{
			DB: r.d, Procedures: workloads.Procedures(r.b), Train: r.train, Test: r.test,
		}, core.Options{K: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// solvedBench is a benchmark's JECB solution with the data and traces
// it was found on: the database loaded at the given scale (0 = the
// benchmark's default), a 2000-transaction trace split in halves, the
// K=8 solution of the training half, and every procedure's SQL analysis.
type solvedBench struct {
	d        *db.DB
	sol      *partition.Solution
	test     *trace.Trace
	analyses []*sqlparse.Analysis
}

func newSolvedBench(b *testing.B, name string, scale int) solvedBench {
	b.Helper()
	bench, _ := workloads.Get(name)
	d, err := bench.Load(workloads.Config{Scale: scale, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tr := workloads.GenerateTrace(bench, d, 2000, 2)
	train, test := tr.TrainTest(0.5, rand.New(rand.NewSource(3)))
	procs := workloads.Procedures(bench)
	sol, _, err := core.Partition(context.Background(), core.Input{
		DB: d, Procedures: procs, Train: train, Test: test,
	}, core.Options{K: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	analyses := make([]*sqlparse.Analysis, 0, len(procs))
	for _, proc := range procs {
		a, err := sqlparse.Analyze(proc, d.Schema())
		if err != nil {
			b.Fatal(err)
		}
		analyses = append(analyses, a)
	}
	return solvedBench{d: d, sol: sol, test: test, analyses: analyses}
}

// solvedBenchCases are the per-layer benchmark inputs: TPC-C at 8
// warehouses and TPC-E at its default size.
var solvedBenchCases = []struct {
	name  string
	scale int
}{{"tpcc", 8}, {"tpce", 0}}

// BenchmarkRouterNew measures building the router for a benchmark's JECB
// solution: the SQL analysis is done once, so each iteration plans every
// class and builds its lookup tables, placing each partitioned table's
// rows once however many routing columns it has.
func BenchmarkRouterNew(b *testing.B) {
	for _, c := range solvedBenchCases {
		b.Run(c.name, func(b *testing.B) { benchRouterNew(b, c.name, c.scale) })
	}
}

func benchRouterNew(b *testing.B, name string, scale int) {
	s := newSolvedBench(b, name, scale)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := router.New(s.d, s.sol, s.analyses); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoute measures Router.Route on a benchmark's JECB solution:
// each iteration routes every test transaction with every node up, the
// way jecb and jecbbench route the test half.
func BenchmarkRoute(b *testing.B) {
	for _, c := range solvedBenchCases {
		b.Run(c.name, func(b *testing.B) {
			s := newSolvedBench(b, c.name, c.scale)
			rt, err := router.New(s.d, s.sol, s.analyses)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, txn := range s.test.All() {
					if _, err := rt.Route(ctx, router.Request{Class: txn.Class, Params: txn.Params}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkEvaluateRow measures eval.Evaluate, the row-trace evaluator
// jecb and jecbbench score the test half with, on a benchmark's JECB
// solution: assigner construction plus one placement per test access.
func BenchmarkEvaluateRow(b *testing.B) {
	for _, c := range solvedBenchCases {
		b.Run(c.name, func(b *testing.B) {
			s := newSolvedBench(b, c.name, c.scale)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := eval.Evaluate(s.d, s.sol, s.test)
				if err != nil {
					b.Fatal(err)
				}
				if r.Total != s.test.Len() {
					b.Fatalf("scored %d of %d", r.Total, s.test.Len())
				}
			}
		})
	}
}

// BenchmarkValueHash measures the avalanche-finalized value hash.
func BenchmarkValueHash(b *testing.B) {
	v := value.NewInt(123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Hash()
	}
}

// BenchmarkHDRObserve measures one latency observation into the
// log-linear HDR histogram — the per-commit hot path of every chaos and
// durable replay. It must stay allocation-free.
func BenchmarkHDRObserve(b *testing.B) {
	var h obs.HDR
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i)*977 + 13)
	}
}

// BenchmarkTraceEvent measures one flight-recorder Record call — the
// per-event cost of transaction tracing when a recorder is attached. It
// must stay allocation-free.
func BenchmarkTraceEvent(b *testing.B) {
	rec := obs.NewRecorder(1 << 16)
	txn := obs.TxnID(1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(txn, obs.EvRoute, 3, 1, float64(i), 0x0102)
	}
}

// BenchmarkTraceEventDisabled measures the disabled path: a nil recorder
// must cost one branch and zero allocations.
func BenchmarkTraceEventDisabled(b *testing.B) {
	var rec *obs.Recorder
	txn := obs.TxnID(1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(txn, obs.EvRoute, 3, 1, float64(i), 0x0102)
	}
}
