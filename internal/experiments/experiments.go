// Package experiments regenerates every table and figure of the paper's
// evaluation (§7): the TPC-C scalability figures and resource tables
// (Figures 5–6, Tables 1–2), the five-benchmark quality comparison
// (Figure 7), the TPC-E deep dive (Tables 3–4, Figures 8–9), and the
// §7.6 synthetic mix sweep. Each driver returns structured results the
// cmd/experiments tool renders.
package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/horticulture"
	"repro/internal/partition"
	"repro/internal/schism"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// parallelism is the worker count handed to every core.Partition call
// the experiment drivers make (0 = GOMAXPROCS). Solutions and reports
// are identical for any value — see core.Options.Parallelism — so this
// only changes wall-clock time, never the rendered tables.
var parallelism int

// SetParallelism sets the search worker count for all subsequent
// experiment runs (0 restores the GOMAXPROCS default).
func SetParallelism(n int) { parallelism = n }

// withParallelism stamps the package-level worker count onto a driver's
// core options.
func withParallelism(o core.Options) core.Options {
	o.Parallelism = parallelism
	return o
}

// run bundles a loaded benchmark with its traces.
type run struct {
	bench workloads.Benchmark
	db    *db.DB
	train *trace.Trace
	test  *trace.Trace
}

// load generates the database and a trace split for a benchmark.
func load(name string, scale, txns int, trainFrac float64, seed int64) (*run, error) {
	b, ok := workloads.Get(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown benchmark %q", name)
	}
	return loadBench(b, scale, txns, trainFrac, seed)
}

func loadBench(b workloads.Benchmark, scale, txns int, trainFrac float64, seed int64) (*run, error) {
	d, err := b.Load(workloads.Config{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	train, test := workloads.GenerateTrace(b, d, txns, seed+1).TrainTest(trainFrac, rand.New(rand.NewSource(seed+2)))
	return &run{bench: b, db: d, train: train, test: test}, nil
}

func (r *run) jecb(k int) (*partition.Solution, *core.Report, error) {
	return core.Partition(context.Background(), core.Input{
		DB:         r.db,
		Procedures: workloads.Procedures(r.bench),
		Train:      r.train,
		Test:       r.test,
	}, withParallelism(core.Options{K: k}))
}

func (r *run) cost(sol *partition.Solution) (float64, error) {
	res, err := eval.Evaluate(r.db, sol, r.test)
	if err != nil {
		return 0, err
	}
	return res.Cost(), nil
}

// ------------------------------------------------------------------
// Figures 5 & 6: TPC-C scalability in database size and partitions.
// ------------------------------------------------------------------

// ScalingPoint is one (partitions, cost) sample of a Figure 5/6 series.
type ScalingPoint struct {
	Partitions int
	Cost       float64
}

// ScalingResult holds the Figure 5/6 series: JECB plus one Schism series
// per training coverage.
type ScalingResult struct {
	JECB   []ScalingPoint
	Schism map[string][]ScalingPoint
	// TrainTxns records how many training transactions each coverage
	// label used.
	TrainTxns map[string]int
}

// TPCCScaling regenerates Figure 5 (warehouses=128) / Figure 6
// (warehouses=1024): the fraction of distributed transactions versus the
// number of partitions, for Schism at the given training coverages and
// for JECB. Coverage c trains Schism on enough transactions for the
// tuple graph to span roughly c of the database's rows.
func TPCCScaling(warehouses int, coverages []float64, partitions []int, seed int64) (*ScalingResult, error) {
	b, _ := workloads.Get("tpcc")
	d, err := b.Load(workloads.Config{Scale: warehouses, Seed: seed})
	if err != nil {
		return nil, err
	}
	totalRows := d.TotalRows()
	// A TPC-C transaction touches ~8 distinct tuples; with heavy overlap
	// on hot rows the net new-tuple rate is ~4/txn at these scales.
	txnsFor := func(c float64) int {
		n := int(c * float64(totalRows) / 4)
		if n < 200 {
			n = 200
		}
		return n
	}
	maxTrain := 0
	for _, c := range coverages {
		if t := txnsFor(c); t > maxTrain {
			maxTrain = t
		}
	}
	testTxns := maxTrain / 2
	if testTxns < 1000 {
		testTxns = 1000
	}
	full := workloads.GenerateTrace(b, d, maxTrain+testTxns, seed+1)
	test := full.Window(maxTrain, full.Len())

	out := &ScalingResult{
		Schism:    map[string][]ScalingPoint{},
		TrainTxns: map[string]int{},
	}
	for _, k := range partitions {
		// JECB uses a fixed modest trace: its outcome is independent of
		// coverage (the paper's flat line).
		jecbTrain := full.Head(txnsFor(coverages[0]))
		sol, _, err := core.Partition(context.Background(), core.Input{
			DB: d, Procedures: workloads.Procedures(b), Train: jecbTrain, Test: test,
		}, withParallelism(core.Options{K: k}))
		if err != nil {
			return nil, err
		}
		r, err := eval.Evaluate(d, sol, test)
		if err != nil {
			return nil, err
		}
		out.JECB = append(out.JECB, ScalingPoint{k, r.Cost()})

		for _, c := range coverages {
			label := fmt.Sprintf("schism %g%%", c*100)
			train := full.Head(txnsFor(c))
			out.TrainTxns[label] = train.Len()
			ssol, _, err := schism.Partition(schism.Input{DB: d, Train: train},
				schism.Options{K: k, Seed: seed})
			if err != nil {
				return nil, err
			}
			sr, err := eval.Evaluate(d, ssol, test)
			if err != nil {
				return nil, err
			}
			out.Schism[label] = append(out.Schism[label], ScalingPoint{k, sr.Cost()})
		}
	}
	return out, nil
}

// ------------------------------------------------------------------
// Tables 1 & 2: resource consumption of the partitioners.
// ------------------------------------------------------------------

// ResourceRow is one row of Table 1/2.
type ResourceRow struct {
	Approach string
	RAMMB    float64
	// CPUSeconds is the OS-reported process CPU time of the run where the
	// platform provides it, else wall time (see eval.Resources.CPUSeconds).
	CPUSeconds float64
}

// TrainSize names one Schism training-set size for the resource tables
// (the paper's Table 1 uses 30K/180K/400K transactions for 1/5/10%
// coverage of the 128-warehouse database; sizes here scale with the
// reduced per-warehouse row counts).
type TrainSize struct {
	Label string
	Txns  int
}

// TPCCResources regenerates Table 1 (128 warehouses) / Table 2 (1024
// warehouses): RAM and CPU consumed by Schism at each training-set size
// and by JECB, for a fixed partition count.
func TPCCResources(warehouses int, sizes []TrainSize, k int, seed int64) ([]ResourceRow, error) {
	b, _ := workloads.Get("tpcc")
	d, err := b.Load(workloads.Config{Scale: warehouses, Seed: seed})
	if err != nil {
		return nil, err
	}
	maxTrain := 0
	for _, s := range sizes {
		if s.Txns > maxTrain {
			maxTrain = s.Txns
		}
	}
	full := workloads.GenerateTrace(b, d, maxTrain, seed+1)

	var rows []ResourceRow
	for _, s := range sizes {
		train := full.Head(s.Txns)
		res, err := eval.Measure(func() error {
			_, _, err := schism.Partition(schism.Input{DB: d, Train: train},
				schism.Options{K: k, Seed: seed})
			return err
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ResourceRow{
			Approach:   "schism " + s.Label,
			RAMMB:      res.AllocMB(),
			CPUSeconds: res.CPUSeconds(),
		})
	}
	// JECB's trace requirement does not grow with the database: a fixed
	// few thousand transactions pin down the mapping-independent trees
	// regardless of scale (the point Tables 1–2 make).
	jecbTxns := 2000
	if jecbTxns > full.Len() {
		jecbTxns = full.Len()
	}
	train := full.Head(jecbTxns)
	res, err := eval.Measure(func() error {
		_, _, err := core.Partition(context.Background(), core.Input{
			DB: d, Procedures: workloads.Procedures(b), Train: train,
		}, withParallelism(core.Options{K: k}))
		return err
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, ResourceRow{Approach: "JECB", RAMMB: res.AllocMB(), CPUSeconds: res.CPUSeconds()})
	return rows, nil
}

// ------------------------------------------------------------------
// Figure 7: partitioning quality across the five benchmarks.
// ------------------------------------------------------------------

// QualityRow is one benchmark's bars in Figure 7.
type QualityRow struct {
	Benchmark    string
	JECB         float64
	Schism       float64
	Horticulture float64
}

// hcSolution returns the Horticulture solution for a benchmark: the
// published one where the paper used it (TPC-E, SEATS), otherwise the
// search implementation.
func hcSolution(r *run, k int, seed int64) (*partition.Solution, error) {
	switch r.bench.Name() {
	case "tpce":
		return tpcePublishedHC(k)
	case "seats":
		return seatsPublishedHC(k)
	default:
		return horticulture.Search(horticulture.Input{DB: r.db, Train: r.train},
			horticulture.Options{K: k, Seed: seed})
	}
}

// Quality regenerates Figure 7: % distributed transactions for JECB,
// Schism (10% coverage training) and Horticulture on each benchmark at
// k=8 partitions.
func Quality(benchmarks []string, k, txns int, seed int64) ([]QualityRow, error) {
	var rows []QualityRow
	for _, name := range benchmarks {
		r, err := load(name, 0, txns, 0.5, seed)
		if err != nil {
			return nil, err
		}
		jsol, _, err := r.jecb(k)
		if err != nil {
			return nil, err
		}
		jc, err := r.cost(jsol)
		if err != nil {
			return nil, err
		}
		ssol, _, err := schism.Partition(schism.Input{DB: r.db, Train: r.train},
			schism.Options{K: k, Seed: seed})
		if err != nil {
			return nil, err
		}
		sc, err := r.cost(ssol)
		if err != nil {
			return nil, err
		}
		hsol, err := hcSolution(r, k, seed)
		if err != nil {
			return nil, err
		}
		hc, err := r.cost(hsol)
		if err != nil {
			return nil, err
		}
		rows = append(rows, QualityRow{Benchmark: name, JECB: jc, Schism: sc, Horticulture: hc})
	}
	return rows, nil
}

// ------------------------------------------------------------------
// §7.6: synthetic mix sweep.
// ------------------------------------------------------------------

// SyntheticPoint is one x-position of the §7.6 experiment.
type SyntheticPoint struct {
	SchemaFrac  float64
	JECB        float64
	ColumnBased float64
}

// SyntheticSweep varies the share of schema-respecting transactions and
// compares JECB against the column-based (intra-table Horticulture
// search) approach at the paper's 100 partitions.
func SyntheticSweep(fracs []float64, k, scale, txns int, seed int64) ([]SyntheticPoint, error) {
	var out []SyntheticPoint
	for _, f := range fracs {
		r, err := loadBench(syntheticWithMix(f), scale, txns, 0.5, seed)
		if err != nil {
			return nil, err
		}
		jsol, _, err := r.jecb(k)
		if err != nil {
			return nil, err
		}
		jc, err := r.cost(jsol)
		if err != nil {
			return nil, err
		}
		csol, err := horticulture.Search(horticulture.Input{DB: r.db, Train: r.train},
			horticulture.Options{K: k, Seed: seed})
		if err != nil {
			return nil, err
		}
		cc, err := r.cost(csol)
		if err != nil {
			return nil, err
		}
		out = append(out, SyntheticPoint{SchemaFrac: f, JECB: jc, ColumnBased: cc})
	}
	return out, nil
}
