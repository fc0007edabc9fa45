// Package core implements JECB, the paper's contribution: a join-extension,
// code-based OLTP data partitioner. Given a database (schema + data), the
// SQL source of the workload's stored procedures, and a workload trace, it
// produces a partitioning solution minimizing the fraction of distributed
// transactions.
//
// The three phases follow the paper:
//
//   - Phase 1 (phase1.go): pre-processing — identify read-only/read-mostly
//     tables to replicate and split the trace into per-class streams (§4).
//   - Phase 2 (phase2.go): per transaction class, build the join graph from
//     the SQL code, enumerate join trees, and keep mapping-independent
//     total and partial solutions (Definitions 3–9, §5); fall back to a
//     statistics-based min-cut mapping when no mapping-independent total
//     solution exists (§5.3).
//   - Phase 3 (phase3.go): combine per-class solutions into a global
//     solution using attribute/path/solution compatibility (Definitions
//     12–14) and the compatible-attribute search heuristic (§6).
package core

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sqlparse"
	"repro/internal/trace"
)

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	cRuns          = obs.Default.Counter("core.runs")
	cClassesSolved = obs.Default.Counter("core.classes_solved")
	cClassesRO     = obs.Default.Counter("core.classes_read_only")
	cClassesNP     = obs.Default.Counter("core.classes_non_partitionable")
	cTotalSols     = obs.Default.Counter("core.total_solutions")
	cPartialSols   = obs.Default.Counter("core.partial_solutions")
	cMinCutFall    = obs.Default.Counter("core.mincut_fallbacks")
	cCombosEval    = obs.Default.Counter("core.combos_evaluated")
	cBestImprove   = obs.Default.Counter("core.best_improvements")
	gBestCost      = obs.Default.Gauge("core.best_cost")
)

const (
	// maxTreesPerRoot caps join-tree enumeration per class and root; the
	// unpruned TPC-E space is ~2.6M combinations.
	maxTreesPerRoot = 32
	// maxCombos caps Phase 3 combination enumeration per attribute.
	maxCombos = 256
	// miTolerance accepts a join tree as a total solution when all but
	// this fraction of the class's transactions map to a single root
	// value. Exact mapping independence is the fraction-1 case; the
	// tolerance admits workloads like TPC-C whose sanctioned remote
	// accesses leave a small multi-valued residue.
	miTolerance = 0.25
)

// Options configures a JECB run.
type Options struct {
	// K is the number of partitions.
	K int
	// ReadMostlyThreshold replicates tables written by fewer than this
	// fraction of training transactions (Phase 1; default 0.015).
	ReadMostlyThreshold float64
	// Seed drives the deterministic pieces that need randomness (min-cut
	// seeding, train/test splits made internally). Per-class RNG seeds are
	// derived from it (graphpart.DeriveSeed), so results do not depend on
	// which worker solves which class.
	Seed int64

	// Parallelism is the worker count of the parallel search: phase 2
	// solves transaction classes on a pool of this many workers (and
	// shards per-class trace scans across it), and phase 3 places its
	// distinct table options and costs candidate combinations
	// concurrently. 0 or negative means runtime.GOMAXPROCS(0). Results
	// are bit-identical for any value — see DESIGN.md, "Determinism
	// contract".
	Parallelism int

	// Warm seeds Phase 3 with a previously deployed solution: the warm
	// solution is costed first and becomes the incumbent every enumerated
	// combination must beat, so an unchanged workload re-converges to the
	// deployed trees without paying for a regression. It must share K and
	// validate against the schema; otherwise it is ignored. (The
	// incremental repartitioning entry point Repartition sets this; see
	// warm.go.)
	Warm *partition.Solution

	// IntraTableOnly is an ablation switch: consider only attributes of
	// the partitioned table itself (join paths of at most one projection
	// hop), disabling join extension.
	IntraTableOnly bool
	// KeepAllTrees is an ablation switch: skip compatible-tree merging in
	// Phase 2 (Definition 9), keeping every mapping-independent tree.
	KeepAllTrees bool
	// DisableMinCutFallback turns off the §5.3 statistics-based mapping
	// (classes without mapping-independent solutions become
	// non-partitionable immediately).
	DisableMinCutFallback bool
}

func (o Options) withDefaults() Options {
	if o.ReadMostlyThreshold <= 0 {
		o.ReadMostlyThreshold = 0.015
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// Input is everything JECB consumes: the database, the transaction source
// code, and the training trace. Test is optional and used only to check
// min-cut mappings for "meaningfulness" (§5.3); it defaults to Train.
type Input struct {
	DB         *db.DB
	Procedures []*sqlparse.Procedure
	Train      *trace.Trace
	Test       *trace.Trace
}

// Partitioner runs JECB. Construct with New, call Run.
type Partitioner struct {
	in   Input
	opts Options
}

// New validates the input and returns a runnable partitioner.
func New(in Input, opts Options) (*Partitioner, error) {
	if in.DB == nil {
		return nil, fmt.Errorf("core: nil database")
	}
	if len(in.Procedures) == 0 {
		return nil, fmt.Errorf("core: no procedures")
	}
	if in.Train == nil || in.Train.Len() == 0 {
		return nil, fmt.Errorf("core: empty training trace")
	}
	if opts.K <= 0 {
		return nil, fmt.Errorf("core: k = %d", opts.K)
	}
	if in.Test == nil {
		in.Test = in.Train
	}
	return &Partitioner{in: in, opts: opts.withDefaults()}, nil
}

// RunContext executes the three phases and returns the global solution
// plus a report describing what each phase found (the raw material of the
// paper's Tables 3–4). When ctx carries an obs.Trace, the run opens
// spans jecb/phase1, jecb/phase2 (one child per transaction class) and
// jecb/phase3. Without a trace the spans are free no-ops.
//
// The three phases read the database through one db.View, so no row
// probe of the search takes a lock, and a writer to the database waits
// until the run returns.
func (p *Partitioner) RunContext(ctx context.Context) (*partition.Solution, *Report, error) {
	cRuns.Inc()
	v := p.in.DB.View()
	defer v.Close()
	_, s1 := obs.StartSpan(ctx, "jecb/phase1")
	pre, err := p.phase1(ctx, v)
	s1.End()
	if err != nil {
		return nil, nil, err
	}
	ctx2, s2 := obs.StartSpan(ctx, "jecb/phase2")
	s2.SetAttr("workers", p.opts.parallelism())
	classes, err := p.phase2(ctx2, pre)
	s2.SetAttr("classes", len(classes))
	s2.End()
	if err != nil {
		return nil, nil, err
	}
	ctx3, s3 := obs.StartSpan(ctx, "jecb/phase3")
	s3.SetAttr("workers", p.opts.parallelism())
	sol, rep, err := p.phase3(ctx3, pre, classes)
	if rep != nil {
		s3.SetAttr("combos", rep.CombosEvaluated)
	}
	s3.End()
	if err != nil {
		return nil, nil, err
	}
	return sol, rep, nil
}

// Partition is the convenience one-call API. The context threads phase
// tracing (obs.WithTrace) and is the canonical first parameter of every
// pipeline entry point; pass context.Background() when no trace is
// wanted.
func Partition(ctx context.Context, in Input, opts Options) (*partition.Solution, *Report, error) {
	p, err := New(in, opts)
	if err != nil {
		return nil, nil, err
	}
	return p.RunContext(ctx)
}
