// Package repro is a from-scratch Go reproduction of "JECB: a
// Join-Extension, Code-Based Approach to OLTP Data Partitioning" (Tran,
// Naughton, Sundarmurthy, Tsirogiannis — SIGMOD 2014).
//
// The library implements the JECB partitioner (internal/core), the Schism
// and Horticulture baselines (internal/schism, internal/horticulture),
// every substrate they need — SQL analysis, an in-memory relational
// engine, trace collection, a min-cut graph partitioner, a transaction
// router — and the five OLTP benchmarks of the paper's evaluation plus
// the §7.6 synthetic workload (internal/workloads/...).
//
// # API migration (parallel-search redesign)
//
// The pipeline entry points are unified behind context-first,
// config-first signatures. The pre-redesign entry points in the left
// column had one release of grace as thin deprecated wrappers and have
// since been REMOVED — the table remains as the migration map for code
// written against them:
//
//	Removed entry point                         Canonical replacement
//	------------------------------------------  ------------------------------------------------
//	core.PartitionContext(ctx, in, opts)        core.Partition(ctx, in, opts)
//	core.RepartitionContext(ctx, in, o, p, t)   core.Repartition(ctx, in, o, p, t)
//	sim.Run(d, sol, tr, cfg)                    sim.New(sim.Scenario{Mode: sim.ModePlain, Cost: cfg, …}).Run(ctx)
//	sim.RunChaos[Context](…)                    sim.New(sim.Scenario{Mode: sim.ModeChaos, …}).Run(ctx)
//	sim.RunChaosDurable[Context](…)             sim.New(sim.Scenario{Mode: sim.ModeDurable, WALDir:…}).Run(ctx)
//	sim.RunDriftStatic(…)                       sim.New(sim.Scenario{Mode: sim.ModeDriftStatic, …}).Run(ctx)
//	sim.RunDriftAdaptive(…)                     sim.New(sim.Scenario{Mode: sim.ModeDriftAdaptive, Repartition:…}).Run(ctx)
//	sim.RunDriftOracle(…)                       sim.New(sim.Scenario{Mode: sim.ModeDriftOracle, Repartition:…}).Run(ctx)
//
// Two router entry points remain as deprecated-but-working wrappers
// (they are the implementation behind the canonical call):
//
//	Deprecated entry point                      Canonical replacement
//	------------------------------------------  ------------------------------------------------
//	router.(*Router).RoutePartitions(c, p)      router.(*Router).Route(ctx, router.Request{Class: c, Params: p})
//	router.(*Router).RouteSafe(c, p, h)         router.(*Router).Route(ctx, router.Request{Class: c, Params: p, Health: h})
//	router.(*EpochRouter).RoutePartitions(c,p)  router.(*EpochRouter).Route(ctx, router.Request{…})
//	router.(*EpochRouter).RouteSafe(c, p, h)    router.(*EpochRouter).Route(ctx, router.Request{…})
//
// (Router.Route's old health-oblivious signature was renamed
// RoutePartitions to free the canonical name; a nil Request.Health
// routes as if every node were up and reproduces its partition sets.)
// The search itself is parallel behind core.Options.Parallelism with
// bit-identical results for any worker count — see DESIGN.md, "Parallel
// search & the determinism contract".
//
// # API migration (columnar trace redesign)
//
// Trace consumers moved from concrete []Txn slices and per-transaction
// map allocations to cursor- and bitset-based equivalents. The old forms
// in the left column still work where marked Deprecated; new code uses
// the right column:
//
//	Old form                                    Canonical replacement
//	------------------------------------------  ------------------------------------------------
//	func f(tr *trace.Trace)                     func f(w trace.Workload) — row, columnar & stream
//	eval.Assigner.TxnPartitions → map[int]bool  … → partition.Set (inline bitset; Min() = coordinator)
//	eval.Evaluate(d, sol, tr) per-txn maps      a.Index(c).Evaluate() — precomputed join-path index
//	whole trace in memory                       trace.OpenColumnar(path) → a.EvaluateStream(s)
//
// New surface: trace.Workload (Len/All/Class/Classes/Mix, implemented by
// Trace, Columnar, Stream), trace.Columnarize / Materialize,
// trace.WriteColumnar / NewColumnarWriter / OpenColumnar / SniffColumnar
// (chunked CRC-framed on-disk format; ErrTornTail vs ErrCorrupt),
// eval.PlaceIndex via Assigner.Index, and eval.EvaluateColumnar /
// EvaluateStream. Columnar cursors yield a reused scratch *Txn — Clone to
// retain. Streamed, columnar, and row evaluation produce byte-identical
// results — see DESIGN.md, "Columnar traces & the zero-alloc evaluator".
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-vs-measured record. bench_test.go in this
// directory regenerates every table and figure as a testing.B benchmark.
package repro
