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
// # Evaluation surface
//
// Definition 5 lives in one place, eval.Span: a transaction's real
// partitions plus whether it spans every partition. Everything that
// classifies transactions builds a Span — the evaluators, phase 3's
// combination scorer, the commit engines' participant choice, the
// simulators, placement heat, Horticulture's cost and the serving
// capacity estimate. On top of it, package eval offers:
//
//	eval.Evaluate(d, sol, tr)       bind the solution and score a row trace
//	Assigner.Evaluate(tr, workers)  score a row trace on up to workers shards
//	Assigner.Span(v, t)             classify one transaction in a db.View
//	Assigner.PlaceTxn               one transaction's per-access placements
//	Assigner.PlaceTrace(tr, w)      a window's, filled ahead of its reader
//	Assigner.Index(c).Evaluate()    score a columnar trace via its key index
//	Assigner.EvaluateColumnar(c)    the same, index build included
//	Assigner.EvaluateStream(s, i)   score an on-disk columnar trace by chunk, from txn i
//
// Every form returns the same Result for the same transactions, for any
// worker count — see DESIGN.md, "Columnar traces & the zero-alloc
// evaluator" and "Parallel search & the determinism contract".
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-vs-measured record. cmd/experiments
// regenerates every table and figure.
package repro
