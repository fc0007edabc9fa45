// Package sim quantifies the paper's motivating claim (§1): "if each
// compute node in a distributed transaction processing system accesses
// only local data, there is no need for a distributed concurrency control
// mechanism" — i.e. partitioning quality translates directly into
// throughput. It replays a trace over k simulated nodes under a
// partitioning solution, charging local transactions a unit of work on
// one node and distributed transactions a two-phase-commit-shaped
// overhead on every participant, and reports the bottleneck throughput.
//
// The simulator is deliberately analytic rather than event-driven: each
// node's capacity is work units per second, a transaction's participants
// and costs are deterministic functions of the solution, and throughput
// is bounded by the busiest node. That is exactly the regime the paper
// argues about (coordination overhead and load placement), without
// modeling queueing effects the paper never measures.
package sim

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/trace"
)

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	cSimRuns  = obs.Default.Counter("sim.runs")
	cSimTxns  = obs.Default.Counter("sim.txns_replayed")
	cSimLocal = obs.Default.Counter("sim.txns_local")
	cSimDist  = obs.Default.Counter("sim.txns_distributed")
)

// Config sets the cost shape of the simulated cluster.
type Config struct {
	// LocalWork is the work units a local transaction costs its single
	// participant (default 1).
	LocalWork float64
	// CoordWork is the extra work the coordinator of a distributed
	// transaction performs (prepare/commit bookkeeping; default 2).
	CoordWork float64
	// ParticipantWork is the work each participant of a distributed
	// transaction performs, including the 2PC round trips (default 2).
	ParticipantWork float64
	// NodeCapacity is work units per second per node (default 10000).
	NodeCapacity float64
}

func (c Config) withDefaults() Config {
	if c.LocalWork <= 0 {
		c.LocalWork = 1
	}
	if c.CoordWork <= 0 {
		c.CoordWork = 2
	}
	if c.ParticipantWork <= 0 {
		c.ParticipantWork = 2
	}
	if c.NodeCapacity <= 0 {
		c.NodeCapacity = 10000
	}
	return c
}

// Result is the outcome of simulating one solution.
type Result struct {
	// Nodes is the partition count simulated.
	Nodes int
	// NodeWork is the work accumulated per node.
	NodeWork []float64
	// Local and Distributed count transactions by classification.
	Local, Distributed int
	// ThroughputTPS is the trace's transaction count divided by the
	// bottleneck node's busy time.
	ThroughputTPS float64
	// Speedup is ThroughputTPS relative to a single node executing every
	// transaction locally.
	Speedup float64
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("k=%d: %.0f tps (speedup %.2fx, %d local / %d distributed)",
		r.Nodes, r.ThroughputTPS, r.Speedup, r.Local, r.Distributed)
}

// runPlain simulates the trace under the solution: the engine behind
// New(Scenario{Mode: ModePlain, ...}).Run(ctx).
func runPlain(d *db.DB, sol *partition.Solution, tr *trace.Trace, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	a, err := eval.NewAssigner(d, sol)
	if err != nil {
		return nil, err
	}
	res := &Result{Nodes: sol.K, NodeWork: make([]float64, sol.K)}
	for i, t := range tr.All() {
		nodes, coord, distributed := cluster.Participants(a, t, sol.K, i)
		if distributed {
			res.Distributed++
		} else {
			res.Local++
		}
		chargeCommit(res.NodeWork, nodes, coord, distributed, cfg)
	}
	cSimRuns.Inc()
	cSimTxns.Add(int64(tr.Len()))
	cSimLocal.Add(int64(res.Local))
	cSimDist.Add(int64(res.Distributed))
	for _, w := range res.NodeWork {
		obs.Observe("sim.node_work", w)
	}
	finalize(res, tr.Len(), cfg)
	return res, nil
}

// finalize derives throughput and speedup from the accumulated node work.
// The single-node baseline executes every transaction locally, so its
// throughput simplifies to NodeCapacity/LocalWork independent of trace
// length (n transactions at LocalWork units each take
// n·LocalWork/NodeCapacity seconds). A zero bottleneck means no node
// accumulated work: an empty trace has no throughput or speedup to speak
// of, while a non-empty trace of zero-cost transactions is neither faster
// nor slower than a single node running the same free transactions, so
// Speedup pins to 1.
func finalize(res *Result, traceLen int, cfg Config) {
	bottleneck := 0.0
	for _, w := range res.NodeWork {
		if w > bottleneck {
			bottleneck = w
		}
	}
	if bottleneck == 0 {
		res.ThroughputTPS = 0
		if traceLen > 0 {
			res.Speedup = 1
		} else {
			res.Speedup = 0
		}
		return
	}
	res.ThroughputTPS = float64(traceLen) / (bottleneck / cfg.NodeCapacity)
	res.Speedup = res.ThroughputTPS / (cfg.NodeCapacity / cfg.LocalWork)
}

// Sweep simulates a solution-per-k factory across partition counts,
// returning one Result per k — the "throughput vs parallelism" curve the
// paper's introduction motivates.
func Sweep(d *db.DB, tr *trace.Trace, ks []int, cfg Config,
	solve func(k int) (*partition.Solution, error)) ([]*Result, error) {
	var out []*Result
	for _, k := range ks {
		sol, err := solve(k)
		if err != nil {
			return nil, fmt.Errorf("sim: solve k=%d: %w", k, err)
		}
		r, err := runPlain(d, sol, tr, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
