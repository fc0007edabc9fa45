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
	"runtime"

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

// The cost shape of the simulated cluster.
const (
	// localWork is the work units a local transaction costs its single
	// participant.
	localWork float64 = 1
	// coordWork is the extra work the coordinator of a distributed
	// transaction performs (prepare/commit bookkeeping).
	coordWork float64 = 2
	// participantWork is the work each participant of a distributed
	// transaction performs, including the 2PC round trips.
	participantWork float64 = 2
	// nodeCapacity is work units per second per node.
	nodeCapacity float64 = 10000
)

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

// runPlain simulates the trace under the solution: one point of Sweep.
func runPlain(d *db.DB, sol *partition.Solution, tr *trace.Trace) (*Result, error) {
	a, err := eval.NewAssigner(d, sol)
	if err != nil {
		return nil, err
	}
	placed := a.PlaceTrace(tr, runtime.GOMAXPROCS(0))
	defer placed.Stop()
	return replayPlain(tr, placed, sol.K), nil
}

// replayPlain is runPlain over the trace's placements.
func replayPlain(tr *trace.Trace, placed *eval.TracePlacement, k int) *Result {
	res := &Result{Nodes: k, NodeWork: make([]float64, k)}
	for i, t := range tr.All() {
		nodes, coord, distributed := cluster.Participants(t, placed.Txn(i), k, i)
		if distributed {
			res.Distributed++
		} else {
			res.Local++
		}
		chargeCommit(res.NodeWork, nodes, coord, distributed)
	}
	cSimRuns.Inc()
	cSimTxns.Add(int64(tr.Len()))
	cSimLocal.Add(int64(res.Local))
	cSimDist.Add(int64(res.Distributed))
	for _, w := range res.NodeWork {
		obs.Observe("sim.node_work", w)
	}
	finalize(res, tr.Len())
	return res
}

// finalize derives throughput and speedup from the accumulated node work.
// The single-node baseline executes every transaction locally, so its
// throughput simplifies to nodeCapacity/localWork independent of trace
// length (n transactions at localWork units each take
// n·localWork/nodeCapacity seconds). A zero bottleneck means no node
// accumulated work: an empty trace has no throughput or speedup to speak
// of, while a non-empty trace of zero-cost transactions is neither faster
// nor slower than a single node running the same free transactions, so
// Speedup pins to 1.
func finalize(res *Result, traceLen int) {
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
	res.ThroughputTPS = float64(traceLen) / (bottleneck / nodeCapacity)
	res.Speedup = res.ThroughputTPS / (nodeCapacity / localWork)
}

// Sweep simulates a solution-per-k factory across partition counts,
// returning one Result per k — the "throughput vs parallelism" curve the
// paper's introduction motivates.
func Sweep(d *db.DB, tr *trace.Trace, ks []int,
	solve func(k int) (*partition.Solution, error)) ([]*Result, error) {
	var out []*Result
	for _, k := range ks {
		sol, err := solve(k)
		if err != nil {
			return nil, fmt.Errorf("sim: solve k=%d: %w", k, err)
		}
		r, err := runPlain(d, sol, tr)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
