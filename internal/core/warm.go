package core

import (
	"context"
	"fmt"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Incremental, warm-started repartitioning: the control-plane half of the
// drift-adaptation loop. A deployed solution's join trees are tried
// *first* against the new trace window; the full Phase 2/3 search runs
// only when the deployed trees regressed past a tolerance — the
// incremental-repartitioning posture SWORD argues for (PAPERS.md), rather
// than stop-the-world recomputation on every drift alarm.

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	cWarmAccepts  = obs.Default.Counter("core.warm_accepts")
	cFullSearches = obs.Default.Counter("core.warm_full_searches")
)

// DefaultWarmTolerance is the distributed-transaction fraction under
// which a previously deployed solution is re-accepted without a search.
const DefaultWarmTolerance = 0.05

// RepartitionResult describes one incremental repartitioning decision.
type RepartitionResult struct {
	// Solution is the accepted solution for the new window: the previous
	// solution when its trees still fit, otherwise the full-search winner.
	Solution *partition.Solution
	// Warm is set when the previous solution was kept as-is.
	Warm bool
	// PrevCost is the previous solution's distributed fraction on the new
	// training window; Cost is the accepted solution's.
	PrevCost, Cost float64
}

// String renders a one-line summary.
func (r *RepartitionResult) String() string {
	mode := "full search"
	if r.Warm {
		mode = "warm (previous trees kept)"
	}
	return fmt.Sprintf("repartition: %s, prev %.1f%% -> accepted %.1f%% distributed",
		mode, 100*r.PrevCost, 100*r.Cost)
}

// Repartition warm-starts JECB from a previously deployed
// solution against a fresh training window:
//
//  1. The previous solution's join trees are re-costed on in.Train. When
//     their distributed fraction stays within tol (<= 0 means
//     DefaultWarmTolerance), the previous solution is accepted unchanged
//     — no Phase 2/3 search, no data movement.
//  2. On regression the full search runs with the previous solution
//     seeding Phase 3's incumbent (Options.Warm), so the search returns
//     the previous trees unless a combination strictly beats them on the
//     new window. The cheaper of (previous, full-search winner) is
//     accepted.
//
// The accepted solution keeps the previous solution's identity when warm
// (callers can use pointer equality to detect "nothing changed").
func Repartition(ctx context.Context, in Input, opts Options, prev *partition.Solution, tol float64) (*RepartitionResult, error) {
	if prev == nil {
		return nil, fmt.Errorf("core: repartition without a previous solution")
	}
	if tol <= 0 {
		tol = DefaultWarmTolerance
	}
	_, span := obs.StartSpan(ctx, "jecb/repartition")
	defer span.End()

	if in.Test == nil {
		in.Test = in.Train
	}
	if in.Train == nil || in.Train.Len() == 0 {
		return nil, fmt.Errorf("core: repartition with empty training trace")
	}
	if prev.K != opts.K {
		return nil, fmt.Errorf("core: repartition k=%d against deployed k=%d", opts.K, prev.K)
	}
	r, err := eval.Evaluate(in.DB, prev, in.Train)
	if err != nil {
		return nil, fmt.Errorf("core: repartition: cost previous solution: %w", err)
	}
	prevCost := r.Cost()
	if prevCost <= tol {
		cWarmAccepts.Inc()
		return &RepartitionResult{Solution: prev, Warm: true, PrevCost: prevCost, Cost: prevCost}, nil
	}

	// Regression: full search, seeded with the deployed trees.
	cFullSearches.Inc()
	opts.Warm = prev
	sol, rep, err := Partition(ctx, in, opts)
	if err != nil {
		return nil, err
	}
	out := &RepartitionResult{Solution: sol, PrevCost: prevCost, Cost: rep.TrainCost}
	if rep.TrainCost >= prevCost {
		// The search could not improve on the deployed trees (the warm
		// incumbent won): keep the previous solution's identity so the
		// migration delta is empty.
		out.Solution = prev
		out.Warm = true
		out.Cost = prevCost
	}
	return out, nil
}
