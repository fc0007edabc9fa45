package sim

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/drift"
	"repro/internal/eval"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/trace"
)

// Drift replay: the closed-loop half of the drift-adaptation work. The
// analytic plain replay is extended with a window loop: each fixed-size
// trace window is replayed under the currently deployed solution, the
// drift detector (internal/drift) scores the window, and — in adaptive
// mode — a drift trigger warm-re-runs the partitioner, plans a bounded
// migration (internal/migrate), charges the movement to the source and
// destination nodes, models dual routing during the settling window, and
// swaps the serving solution to the plan's hybrid for the next window.
//
// Three modes share the engine:
//
//	static    the deployed solution never changes — the degradation
//	          baseline a drift-blind deployment suffers.
//	adaptive  detector-triggered warm repartitioning plus bounded
//	          migration — the contribution under test.
//	oracle    a free, instantaneous swap to the post-drift optimum at
//	          the drift point — the lower bound (no detection lag, no
//	          movement cost, no budget).
//
// The replay is deterministic for fixed inputs: no randomness enters the
// window loop, and every map iteration is order-fixed upstream.

// Drift-mode registry metrics (see DESIGN.md, "Metric reference").
var (
	cDriftRuns   = obs.Default.Counter("sim.drift_runs")
	cDriftRepart = obs.Default.Counter("sim.drift_repartitions")
	cDriftSwaps  = obs.Default.Counter("sim.drift_swaps")
	cDriftMoved  = obs.Default.Counter("sim.drift_moved_tuples")
	cDriftDual   = obs.Default.Counter("sim.drift_dual_routed")
)

// RepartitionFunc recomputes a solution from a drifted trace window. prev
// is the currently deployed solution; implementations should warm-start
// from it (core.Repartition does) and may return prev itself to signal
// "keep serving the deployed trees" — the engine detects that by pointer
// identity and skips migration.
type RepartitionFunc func(window *trace.Trace, prev *partition.Solution) (*partition.Solution, error)

// The drift replay's migration cost shape.
const (
	// migrateWorkPerTuple is the work units each moved tuple charges to
	// its source and to its destination node.
	migrateWorkPerTuple float64 = 0.05
	// dualRouteWork is the extra coordinator work of one dual-routed
	// transaction during a settling window.
	dualRouteWork float64 = 1
)

// DriftConfig sets the drift replay's window and budget. The detector
// runs at its defaults (drift.Config{}), and the tumbling-window SLO
// evaluation at obs.SLOConfig's: the drift replay has no real latencies,
// so each transaction contributes a service-time proxy, its charged work
// units divided by nodeCapacity.
type DriftConfig struct {
	// WindowSize is the detection window in transactions (default 500).
	WindowSize int
	// Budget is the total moved-tuple allowance across the whole run;
	// every migration consumes from it. <= 0 means unbounded.
	Budget int
	// DriftAt is the index of the first post-drift transaction (reporting
	// only: it splits the pre/post distributed fractions; <= 0 disables
	// the split). The adaptive controller never sees it — only the oracle
	// does.
	DriftAt int
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.WindowSize <= 0 {
		c.WindowSize = 500
	}
	if c.Budget <= 0 {
		c.Budget = -1 // unbounded
	}
	return c
}

// DriftEvent records one adaptation decision (a drift trigger, or the
// oracle's scripted swap).
type DriftEvent struct {
	// Window is the index of the window whose replay produced the event.
	Window int `json:"window"`
	// Score and Reasons echo the detector signal ("oracle" for the
	// oracle's scripted swap).
	Score   float64  `json:"score"`
	Reasons []string `json:"reasons"`
	// Warm is set when the repartitioner kept the deployed solution.
	Warm bool `json:"warm"`
	// MovedTuples / DeferredTuples are the migration plan's split (zero
	// when warm or oracle).
	MovedTuples    int `json:"moved_tuples"`
	DeferredTuples int `json:"deferred_tuples"`
	// Partial is set when the movement budget clamped the migration.
	Partial bool `json:"partial"`
	// CostBefore / CostAfter are the distributed fractions of the
	// trigger window under the old and the newly deployed solution.
	CostBefore float64 `json:"cost_before"`
	CostAfter  float64 `json:"cost_after"`
}

// DriftResult is the outcome of one drift replay. Plain data: a (db,
// solution, trace, config) quadruple marshals to byte-identical JSON
// across runs — the determinism contract the drift tests pin.
type DriftResult struct {
	Mode       string `json:"mode"`
	Nodes      int    `json:"nodes"`
	Windows    int    `json:"windows"`
	WindowSize int    `json:"window_size"`
	Budget     int    `json:"budget"`

	// Total / Local / Distributed classify the replayed transactions.
	Total       int `json:"total"`
	Local       int `json:"local"`
	Distributed int `json:"distributed"`
	// DistFrac is Distributed/Total; PreDistFrac and PostDistFrac split
	// it at DriftAt (both zero when DriftAt is unset).
	DistFrac     float64 `json:"dist_frac"`
	PreDistFrac  float64 `json:"pre_dist_frac"`
	PostDistFrac float64 `json:"post_dist_frac"`
	// WindowDistFrac is the distributed fraction of each window — the
	// degradation / recovery curve.
	WindowDistFrac []float64 `json:"window_dist_frac"`

	// Repartitions counts partitioner re-runs; WarmAccepts the re-runs
	// that kept the deployed solution; Swaps the solution swaps deployed.
	Repartitions int `json:"repartitions"`
	WarmAccepts  int `json:"warm_accepts"`
	Swaps        int `json:"swaps"`
	// MovedTuples / DeferredTuples sum the migration plans' splits;
	// MigrationWork is the work units the movement charged to nodes.
	MovedTuples    int     `json:"moved_tuples"`
	DeferredTuples int     `json:"deferred_tuples"`
	MigrationWork  float64 `json:"migration_work"`
	// DualRouted counts transactions that paid the dual-routing surcharge
	// during settling windows.
	DualRouted int `json:"dual_routed"`

	// Events are the adaptation decisions in replay order.
	Events []DriftEvent `json:"events,omitempty"`

	// NodeWork, ThroughputTPS, Speedup mirror Result over the whole run
	// (migration and dual-routing work included).
	NodeWork      []float64 `json:"node_work"`
	ThroughputTPS float64   `json:"throughput_tps"`
	Speedup       float64   `json:"speedup"`

	// Service-time proxy quantiles (seconds: charged work units divided
	// by nodeCapacity, HDR-accurate to 1.5625%) and the tumbling-window
	// SLO evaluation over them — the guardrail signal a live controller
	// would gate migrations on.
	LatencyP50  float64       `json:"latency_p50_sec"`
	LatencyP99  float64       `json:"latency_p99_sec"`
	LatencyP999 float64       `json:"latency_p999_sec"`
	SLO         obs.SLOStatus `json:"slo"`
}

// String renders a one-line summary.
func (r *DriftResult) String() string {
	return fmt.Sprintf("drift %s: %.1f%% distributed (pre %.1f%%, post %.1f%%), "+
		"%d repartitions (%d warm), %d swaps, %d tuples moved (%d deferred), %d dual-routed, %.0f tps",
		r.Mode, 100*r.DistFrac, 100*r.PreDistFrac, 100*r.PostDistFrac,
		r.Repartitions, r.WarmAccepts, r.Swaps, r.MovedTuples, r.DeferredTuples,
		r.DualRouted, r.ThroughputTPS)
}

// driftMode selects the controller.
type driftMode int

const (
	modeStatic driftMode = iota
	modeAdaptive
	modeOracle
)

func (m driftMode) String() string {
	switch m {
	case modeStatic:
		return "static"
	case modeAdaptive:
		return "adaptive"
	default:
		return "oracle"
	}
}

// windowStats replays one window under an assigner without charging work:
// it returns the distributed fraction and the per-partition heat vector
// (participant counts; distributed all-node transactions heat every
// node). It is the measurement the detector consumes. a is bound to d.
func windowStats(d *db.DB, a *eval.Assigner, w *trace.Trace, k int) (distFrac float64, heat []float64) {
	heat = make([]float64, k)
	if w.Len() == 0 {
		return 0, heat
	}
	v := d.View()
	defer v.Close()
	dist := 0
	for i, t := range w.All() {
		s := a.Span(v, t)
		switch {
		case s.All:
			dist++
			for n := 0; n < k; n++ {
				heat[n]++
			}
		case s.Distributed():
			dist++
			s.Parts.ForEach(func(n int) {
				heat[n]++
			})
		default:
			heat[cluster.Coordinator(&s.Parts, k, i)]++
		}
	}
	return float64(dist) / float64(w.Len()), heat
}

// CompareDrift replays the trace under each of the three controllers —
// static, adaptive and oracle — from the same deployed solution, and
// returns their results in that order. repart is the adaptive and oracle
// controllers' repartitioner, and the oracle swaps at cfg.DriftAt, so
// both are required.
func CompareDrift(ctx context.Context, d *db.DB, sol *partition.Solution, tr *trace.Trace,
	cfg DriftConfig, repart RepartitionFunc) (static, adaptive, oracle *DriftResult, err error) {
	if repart == nil {
		return nil, nil, nil, fmt.Errorf("sim: drift comparison without a repartition func")
	}
	if cfg.DriftAt <= 0 {
		return nil, nil, nil, fmt.Errorf("sim: drift comparison requires DriftConfig.DriftAt")
	}
	if static, err = runDrift(ctx, d, sol, tr, cfg, modeStatic, nil); err != nil {
		return nil, nil, nil, fmt.Errorf("static: %w", err)
	}
	if adaptive, err = runDrift(ctx, d, sol, tr, cfg, modeAdaptive, repart); err != nil {
		return nil, nil, nil, fmt.Errorf("adaptive: %w", err)
	}
	if oracle, err = runDrift(ctx, d, sol, tr, cfg, modeOracle, repart); err != nil {
		return nil, nil, nil, fmt.Errorf("oracle: %w", err)
	}
	return static, adaptive, oracle, nil
}

// runDrift is the shared window-loop engine.
func runDrift(ctx context.Context, d *db.DB, sol *partition.Solution, tr *trace.Trace,
	cfg DriftConfig, mode driftMode, repart RepartitionFunc) (*DriftResult, error) {
	_, span := obs.StartSpan(ctx, "sim/drift")
	defer span.End()

	cfg = cfg.withDefaults()
	if tr.Len() == 0 {
		return nil, fmt.Errorf("sim: drift replay over an empty trace")
	}
	cur := sol
	asg, err := eval.NewAssigner(d, cur)
	if err != nil {
		return nil, err
	}
	res := &DriftResult{
		Mode:       mode.String(),
		Nodes:      sol.K,
		Windows:    tr.NumWindows(cfg.WindowSize),
		WindowSize: cfg.WindowSize,
		Budget:     cfg.Budget,
		NodeWork:   make([]float64, sol.K),
	}
	det := drift.New(drift.Config{})
	budgetLeft := cfg.Budget // <0 = unbounded
	slo := obs.NewSLOMonitor(obs.SLOConfig{})
	var svcLat obs.HDR // per-txn service-time proxy, nanoseconds

	// Settling state: the tables moved by the last migration and whether
	// the *current* window still dual-routes across the swap.
	var settlingMoved map[string]bool

	oracleDone := false
	for w := 0; w < res.Windows; w++ {
		base := w * cfg.WindowSize
		win := tr.Window(base, cfg.WindowSize)

		// Oracle: swap for free at the window containing the drift point.
		if mode == modeOracle && !oracleDone && base+win.Len() > cfg.DriftAt {
			// Train on the post-drift suffix the oracle "foresees".
			post := tr.Window(cfg.DriftAt, tr.Len()-cfg.DriftAt)
			distBefore, _ := windowStats(d, asg, win, sol.K)
			next, err := repart(post, cur)
			if err != nil {
				return nil, fmt.Errorf("sim: oracle repartition: %w", err)
			}
			cur = next
			if asg, err = eval.NewAssigner(d, cur); err != nil {
				return nil, err
			}
			distAfter, _ := windowStats(d, asg, win, sol.K)
			res.Repartitions++
			res.Swaps++
			cDriftRepart.Inc()
			cDriftSwaps.Inc()
			res.Events = append(res.Events, DriftEvent{
				Window: w, Reasons: []string{"oracle"},
				CostBefore: distBefore, CostAfter: distAfter,
			})
			oracleDone = true
		}

		// Replay the window under the current solution, charging work.
		// The view closes before the repartition and migration below.
		windowDist := 0
		v := d.View()
		for i, t := range win.All() {
			gi := base + i
			s := asg.Span(v, t)
			coord := cluster.Coordinator(&s.Parts, sol.K, gi)
			distributed := s.Distributed()
			txnWork := 0.0
			switch {
			case s.All:
				for n := 0; n < sol.K; n++ {
					res.NodeWork[n] += participantWork
				}
				res.NodeWork[coord] += coordWork
				txnWork = float64(sol.K)*participantWork + coordWork
			case !distributed:
				res.NodeWork[coord] += localWork
				txnWork = localWork
			default:
				s.Parts.ForEach(func(n int) {
					res.NodeWork[n] += participantWork
				})
				res.NodeWork[coord] += coordWork
				txnWork = float64(s.Parts.Len())*participantWork + coordWork
			}
			if distributed {
				res.Distributed++
				windowDist++
			} else {
				res.Local++
			}
			res.Total++
			if cfg.DriftAt > 0 && distributed {
				if gi < cfg.DriftAt {
					res.PreDistFrac++ // numerator; divided below
				} else {
					res.PostDistFrac++
				}
			}
			// Dual routing: during a settling window, a transaction that
			// spans the swap boundary — touching at least one freshly
			// migrated table and at least one table still on its previous
			// placement — must consult both epochs.
			if settlingMoved != nil {
				touchesMoved, touchesOther := false, false
				for _, tbl := range t.Tables() {
					if settlingMoved[tbl] {
						touchesMoved = true
					} else {
						touchesOther = true
					}
				}
				if touchesMoved && touchesOther {
					res.NodeWork[coord] += dualRouteWork
					txnWork += dualRouteWork
					res.DualRouted++
					cDriftDual.Inc()
				}
			}
			// SLO accounting over the service-time proxy.
			proxySec := txnWork / nodeCapacity
			svcLat.Observe(int64(proxySec * 1e9))
			slo.Record(proxySec, true)
		}
		v.Close()
		distFrac := 0.0
		if win.Len() > 0 {
			distFrac = float64(windowDist) / float64(win.Len())
		}
		res.WindowDistFrac = append(res.WindowDistFrac, distFrac)
		settlingMoved = nil // settling lasts exactly one window

		if mode != modeAdaptive {
			continue
		}

		// Detector: score the window under the deployed solution.
		_, heat := windowStats(d, asg, win, sol.K)
		sig := det.Observe(drift.Observation{Window: win, DistFrac: distFrac, PartitionHeat: heat})
		if !sig.Drifted {
			continue
		}

		// Drift trigger: warm repartition on the drifted window.
		res.Repartitions++
		cDriftRepart.Inc()
		next, err := repart(win, cur)
		if err != nil {
			return nil, fmt.Errorf("sim: window %d repartition: %w", w, err)
		}
		ev := DriftEvent{Window: w, Score: sig.Score, Reasons: sig.Reasons, CostBefore: distFrac}
		if next == cur {
			// Warm accept: the deployed trees still fit; nothing to move.
			res.WarmAccepts++
			ev.Warm = true
			ev.CostAfter = distFrac
			res.Events = append(res.Events, ev)
			// Re-anchor the detector so the same steady state does not
			// re-trigger forever — but lift the cooldown: nothing was
			// deployed, so further drift may trigger immediately.
			det.SetReference(drift.Observation{Window: win, DistFrac: distFrac, PartitionHeat: heat})
			det.ClearCooldown()
			continue
		}

		// Bounded migration to the new solution; deploy the hybrid.
		plan, err := migrate.Compute(d, cur, next, win, budgetLeft)
		if err != nil {
			return nil, fmt.Errorf("sim: window %d migration: %w", w, err)
		}
		hybrid := plan.Hybrid(cur, next)
		for _, u := range plan.Units {
			for _, f := range u.Flows {
				work := float64(f.Tuples) * migrateWorkPerTuple
				res.NodeWork[f.From] += work
				res.NodeWork[f.To] += work
				res.MigrationWork += 2 * work
			}
		}
		if budgetLeft >= 0 {
			budgetLeft -= plan.MovedTuples
		}
		res.MovedTuples += plan.MovedTuples
		res.DeferredTuples += plan.DeferredTuples
		cDriftMoved.Add(int64(plan.MovedTuples))
		obs.Observe("sim.drift_migration_tuples", float64(plan.MovedTuples))

		settlingMoved = map[string]bool{}
		for _, u := range plan.Units {
			settlingMoved[u.Table] = true
		}
		if len(settlingMoved) == 0 {
			settlingMoved = nil
		}
		cur = hybrid
		if asg, err = eval.NewAssigner(d, cur); err != nil {
			return nil, err
		}
		res.Swaps++
		cDriftSwaps.Inc()

		// Re-anchor the detector against the trigger window as served by
		// the *new* solution: drift is now measured since this deployment.
		newDist, newHeat := windowStats(d, asg, win, sol.K)
		det.SetReference(drift.Observation{Window: win, DistFrac: newDist, PartitionHeat: newHeat})
		ev.MovedTuples = plan.MovedTuples
		ev.DeferredTuples = plan.DeferredTuples
		ev.Partial = plan.Partial
		ev.CostAfter = newDist
		res.Events = append(res.Events, ev)
	}

	// Finalize fractions and throughput.
	if res.Total > 0 {
		res.DistFrac = float64(res.Distributed) / float64(res.Total)
	}
	if cfg.DriftAt > 0 {
		pre := cfg.DriftAt
		if pre > res.Total {
			pre = res.Total
		}
		post := res.Total - pre
		if pre > 0 {
			res.PreDistFrac /= float64(pre)
		}
		if post > 0 {
			res.PostDistFrac /= float64(post)
		} else {
			res.PostDistFrac = 0
		}
	}
	r := &Result{Nodes: res.Nodes, NodeWork: res.NodeWork}
	finalize(r, res.Total)
	res.ThroughputTPS = r.ThroughputTPS
	res.Speedup = r.Speedup

	slo.Flush()
	res.SLO = slo.Status()
	latSnap := svcLat.Snapshot()
	res.LatencyP50 = float64(latSnap.P50) / 1e9
	res.LatencyP99 = float64(latSnap.P99) / 1e9
	res.LatencyP999 = float64(latSnap.P999) / 1e9

	cDriftRuns.Inc()
	obs.Set("sim.drift_dist_frac", res.DistFrac)
	obs.Set("sim.drift_post_dist_frac", res.PostDistFrac)
	return res, nil
}
