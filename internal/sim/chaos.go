package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/trace"
)

// Chaos-mode registry metrics (see DESIGN.md, "Metric reference").
var (
	cChaosRuns    = obs.Default.Counter("sim.chaos_runs")
	cChaosCommit  = obs.Default.Counter("sim.chaos_committed")
	cChaosAborts  = obs.Default.Counter("sim.chaos_aborts")
	cChaosRetries = obs.Default.Counter("sim.chaos_retries")
	cChaosPerm    = obs.Default.Counter("sim.chaos_permanent_failures")
	// HDR latency histograms (virtual nanoseconds): all transactions, and
	// just the committed-after-retry subset. Handles cached — these sit on
	// the per-transaction hot path.
	hChaosLatency      = obs.Default.HDR("sim.chaos_latency_ns")
	hChaosRetryLatency = obs.Default.HDR("sim.chaos_retry_latency_ns")
)

// ChaosConfig extends the analytic cost model with the chaos replay's
// load shape and retry policy.
type ChaosConfig struct {
	Config
	// ArrivalRateTPS is the offered load: transaction i arrives at
	// virtual time i/rate. Default: trace length / 8, so a full trace
	// spans 8 virtual seconds and the builtin scenarios' crash windows
	// land mid-run.
	ArrivalRateTPS float64
	// Retry shapes the capped exponential backoff (defaults per
	// faults.RetryPolicy.WithDefaults).
	Retry faults.RetryPolicy
	// AbortWork is the work units wasted on each reachable participant by
	// one aborted attempt (the prepare/rollback cost of a 2PC round that
	// could not complete). Default 0.5.
	AbortWork float64
	// SLO configures the tumbling-window latency/availability evaluation
	// (defaults per obs.SLOConfig).
	SLO obs.SLOConfig
	// Recorder, when non-nil, receives one flight-recorder event per
	// causal step of every transaction (arrival, routing, faults,
	// backoff, commit/abort/give-up). Nil keeps tracing off for free.
	Recorder *obs.Recorder
}

func (c ChaosConfig) withDefaults(traceLen int) ChaosConfig {
	c.Config = c.Config.withDefaults()
	if c.ArrivalRateTPS <= 0 {
		c.ArrivalRateTPS = float64(traceLen) / 8
		if c.ArrivalRateTPS <= 0 {
			c.ArrivalRateTPS = 1
		}
	}
	c.Retry = c.Retry.WithDefaults()
	if c.AbortWork <= 0 {
		c.AbortWork = 0.5
	}
	return c
}

// ChaosResult is the outcome of one chaos replay. All fields are plain
// data so a (solution, trace, scenario, seed) quadruple marshals to
// byte-identical JSON across runs — the determinism contract the replay
// tests pin.
type ChaosResult struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Nodes    int    `json:"nodes"`

	// Offered / Committed / PermanentFailures partition the trace:
	// offered = committed + permanent failures.
	Offered           int `json:"offered"`
	Committed         int `json:"committed"`
	PermanentFailures int `json:"permanent_failures"`
	// PermanentByClass breaks the permanently-failing transactions down
	// by transaction class (empty when none fail).
	PermanentByClass map[string]int `json:"permanent_by_class,omitempty"`

	// Local / Distributed classify committed transactions.
	Local       int `json:"local"`
	Distributed int `json:"distributed"`

	// Aborts counts aborted attempts; Retries counts the aborts that were
	// retried (aborts minus final give-ups).
	Aborts  int `json:"aborts"`
	Retries int `json:"retries"`

	// AbortRate is aborts / attempts; AvailabilityPct is
	// 100·committed/offered.
	AbortRate       float64 `json:"abort_rate"`
	AvailabilityPct float64 `json:"availability_pct"`

	// Latency quantiles (virtual seconds, HDR-accurate to 1.5625%) over
	// ALL transactions — permanent failures contribute the full latency
	// of their exhausted retry budget, which is exactly what a tail
	// objective should see.
	LatencyP50  float64 `json:"latency_p50_sec"`
	LatencyP99  float64 `json:"latency_p99_sec"`
	LatencyP999 float64 `json:"latency_p999_sec"`

	// Retry latency quantiles (virtual seconds) over committed
	// transactions that aborted at least once; zero when none retried.
	RetryLatencyP50 float64 `json:"retry_latency_p50_sec"`
	RetryLatencyP99 float64 `json:"retry_latency_p99_sec"`

	// SLO is the tumbling-window objective evaluation over the replay.
	SLO obs.SLOStatus `json:"slo"`

	// MakespanSec is the virtual time of the last commit or give-up;
	// EffectiveTPS is committed transactions per virtual second of
	// max(makespan, bottleneck busy time) — goodput under the scenario.
	MakespanSec  float64 `json:"makespan_sec"`
	EffectiveTPS float64 `json:"effective_tps"`
	// BaselineTPS is the failure-free throughput of the same solution
	// under the same arrival process and cost shape: offered transactions
	// over max(arrival span, failure-free bottleneck busy time).
	// DegradationPct is the relative loss of EffectiveTPS against it.
	BaselineTPS    float64 `json:"baseline_tps"`
	DegradationPct float64 `json:"degradation_pct"`

	// NodeWork is committed + wasted work per node; NodeDownSec is each
	// node's scripted outage within the makespan.
	NodeWork    []float64 `json:"node_work"`
	NodeDownSec []float64 `json:"node_down_sec"`
}

// String renders a one-line summary.
func (r *ChaosResult) String() string {
	return fmt.Sprintf("chaos %q seed=%d: %.0f tps effective (%.1f%% of %.0f baseline), "+
		"%.2f%% available (%d/%d), %d aborts, %d retries, %d permanent, p99 retry %.3fs",
		r.Scenario, r.Seed, r.EffectiveTPS, 100-r.DegradationPct, r.BaselineTPS,
		r.AvailabilityPct, r.Committed, r.Offered, r.Aborts, r.Retries,
		r.PermanentFailures, r.RetryLatencyP99)
}

// runChaos replays the trace under the solution against a fault scenario:
// transaction i arrives at virtual time i/rate; an attempt commits only
// when every participant is reachable and no coordination message is
// lost, otherwise it aborts, charges wasted work to the reachable
// participants, and retries under capped exponential backoff with jitter
// until the retry policy's attempt budget is exhausted. It is the engine
// behind New(Scenario{Mode: ModeChaos, ...}).Run(ctx) and runs under a
// phase span ("sim/chaos").
func runChaos(ctx context.Context, d *db.DB, sol *partition.Solution, tr *trace.Trace,
	cfg ChaosConfig, sc *faults.Scenario, seed int64) (*ChaosResult, error) {
	_, span := obs.StartSpan(ctx, "sim/chaos")
	defer span.End()

	cfg = cfg.withDefaults(tr.Len())
	a, err := eval.NewAssigner(d, sol)
	if err != nil {
		return nil, err
	}
	inj, err := faults.NewInjector(sc, sol.K, seed)
	if err != nil {
		return nil, err
	}
	// Failure-free baseline under the same arrival process and cost
	// shape: every transaction commits on first attempt, so the run ends
	// at max(last arrival, bottleneck busy time).
	placed := a.PlaceTrace(tr, runtime.GOMAXPROCS(0))
	base := replayPlain(tr, placed, sol.K, cfg.Config)
	res := &ChaosResult{
		Scenario: sc.Name,
		Seed:     seed,
		Nodes:    sol.K,
		Offered:  tr.Len(),
		NodeWork: make([]float64, sol.K),
	}
	if n := tr.Len(); n > 0 {
		baseBottleneck := 0.0
		for _, w := range base.NodeWork {
			if w > baseBottleneck {
				baseBottleneck = w
			}
		}
		baseElapsed := math.Max(float64(n-1)/cfg.ArrivalRateTPS, baseBottleneck/cfg.NodeCapacity)
		if baseElapsed > 0 {
			res.BaselineTPS = float64(n) / baseElapsed
		}
	}
	attempts := 0
	rec := cfg.Recorder // nil keeps every Record a no-op
	slo := obs.NewSLOMonitor(cfg.SLO)
	var allLat, retriedLat obs.HDR // per-run HDRs, virtual nanoseconds

	for i, t := range tr.All() {
		arrival := float64(i) / cfg.ArrivalRateTPS
		nodes, coord, distributed := cluster.Participants(t, placed.Txn(i), sol.K, i)
		txn := obs.TxnID(seed, i)
		rec.Record(txn, obs.EvBegin, -1, 0, arrival, int64(len(nodes)))
		dist := int64(0)
		if distributed {
			dist = 1
		}
		rec.Record(txn, obs.EvRoute, coord, 0, arrival, int64(len(nodes))<<8|dist)

		now := arrival
		committed := false
		for attempt := 1; attempt <= cfg.Retry.MaxAttempts; attempt++ {
			attempts++
			now += inj.SampleLatency()
			// Fully-replicated reads (no pinned participant) degrade to any
			// reachable node instead of their round-robin home.
			execNodes, execCoord := nodes, coord
			if len(nodes) == 0 {
				if up := inj.UpNodes(now); len(up) > 0 {
					execCoord = up[i%len(up)]
					execNodes = []int{execCoord}
				} else {
					execNodes = []int{coord} // cluster fully down: blocked
					execCoord = coord
				}
			}
			blocked := false
			for _, n := range execNodes {
				if inj.Down(n, now) {
					blocked = true
					rec.Record(txn, obs.EvFault, n, attempt, now, obs.FaultNodeDown)
					break
				}
			}
			lost := false
			if !blocked && distributed {
				lost = inj.SampleLoss()
				if lost {
					rec.Record(txn, obs.EvFault, execCoord, attempt, now, obs.FaultMsgLoss)
				}
			}
			if !blocked && !lost {
				// Commit: charge the analytic cost model's work.
				chargeCommit(res.NodeWork, execNodes, execCoord, distributed, cfg.Config)
				res.Committed++
				if distributed {
					res.Distributed++
				} else {
					res.Local++
				}
				latency := now - arrival
				allLat.Observe(int64(latency * 1e9))
				hChaosLatency.Observe(int64(latency * 1e9))
				if attempt > 1 {
					retriedLat.Observe(int64(latency * 1e9))
					hChaosRetryLatency.Observe(int64(latency * 1e9))
				}
				slo.Record(latency, true)
				rec.Record(txn, obs.EvCommit, execCoord, attempt, now, int64(latency*1e9))
				if now > res.MakespanSec {
					res.MakespanSec = now
				}
				committed = true
				break
			}
			// Abort: reachable participants waste the prepare/rollback work.
			res.Aborts++
			rec.Record(txn, obs.EvAbort, execCoord, attempt, now, 0)
			for _, n := range execNodes {
				if !inj.Down(n, now) {
					res.NodeWork[n] += cfg.AbortWork
				}
			}
			if attempt == cfg.Retry.MaxAttempts {
				break
			}
			res.Retries++
			backoff := cfg.Retry.Backoff(attempt, inj)
			rec.Record(txn, obs.EvBackoff, -1, attempt, now, int64(backoff*1e9))
			now += backoff
		}
		if !committed {
			res.PermanentFailures++
			if res.PermanentByClass == nil {
				res.PermanentByClass = map[string]int{}
			}
			res.PermanentByClass[t.Class]++
			latency := now - arrival
			allLat.Observe(int64(latency * 1e9))
			hChaosLatency.Observe(int64(latency * 1e9))
			slo.Record(latency, false)
			rec.Record(txn, obs.EvGiveUp, -1, cfg.Retry.MaxAttempts, now, int64(latency*1e9))
			if now > res.MakespanSec {
				res.MakespanSec = now
			}
		}
	}

	if attempts > 0 {
		res.AbortRate = float64(res.Aborts) / float64(attempts)
	}
	if res.Offered > 0 {
		res.AvailabilityPct = 100 * float64(res.Committed) / float64(res.Offered)
	}
	latSnap := allLat.Snapshot()
	res.LatencyP50 = float64(latSnap.P50) / 1e9
	res.LatencyP99 = float64(latSnap.P99) / 1e9
	res.LatencyP999 = float64(latSnap.P999) / 1e9
	retrySnap := retriedLat.Snapshot()
	res.RetryLatencyP50 = float64(retrySnap.P50) / 1e9
	res.RetryLatencyP99 = float64(retrySnap.P99) / 1e9
	slo.Flush()
	res.SLO = slo.Status()
	res.NodeDownSec = inj.DownNodeSeconds(res.MakespanSec)

	bottleneck := 0.0
	for _, w := range res.NodeWork {
		if w > bottleneck {
			bottleneck = w
		}
	}
	elapsed := math.Max(res.MakespanSec, bottleneck/cfg.NodeCapacity)
	if elapsed > 0 {
		res.EffectiveTPS = float64(res.Committed) / elapsed
	}
	if res.BaselineTPS > 0 {
		res.DegradationPct = 100 * (1 - res.EffectiveTPS/res.BaselineTPS)
		if res.DegradationPct < 0 {
			res.DegradationPct = 0
		}
	}

	cChaosRuns.Inc()
	cChaosCommit.Add(int64(res.Committed))
	cChaosAborts.Add(int64(res.Aborts))
	cChaosRetries.Add(int64(res.Retries))
	cChaosPerm.Add(int64(res.PermanentFailures))
	obs.Set("sim.chaos_abort_rate", res.AbortRate)
	obs.Set("sim.chaos_availability_pct", res.AvailabilityPct)
	obs.Set("sim.chaos_effective_tps", res.EffectiveTPS)
	obs.Set("sim.chaos_degradation_pct", res.DegradationPct)
	return res, nil
}

// chargeCommit applies the analytic cost model to one committed attempt.
func chargeCommit(work []float64, nodes []int, coord int, distributed bool, cfg Config) {
	if !distributed {
		work[coord] += cfg.LocalWork
		return
	}
	for _, n := range nodes {
		work[n] += cfg.ParticipantWork
	}
	work[coord] += cfg.CoordWork
}
