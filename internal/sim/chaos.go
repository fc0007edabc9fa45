package sim

import (
	"context"
	"fmt"
	"math"

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

// abortWork is the work units wasted on each reachable participant by
// one aborted attempt (the prepare/rollback cost of a 2PC round that
// could not complete).
const abortWork float64 = 0.5

// ChaosConfig holds the chaos replay's fault scenario, seed and SLO
// evaluation. Its load shape is fixed: transaction i arrives at virtual
// time i/rate with rate cluster.ArrivalRate (a full trace spans 8
// virtual seconds, so the builtin scenarios' crash windows land
// mid-run), and aborted attempts retry under cluster.TxnRetry. A flight
// recorder attached to the run's context (obs.WithRecorder) receives one
// event per causal step of every transaction (arrival, routing, faults,
// backoff, commit/abort/give-up).
type ChaosConfig struct {
	// Scenario is the fault scenario (required; faults.Builtin names).
	Scenario *faults.Scenario
	// Seed drives the injector, the backoff jitter and the trace ids.
	Seed int64
	// SLO configures the tumbling-window latency/availability evaluation
	// (defaults per obs.SLOConfig).
	SLO obs.SLOConfig
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

// RunChaos replays the trace under the solution against a fault scenario:
// transaction i arrives at virtual time i/rate; an attempt commits only
// when every participant is reachable and no coordination message is
// lost, otherwise it aborts, charges wasted work to the reachable
// participants, and retries under capped exponential backoff with jitter
// until the retry policy's attempt budget is exhausted. It runs under a
// phase span ("sim/chaos").
func RunChaos(ctx context.Context, d *db.DB, sol *partition.Solution, tr *trace.Trace, cfg ChaosConfig) (*ChaosResult, error) {
	_, span := obs.StartSpan(ctx, "sim/chaos")
	defer span.End()

	if cfg.Scenario == nil {
		return nil, fmt.Errorf("sim: nil scenario")
	}
	sc, seed, rec := cfg.Scenario, cfg.Seed, obs.ContextRecorder(ctx)
	a, err := eval.NewAssigner(d, sol)
	if err != nil {
		return nil, err
	}
	inj, err := faults.NewInjector(sc, sol.K, seed)
	if err != nil {
		return nil, err
	}
	placed := a.PlaceTrace(tr, cluster.PlaceWorkers())
	defer placed.Stop()
	rate := cluster.ArrivalRate(tr.Len())
	work := make([]float64, sol.K)
	t, err := cluster.Replay(ctx, tr, placed, cluster.ReplayConfig{
		Seed: seed, ArrivalRateTPS: rate, Retry: cluster.TxnRetry, Injector: inj,
		Down: inj.Down, Recorder: rec, SLO: obs.NewSLOMonitor(cfg.SLO),
		Latency: hChaosLatency, RetryLatency: hChaosRetryLatency,
	}, func(at *cluster.Attempt) (bool, error) {
		// An attempt commits only when every participant is reachable
		// and no coordination message is lost.
		if !at.Blocked && !sampleLoss(inj, rec, at) {
			chargeCommit(work, at.Nodes, at.Coord, at.Distributed)
			return true, nil
		}
		// Abort: reachable participants waste the prepare/rollback work.
		for _, n := range at.Nodes {
			if !inj.Down(n, at.Now) {
				work[n] += abortWork
			}
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	// Failure-free baseline under the same arrival process and cost
	// shape: every transaction commits on first attempt, so the run ends
	// at max(last arrival, bottleneck busy time).
	base := replayPlain(tr, placed, sol.K)
	res := &ChaosResult{
		Scenario: sc.Name, Seed: seed, Nodes: sol.K,
		Offered: t.Offered, Committed: t.Committed, PermanentFailures: t.PermanentFailures,
		PermanentByClass: t.PermanentByClass, Local: t.Local, Distributed: t.Distributed,
		Aborts: t.Aborts, Retries: t.Retries, AvailabilityPct: t.AvailabilityPct,
		LatencyP50: t.LatencyP50, LatencyP99: t.LatencyP99, LatencyP999: t.LatencyP999,
		RetryLatencyP50: t.RetryLatencyP50, RetryLatencyP99: t.RetryLatencyP99,
		SLO: t.SLO, MakespanSec: t.MakespanSec,
		NodeWork: work, NodeDownSec: inj.DownNodeSeconds(t.MakespanSec),
	}
	if t.Attempts > 0 {
		res.AbortRate = float64(t.Aborts) / float64(t.Attempts)
	}
	if n := tr.Len(); n > 0 {
		baseBottleneck := 0.0
		for _, w := range base.NodeWork {
			if w > baseBottleneck {
				baseBottleneck = w
			}
		}
		baseElapsed := math.Max(float64(n-1)/rate, baseBottleneck/nodeCapacity)
		if baseElapsed > 0 {
			res.BaselineTPS = float64(n) / baseElapsed
		}
	}

	bottleneck := 0.0
	for _, w := range res.NodeWork {
		if w > bottleneck {
			bottleneck = w
		}
	}
	elapsed := math.Max(res.MakespanSec, bottleneck/nodeCapacity)
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

// sampleLoss draws whether a distributed attempt loses a coordination
// message, recording the fault. Local attempts draw nothing.
func sampleLoss(inj *faults.Injector, rec *obs.Recorder, at *cluster.Attempt) bool {
	if !at.Distributed || !inj.SampleLoss() {
		return false
	}
	rec.Record(at.TraceID, obs.EvFault, at.Coord, at.Num, at.Now, obs.FaultMsgLoss)
	return true
}

// chargeCommit applies the analytic cost model to one committed attempt.
func chargeCommit(work []float64, nodes []int, coord int, distributed bool) {
	if !distributed {
		work[coord] += localWork
		return
	}
	for _, n := range nodes {
		work[n] += participantWork
	}
	work[coord] += coordWork
}
