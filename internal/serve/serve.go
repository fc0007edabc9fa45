// Package serve is the live serving engine: a seeded, virtual-time
// deterministic load generator (closed- and open-loop sessions, Poisson
// and bursty arrival processes) driving worker-pool transaction
// execution through router.Route into WAL-backed internal/db
// partitions, wrapped in an overload-protection layer — token-bucket +
// queue-depth admission control with typed router.ErrOverload shedding,
// per-partition circuit breakers (closed/open/half-open, driven by
// error rate and p99 from obs.HDR), per-request virtual deadlines
// propagated via context with a per-session retry *budget* and capped
// backoff from internal/faults, and an obs.SLOMonitor-driven AIMD
// guardrail stepping the admission rate down/up to keep tail latency
// bounded under overload.
//
// The engine is a single-threaded discrete-event simulation in virtual
// time: every event (arrival, retry re-admission, service completion)
// is ordered by (virtual time, sequence), every random draw comes from
// one seeded source consumed in replay order, and commits execute
// for real into per-partition stores and write-ahead logs. A (config,
// seed) pair therefore marshals to byte-identical JSON reports across
// runs — the same determinism contract every other sim mode pins — while
// the protection components themselves (admission controller, breakers)
// are concurrency-safe and soaked under -race by their tests.
package serve

import (
	"context"
	"fmt"

	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sqlparse"
	"repro/internal/trace"
)

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	cServeRuns     = obs.Default.Counter("serve.runs")
	cServeRequests = obs.Default.Counter("serve.requests")
	cServeCommits  = obs.Default.Counter("serve.commits")
	cServeSheds    = obs.Default.Counter("serve.sheds")
	cServeTrips    = obs.Default.Counter("serve.breaker_trips")
	hServeLatency  = obs.Default.HDR("serve.latency_ns")
)

// Arrival process names for LoadConfig.Arrival.
const (
	// ArrivalPoisson is the open-loop Poisson process (default).
	ArrivalPoisson = "poisson"
	// ArrivalBurst is open-loop with a periodic burst: the instantaneous
	// rate is BurstFactor× the base rate for the first quarter of each
	// BurstPeriodSec cycle, scaled so the mean offered rate stays
	// OfferedTPS.
	ArrivalBurst = "burst"
	// ArrivalClosed is the closed-loop process: Sessions clients cycling
	// think → request → response; the offered rate emerges from the
	// session count, the think time, and the system's own completion
	// rate (natural backpressure).
	ArrivalClosed = "closed"
)

// LoadConfig shapes the generated load.
type LoadConfig struct {
	// Arrival selects the arrival process (default ArrivalPoisson).
	Arrival string
	// OfferedTPS is the open-loop offered rate. Zero derives it as
	// LoadFactor × the analytic capacity estimate (EstimateCapacityTPS),
	// so experiments can say "1× / 2× saturating load" without knowing
	// the workload's absolute numbers.
	OfferedTPS float64
	// LoadFactor scales the derived offered rate when OfferedTPS is zero
	// (default 1 — offered load equals estimated capacity).
	LoadFactor float64
	// Sessions is the client-session count (default 32). Open-loop
	// requests round-robin across sessions (sessions scope the retry
	// budget); closed-loop sessions are the load's concurrency.
	Sessions int
	// ThinkTimeSec is the closed-loop mean think time, exponentially
	// distributed (default 0.002).
	ThinkTimeSec float64
	// DurationSec is the arrival horizon in virtual seconds (default 2).
	// In-flight work drains past the horizon; nothing new arrives.
	DurationSec float64
	// BurstFactor is ArrivalBurst's peak multiplier (default 4).
	BurstFactor float64
	// BurstPeriodSec is ArrivalBurst's cycle length (default 0.5).
	BurstPeriodSec float64
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Arrival == "" {
		c.Arrival = ArrivalPoisson
	}
	if c.LoadFactor <= 0 {
		c.LoadFactor = 1
	}
	if c.Sessions <= 0 {
		c.Sessions = 32
	}
	if c.ThinkTimeSec <= 0 {
		c.ThinkTimeSec = 0.002
	}
	if c.DurationSec <= 0 {
		c.DurationSec = 2
	}
	if c.BurstFactor <= 0 {
		c.BurstFactor = 4
	}
	if c.BurstPeriodSec <= 0 {
		c.BurstPeriodSec = 0.5
	}
	return c
}

// AdmissionConfig shapes the overload-protection layer: a token bucket
// in front of the worker queue, a queue-depth cap behind it, and the
// AIMD guardrail adjusting the bucket's refill rate from SLO windows.
// The zero value (Enabled false) disables all three — every request is
// admitted and the queue grows without bound, which is exactly the
// collapse the serve experiment table demonstrates.
type AdmissionConfig struct {
	// Enabled turns admission control on.
	Enabled bool
	// RateTPS is the token bucket's initial refill rate. Zero derives it
	// from the capacity estimate — admit about what the workers can do.
	RateTPS float64
	// Burst is the bucket depth in tokens (default 32): the largest
	// arrival burst admitted ahead of the refill rate.
	Burst float64
	// QueueDepth caps the worker queue (default 8 × Workers); admitted
	// requests beyond it are shed with router.ErrOverload.
	QueueDepth int
	// MinRateTPS / MaxRateTPS bound the AIMD rate (defaults 0.1× / 2×
	// the initial rate).
	MinRateTPS, MaxRateTPS float64
	// IncreaseTPS is the additive step applied after each healthy SLO
	// window (default 0.05 × the initial rate).
	IncreaseTPS float64
	// DecreaseFactor is the multiplicative cut applied after each
	// breached SLO window (default 0.7).
	DecreaseFactor float64
}

func (c AdmissionConfig) withDefaults(capacityTPS float64) AdmissionConfig {
	if c.RateTPS <= 0 {
		c.RateTPS = capacityTPS
	}
	if c.Burst <= 0 {
		c.Burst = 32
	}
	if c.MinRateTPS <= 0 {
		c.MinRateTPS = 0.1 * c.RateTPS
	}
	if c.MaxRateTPS <= 0 {
		c.MaxRateTPS = 2 * c.RateTPS
	}
	if c.IncreaseTPS <= 0 {
		c.IncreaseTPS = 0.05 * c.RateTPS
	}
	if c.DecreaseFactor <= 0 || c.DecreaseFactor >= 1 {
		c.DecreaseFactor = 0.7
	}
	return c
}

// BreakerConfig shapes the per-partition circuit breakers.
type BreakerConfig struct {
	// Window is the closed-state evaluation window in observed outcomes
	// (default 32): each full window is judged and then discarded.
	Window int
	// TripErrorRate opens the breaker when a window's failure fraction
	// reaches it (default 0.5).
	TripErrorRate float64
	// TripP99Sec opens the breaker when a window's p99 service latency
	// (from an obs.HDR over the window) exceeds it (default 0.025).
	// Zero disables the latency trip.
	TripP99Sec float64
	// CooldownSec is how long an open breaker rejects before probing
	// (default 0.25).
	CooldownSec float64
	// HalfOpenProbes is how many probe requests half-open admits; that
	// many consecutive successes re-close the breaker, any failure
	// re-opens it (default 4).
	HalfOpenProbes int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.TripErrorRate <= 0 {
		c.TripErrorRate = 0.5
	}
	if c.TripP99Sec == 0 {
		c.TripP99Sec = 0.025
	}
	if c.CooldownSec <= 0 {
		c.CooldownSec = 0.25
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 4
	}
	return c
}

// CostConfig is the serving cost shape: the analytic work model of
// internal/sim (a local transaction costs LocalWork units, a
// distributed one CoordWork at the coordinator plus ParticipantWork per
// participant) translated into worker-seconds of occupancy, plus the
// failure costs a live system pays that a replay does not — a timed-out
// RPC holds its worker for the full timeout, an abort burns
// AbortWork units.
type CostConfig struct {
	// LocalWork / CoordWork / ParticipantWork are work units (defaults
	// 1 / 2 / 2, matching sim.Config).
	LocalWork, CoordWork, ParticipantWork float64
	// NodeCapacity is work units per second a worker executes (default
	// 2000 — a local transaction occupies a worker for 0.5ms).
	NodeCapacity float64
	// AbortWork is the work wasted by an aborted attempt (default 0.5).
	AbortWork float64
	// RPCTimeoutSec is how long an attempt against an unreachable
	// participant occupies its worker before failing (default 0.05).
	// This is the fail-slow cost circuit breakers exist to avoid.
	RPCTimeoutSec float64
}

func (c CostConfig) withDefaults() CostConfig {
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
		c.NodeCapacity = 2000
	}
	if c.AbortWork <= 0 {
		c.AbortWork = 0.5
	}
	if c.RPCTimeoutSec <= 0 {
		c.RPCTimeoutSec = 0.05
	}
	return c
}

// Config parameterizes one serving run.
type Config struct {
	// Load shapes the generated load.
	Load LoadConfig
	// Admission is the overload-protection layer (zero value: off).
	Admission AdmissionConfig
	// Breaker shapes the per-partition circuit breakers.
	Breaker BreakerConfig
	// Cost is the execution cost shape.
	Cost CostConfig
	// Workers is the execution worker-pool size (default 4).
	Workers int
	// DeadlineSec is the per-request virtual deadline (default 0.05):
	// commits past it count toward throughput but not goodput, and
	// queued requests past it are dropped without executing.
	DeadlineSec float64
	// Retry shapes the capped backoff between attempts (defaults per
	// faults.RetryPolicy; the engine paces with the jitter-free
	// BackoffAt so backoff never perturbs the fault-sampling stream).
	Retry faults.RetryPolicy
	// RetryBudget is the per-session retry budget (default 8): every
	// retry of any request in the session spends one token, so a
	// struggling session stops amplifying load instead of retrying each
	// request to its per-attempt cap.
	RetryBudget int
	// SLO configures the tumbling-window objective evaluation that
	// drives the AIMD guardrail (serve defaults: 256-txn windows, p99
	// target 0.04s, availability target 99%).
	SLO obs.SLOConfig
	// Procedures are the workload's stored procedures; their analyses
	// build the router. Nil routes every class conservatively
	// (broadcast), which makes everything distributed — pass the real
	// procedures (workloads.Procedures) for meaningful runs.
	Procedures []*sqlparse.Procedure

	// Scenario is the fault scenario (nil means fault-free); Seed drives
	// the injector, the load generator, and the trace ids. WALDir, when
	// non-empty, puts a write-ahead log under every partition store.
	// Recorder opts into flight-recorder tracing. All four are filled
	// from the shared sim.Scenario fields by the ModeServe dispatch.
	Scenario *faults.Scenario
	Seed     int64
	WALDir   string
	Recorder *obs.Recorder
}

func (c Config) withDefaults(capacityTPS float64) Config {
	c.Load = c.Load.withDefaults()
	if c.Load.OfferedTPS <= 0 {
		c.Load.OfferedTPS = c.Load.LoadFactor * capacityTPS
	}
	c.Admission = c.Admission.withDefaults(capacityTPS)
	c.Breaker = c.Breaker.withDefaults()
	c.Cost = c.Cost.withDefaults()
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.DeadlineSec <= 0 {
		c.DeadlineSec = 0.05
	}
	c.Retry = c.Retry.WithDefaults()
	if c.RetryBudget <= 0 {
		c.RetryBudget = 8
	}
	if c.SLO.WindowTxns <= 0 {
		c.SLO.WindowTxns = 256
	}
	if c.SLO.TargetP99Sec <= 0 {
		c.SLO.TargetP99Sec = 0.04
	}
	if c.Admission.QueueDepth <= 0 {
		c.Admission.QueueDepth = 8 * c.Workers
	}
	return c
}

// EstimateCapacityTPS is the analytic saturation throughput of the
// worker pool on this workload: workers × NodeCapacity divided by the
// trace's mean per-transaction work under the solution's
// local/distributed classification. Experiments use it to phrase
// offered load as a saturation multiple ("2× capacity"), and the
// admission controller defaults its token rate to it.
func EstimateCapacityTPS(d *db.DB, sol *partition.Solution, tr *trace.Trace,
	cost CostConfig, workers int) (float64, error) {
	cost = cost.withDefaults()
	if workers <= 0 {
		workers = 4
	}
	if tr.Len() == 0 {
		return 0, fmt.Errorf("serve: empty trace")
	}
	a, err := eval.NewAssigner(d, sol)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, t := range tr.All() {
		parts, writesReplicated, allPlaced := a.TxnPartitions(t)
		switch n := parts.Len(); {
		case writesReplicated || !allPlaced:
			total += cost.CoordWork + cost.ParticipantWork*float64(sol.K)
		case n <= 1:
			total += cost.LocalWork
		default:
			total += cost.CoordWork + cost.ParticipantWork*float64(n)
		}
	}
	avg := total / float64(tr.Len())
	return float64(workers) * cost.NodeCapacity / avg, nil
}

// Run executes one serving run: generate load per cfg.Load, push it
// through admission → routing → breakers → worker-pool execution into
// the partition stores, and report the outcome. See the package doc for
// the determinism contract.
func Run(ctx context.Context, d *db.DB, sol *partition.Solution, tr *trace.Trace, cfg Config) (*Result, error) {
	_, span := obs.StartSpan(ctx, "serve/run")
	defer span.End()

	if tr.Len() == 0 {
		return nil, fmt.Errorf("serve: empty trace")
	}
	capTPS, err := EstimateCapacityTPS(d, sol, tr, cfg.Cost, cfg.Workers)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(capTPS)
	e, err := newEngine(ctx, d, sol, tr, cfg, capTPS)
	if err != nil {
		return nil, err
	}
	defer e.local.Close()
	return e.run()
}
