// Package serve is the live serving engine: a seeded, virtual-time
// deterministic load generator (closed- and open-loop sessions, Poisson
// and bursty arrival processes) driving worker-pool transaction
// execution through router.Route into WAL-backed internal/db
// partitions, wrapped in an overload-protection layer — token-bucket +
// queue-depth admission control shedding into the session's retries,
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
	// rate is burstFactor× the base rate for the first quarter of each
	// burstPeriodSec cycle, scaled so the mean offered rate stays the
	// offered rate.
	ArrivalBurst = "burst"
	// ArrivalClosed is the closed-loop process: Sessions clients cycling
	// think → request → response; the offered rate emerges from the
	// session count, the think time, and the system's own completion
	// rate (natural backpressure).
	ArrivalClosed = "closed"
)

// The generated load's fixed shape.
const (
	// thinkTimeSec is the closed-loop mean think time, exponentially
	// distributed.
	thinkTimeSec float64 = 0.002
	// burstFactor is ArrivalBurst's peak multiplier.
	burstFactor float64 = 4
	// burstPeriodSec is ArrivalBurst's cycle length.
	burstPeriodSec float64 = 0.5
)

// LoadConfig shapes the generated load.
type LoadConfig struct {
	// Arrival selects the arrival process (default ArrivalPoisson).
	Arrival string
	// LoadFactor scales the open-loop offered rate: LoadFactor × the
	// analytic capacity estimate (EstimateCapacityTPS), so experiments
	// can say "1× / 2× saturating load" without knowing the workload's
	// absolute numbers (default 1 — offered load equals estimated
	// capacity).
	LoadFactor float64
	// Sessions is the client-session count (default 32). Open-loop
	// requests round-robin across sessions (sessions scope the retry
	// budget); closed-loop sessions are the load's concurrency.
	Sessions int
	// DurationSec is the arrival horizon in virtual seconds (default 2).
	// In-flight work drains past the horizon; nothing new arrives.
	DurationSec float64
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
	if c.DurationSec <= 0 {
		c.DurationSec = 2
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

// The serving cost shape: the analytic work model of internal/sim (a
// local transaction costs localWork units, a distributed one coordWork
// at the coordinator plus participantWork per participant) translated
// into worker-seconds of occupancy, plus the failure costs a live system
// pays that a replay does not — a timed-out RPC holds its worker for the
// full timeout, an abort burns abortWork units.
const (
	// localWork, coordWork and participantWork are work units, matching
	// internal/sim's cost model.
	localWork, coordWork, participantWork float64 = 1, 2, 2
	// nodeCapacity is work units per second a worker executes: a local
	// transaction occupies a worker for 0.5ms.
	nodeCapacity float64 = 2000
	// abortWork is the work wasted by an aborted attempt.
	abortWork float64 = 0.5
	// rpcTimeoutSec is how long an attempt against an unreachable
	// participant occupies its worker before failing. This is the
	// fail-slow cost circuit breakers exist to avoid.
	rpcTimeoutSec float64 = 0.05
)

// The serving engine's fixed execution and protection shape.
const (
	// workers is the execution worker-pool size.
	workers = 4
	// queueDepth caps the worker queue under admission control; admitted
	// requests beyond it are shed.
	queueDepth = 8 * workers
	// deadlineSec is the per-request virtual deadline: commits past it
	// count toward throughput but not goodput, and queued requests past
	// it are dropped without executing.
	deadlineSec float64 = 0.05
	// retryBudget is the per-session retry budget: every retry of any
	// request in the session spends one token, so a struggling session
	// stops amplifying load instead of retrying each request to its
	// per-attempt cap. The capped backoff between attempts is
	// cluster.TxnRetry's; the engine paces with the jitter-free
	// BackoffAt so backoff never perturbs the fault-sampling stream.
	retryBudget = 8
)

var (
	// breakerPolicy shapes the per-partition circuit breakers: the
	// BreakerConfig defaults.
	breakerPolicy = BreakerConfig{}.withDefaults()
	// sloPolicy configures the tumbling-window objective evaluation that
	// drives the AIMD guardrail: 256-txn windows, p99 target 0.04s,
	// availability target per obs.SLOConfig.
	sloPolicy = obs.SLOConfig{WindowTxns: 256, TargetP99Sec: 0.04}
)

// Config parameterizes one serving run.
type Config struct {
	// Load shapes the generated load.
	Load LoadConfig
	// Admission is the overload-protection layer (zero value: off).
	Admission AdmissionConfig
	// Procedures are the workload's stored procedures; their analyses
	// build the router. Nil routes every class conservatively
	// (broadcast), which makes everything distributed — pass the real
	// procedures (workloads.Procedures) for meaningful runs.
	Procedures []*sqlparse.Procedure

	// Scenario is the fault scenario (required; faults.Builtin names);
	// Seed drives the injector, the load generator, and the trace ids.
	// WALDir, when non-empty, puts a write-ahead log under every
	// partition store; empty keeps the stores memory-only.
	Scenario *faults.Scenario
	Seed     int64
	WALDir   string
}

func (c Config) withDefaults(capacityTPS float64) Config {
	c.Load = c.Load.withDefaults()
	c.Admission = c.Admission.withDefaults(capacityTPS)
	return c
}

// EstimateCapacityTPS is the analytic saturation throughput of the
// worker pool on this workload: workers × nodeCapacity divided by the
// trace's mean per-transaction work under the solution's
// local/distributed classification. Experiments use it to phrase
// offered load as a saturation multiple ("2× capacity"), and the
// admission controller defaults its token rate to it.
func EstimateCapacityTPS(d *db.DB, sol *partition.Solution, tr *trace.Trace) (float64, error) {
	if tr.Len() == 0 {
		return 0, fmt.Errorf("serve: empty trace")
	}
	a, err := eval.NewAssigner(d, sol)
	if err != nil {
		return 0, err
	}
	total := 0.0
	v := d.View()
	defer v.Close()
	for _, t := range tr.All() {
		s := a.Span(v, t)
		switch {
		case !s.Distributed():
			total += localWork
		case s.All:
			total += coordWork + participantWork*float64(sol.K)
		default:
			total += coordWork + participantWork*float64(s.Parts.Len())
		}
	}
	avg := total / float64(tr.Len())
	return float64(workers) * nodeCapacity / avg, nil
}

// Run executes one serving run: generate load per cfg.Load, push it
// through admission → routing → breakers → worker-pool execution into
// the partition stores, and report the outcome. A flight recorder
// attached to ctx (obs.WithRecorder) receives every request's events. See
// the package doc for the determinism contract.
func Run(ctx context.Context, d *db.DB, sol *partition.Solution, tr *trace.Trace, cfg Config) (*Result, error) {
	_, span := obs.StartSpan(ctx, "serve/run")
	defer span.End()

	if cfg.Scenario == nil {
		return nil, fmt.Errorf("serve: nil scenario")
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("serve: empty trace")
	}
	capTPS, err := EstimateCapacityTPS(d, sol, tr)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(capTPS)
	e, err := newEngine(ctx, d, sol, tr, cfg, capTPS)
	if err != nil {
		return nil, err
	}
	defer e.local.Close()
	// Serving never writes the solved database, so one view reads it for
	// the whole run.
	e.view = d.View()
	defer e.view.Close()
	return e.run()
}
