package sim

import (
	"context"
	"fmt"

	"repro/internal/db"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/repl"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/twopc"
)

// Four PRs of organic growth left this package with six mode-specific
// entry points plus their *Context twins. The config-first API below
// replaced the sprawl with one entry point:
//
//	res, err := sim.New(sim.Scenario{
//	    Mode:     sim.ModeChaos,
//	    DB:       d,
//	    Solution: sol,
//	    Trace:    tr,
//	    Chaos:    sim.ChaosConfig{...},
//	    Faults:   scenario,
//	    Seed:     42,
//	}).Run(ctx)
//
// The deprecated wrappers (Run, RunChaos, RunChaosDurable, RunDrift*)
// have been removed; their engines live on as the unexported
// runPlain/runChaos/runChaosDurable/runDrift behind the dispatch. See
// doc.go at the repository root for the migration table.

// Mode selects which replay a Scenario describes.
type Mode int

const (
	// ModePlain is the fault-free analytic replay.
	ModePlain Mode = iota
	// ModeChaos is the fault-injected analytic replay.
	ModeChaos
	// ModeDurable is the WAL-backed 2PC replay with end-of-run crash
	// recovery and the consistency oracle.
	ModeDurable
	// ModeDriftStatic replays window-by-window under a fixed solution.
	ModeDriftStatic
	// ModeDriftAdaptive replays with the detector-triggered adaptation
	// loop. Requires Repartition.
	ModeDriftAdaptive
	// ModeDriftOracle replays with a free scripted swap at Drift.DriftAt.
	// Requires Repartition and Drift.DriftAt.
	ModeDriftOracle
	// ModeTwoPC is the network-aware durable replay: the same WAL-backed
	// 2PC semantics as ModeDurable, but every PREPARE/COMMIT/ABORT crosses
	// a real transport (in-proc bus or loopback TCP) with per-message
	// timeouts, retransmission, and optional coordinator failover.
	ModeTwoPC
	// ModeReplicated is the replica-group replay: every partition becomes
	// a group of one primary plus R WAL-backed backups; the primary ships
	// its log over the transport, commits observe the configured rule
	// (async or quorum ack), and a heartbeat failure detector promotes the
	// most-caught-up backup when the primary crashes.
	ModeReplicated
	// ModeServe is the live serving engine: a seeded load generator
	// (closed/open-loop sessions, Poisson/burst arrivals) driving
	// worker-pool execution through the router into the partition stores,
	// wrapped in overload protection — admission control, per-partition
	// circuit breakers, deadlines with retry budgets, and an SLO-driven
	// AIMD guardrail. Unlike the durable modes, WALDir is optional here:
	// empty runs the stores memory-only.
	ModeServe
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModePlain:
		return "plain"
	case ModeChaos:
		return "chaos"
	case ModeDurable:
		return "durable"
	case ModeDriftStatic:
		return "drift-static"
	case ModeDriftAdaptive:
		return "drift-adaptive"
	case ModeDriftOracle:
		return "drift-oracle"
	case ModeTwoPC:
		return "twopc"
	case ModeReplicated:
		return "replicated"
	case ModeServe:
		return "serve"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Scenario is the full description of one simulation: the cluster inputs
// every mode shares, the mode selector, and per-mode parameter blocks
// (only the selected mode's block is read; zero values mean defaults).
type Scenario struct {
	// Mode selects the replay; the zero value is ModePlain.
	Mode Mode

	// DB, Solution and Trace are required by every mode.
	DB       *db.DB
	Solution *partition.Solution
	Trace    *trace.Trace

	// Cost is ModePlain's analytic cost model. The other modes embed
	// their own cost model inside their config blocks (Chaos.Config,
	// Durable.ChaosConfig.Config, Drift.Config).
	Cost Config
	// Chaos parameterizes ModeChaos.
	Chaos ChaosConfig
	// Durable parameterizes ModeDurable.
	Durable DurableConfig
	// TwoPC parameterizes ModeTwoPC. Its Scenario, Seed, WALDir and
	// Recorder fields are filled from the shared scenario fields below.
	TwoPC twopc.Config
	// Repl parameterizes ModeReplicated. As with TwoPC, its Scenario,
	// Seed, WALDir and Recorder fields are filled from the shared
	// scenario fields below.
	Repl repl.Config
	// Serve parameterizes ModeServe. As with TwoPC/Repl, its Scenario,
	// Seed, WALDir and Recorder fields are filled from the shared
	// scenario fields below (WALDir may stay empty: memory-only stores).
	Serve serve.Config
	// Drift parameterizes the three drift modes.
	Drift DriftConfig

	// Faults is the fault scenario of ModeChaos / ModeDurable (nil means
	// the builtin "none" scenario); Seed drives its injector.
	Faults *faults.Scenario
	Seed   int64
	// WALDir is ModeDurable's per-partition log directory (required).
	WALDir string
	// Repartition is the adaptation callback of ModeDriftAdaptive /
	// ModeDriftOracle.
	Repartition RepartitionFunc
	// Recorder, when non-nil, receives flight-recorder trace events from
	// the chaos/durable replays. It takes precedence over (and defaults
	// from) the recorder carried by the Run context via obs.WithRecorder.
	Recorder *obs.Recorder
}

// RunResult is the outcome of Runner.Run: Mode echoes the scenario and
// exactly one result pointer is non-nil (the three drift modes share
// Drift).
type RunResult struct {
	Mode    Mode
	Plain   *Result
	Chaos   *ChaosResult
	Durable *DurableResult
	Drift   *DriftResult
	TwoPC   *twopc.Result
	Repl    *repl.Result
	Serve   *serve.Result
}

// String renders the selected mode's result summary.
func (r *RunResult) String() string {
	switch {
	case r.Plain != nil:
		return r.Plain.String()
	case r.Chaos != nil:
		return r.Chaos.String()
	case r.Durable != nil:
		return r.Durable.String()
	case r.Drift != nil:
		return r.Drift.String()
	case r.TwoPC != nil:
		return r.TwoPC.String()
	case r.Repl != nil:
		return r.Repl.String()
	case r.Serve != nil:
		return r.Serve.String()
	default:
		return r.Mode.String() + ": no result"
	}
}

// Runner is a validated, runnable scenario. Construct with New.
type Runner struct {
	sc Scenario
}

// New wraps a scenario for running. Validation happens in Run so that
// construction can never fail silently mid-expression.
func New(sc Scenario) *Runner { return &Runner{sc: sc} }

// Run executes the scenario, dispatching on Mode. The context threads
// phase tracing (obs.WithTrace); every mode runs under a span named
// sim/<mode>.
func (r *Runner) Run(ctx context.Context) (*RunResult, error) {
	sc := r.sc
	if sc.DB == nil {
		return nil, fmt.Errorf("sim: scenario without a database")
	}
	if sc.Solution == nil {
		return nil, fmt.Errorf("sim: scenario without a solution")
	}
	if sc.Trace == nil {
		return nil, fmt.Errorf("sim: scenario without a trace")
	}
	if sc.Recorder == nil {
		sc.Recorder = obs.ContextRecorder(ctx)
	}
	if sc.Chaos.Recorder == nil {
		sc.Chaos.Recorder = sc.Recorder
	}
	if sc.Durable.Recorder == nil {
		sc.Durable.Recorder = sc.Recorder
	}
	if sc.TwoPC.Recorder == nil {
		sc.TwoPC.Recorder = sc.Recorder
	}
	if sc.Repl.Recorder == nil {
		sc.Repl.Recorder = sc.Recorder
	}
	if sc.Serve.Recorder == nil {
		sc.Serve.Recorder = sc.Recorder
	}
	out := &RunResult{Mode: sc.Mode}
	switch sc.Mode {
	case ModePlain:
		_, span := obs.StartSpan(ctx, "sim/plain")
		defer span.End()
		res, err := runPlain(sc.DB, sc.Solution, sc.Trace, sc.Cost)
		if err != nil {
			return nil, err
		}
		out.Plain = res
	case ModeChaos:
		res, err := runChaos(ctx, sc.DB, sc.Solution, sc.Trace, sc.Chaos, sc.faults(), sc.Seed)
		if err != nil {
			return nil, err
		}
		out.Chaos = res
	case ModeDurable:
		if sc.WALDir == "" {
			return nil, fmt.Errorf("sim: durable scenario without a WAL directory")
		}
		res, err := runChaosDurable(ctx, sc.DB, sc.Solution, sc.Trace, sc.Durable, sc.faults(), sc.Seed, sc.WALDir)
		if err != nil {
			return nil, err
		}
		out.Durable = res
	case ModeTwoPC:
		if sc.WALDir == "" {
			return nil, fmt.Errorf("sim: twopc scenario without a WAL directory")
		}
		cfg := sc.TwoPC
		cfg.Scenario = sc.faults()
		cfg.Seed = sc.Seed
		cfg.WALDir = sc.WALDir
		res, err := twopc.Run(ctx, sc.DB, sc.Solution, sc.Trace, cfg)
		if err != nil {
			return nil, err
		}
		out.TwoPC = res
	case ModeReplicated:
		if sc.WALDir == "" {
			return nil, fmt.Errorf("sim: replicated scenario without a WAL directory")
		}
		cfg := sc.Repl
		cfg.Scenario = sc.faults()
		cfg.Seed = sc.Seed
		cfg.WALDir = sc.WALDir
		res, err := repl.Run(ctx, sc.DB, sc.Solution, sc.Trace, cfg)
		if err != nil {
			return nil, err
		}
		out.Repl = res
	case ModeServe:
		cfg := sc.Serve
		cfg.Scenario = sc.faults()
		cfg.Seed = sc.Seed
		cfg.WALDir = sc.WALDir // optional: empty keeps the stores memory-only
		res, err := serve.Run(ctx, sc.DB, sc.Solution, sc.Trace, cfg)
		if err != nil {
			return nil, err
		}
		out.Serve = res
	case ModeDriftStatic:
		res, err := runDrift(ctx, sc.DB, sc.Solution, sc.Trace, sc.Drift, modeStatic, nil)
		if err != nil {
			return nil, err
		}
		out.Drift = res
	case ModeDriftAdaptive:
		if sc.Repartition == nil {
			return nil, fmt.Errorf("sim: adaptive drift scenario without a repartition func")
		}
		res, err := runDrift(ctx, sc.DB, sc.Solution, sc.Trace, sc.Drift, modeAdaptive, sc.Repartition)
		if err != nil {
			return nil, err
		}
		out.Drift = res
	case ModeDriftOracle:
		if sc.Repartition == nil {
			return nil, fmt.Errorf("sim: oracle drift scenario without a repartition func")
		}
		if sc.Drift.DriftAt <= 0 {
			return nil, fmt.Errorf("sim: oracle drift scenario requires Drift.DriftAt")
		}
		res, err := runDrift(ctx, sc.DB, sc.Solution, sc.Trace, sc.Drift, modeOracle, sc.Repartition)
		if err != nil {
			return nil, err
		}
		out.Drift = res
	default:
		return nil, fmt.Errorf("sim: unknown mode %d", int(sc.Mode))
	}
	return out, nil
}

// faults resolves the scenario's fault description, defaulting to the
// builtin "none" scenario so chaos/durable runs without faults behave
// like the fault-free baseline.
func (sc *Scenario) faults() *faults.Scenario {
	if sc.Faults != nil {
		return sc.Faults
	}
	none, err := faults.Builtin("none", sc.Solution.K)
	if err != nil {
		// The builtin registry always contains "none"; an empty scenario
		// is the equivalent fallback.
		return &faults.Scenario{Name: "none"}
	}
	return none
}
