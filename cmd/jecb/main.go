// Command jecb partitions a benchmark database with JECB, Schism, or
// Horticulture and reports the resulting solution and its cost.
//
// Usage:
//
//	jecb -benchmark tpce -algo jecb -k 8 -txns 4000
//
// Trace input (-trace-in): instead of generating a trace, load one from
// disk. The format is auto-detected: a file starting with the columnar
// magic streams chunk-by-chunk (training materializes only the leading
// -train fraction; evaluation never holds more than one chunk), anything
// else is read as JSON lines and split like a generated trace. -txns is
// ignored when -trace-in is set. A trace references rows its own
// transactions created mid-run: pass the tracegen -db-out snapshot via
// -db-in to restore them exactly, or accepted keys are reconstructed as
// stub rows (PK columns only — join paths through non-key FK columns of
// those rows stop resolving, so prefer -db-in).
//
// Observability flags:
//
//	-metrics out.json   dump the obs metrics registry as JSON on exit
//	-trace-report       print the phase span tree (load/trace/partition/...)
//	-debug-addr :8080   serve /debug/pprof, /debug/vars, /metrics while running
//	-flight-dump f.json dump the transaction flight recorder as sorted JSON on
//	                    exit (always written, even when the run fails — it is
//	                    the post-mortem artifact). Dumps are byte-identical
//	                    for the same flags and seeds.
//	-flight-cap 65536   flight-recorder capacity in events (ring buffer:
//	                    oldest events are overwritten past the cap)
//
// Chaos flags (fault-injected replay of the test trace):
//
//	-chaos                    enable the chaos-mode cluster simulation
//	-chaos-seed 1             fault-injection seed (replays are bit-identical per seed)
//	-chaos-scenario file|name scenario JSON file or builtin name (single-crash,
//	                          rolling, flaky-network, half-down, part-crash,
//	                          prep-crash, coord-crash, none)
//
// Durability flags (WAL-backed 2PC execution and crash recovery):
//
//	-wal-dir DIR   with -chaos: run the durable replay too — per-partition
//	               write-ahead logs in DIR, scripted mid-2PC crash points,
//	               end-of-run crash recovery and the consistency oracle
//	               (a DIVERGED oracle is a non-zero exit)
//	-recover       skip the pipeline; recover the partition logs in -wal-dir
//	               against the benchmark's schema, resolve in-doubt
//	               transactions (presumed abort) and print the recovered
//	               per-table digests
//	-transport bus run the durable replay over a real wire: "bus" is the
//	               in-proc chaos bus (frames dropped/delayed by the fault
//	               scenario), "tcp" uses loopback sockets
//	-standby       with -transport: run a backup coordinator that takes
//	               over after a coordinator-partition crash
//
// Replication flags (replica groups with WAL shipping and promotion):
//
//	-replicate          with -chaos and -wal-dir: replay through replica
//	                    groups — every partition becomes one primary plus
//	                    -replicas WAL-backed backups; the primary ships its
//	                    log over the transport and a heartbeat failure
//	                    detector promotes the most-caught-up backup when
//	                    the primary crashes
//	-replicas 2         backups per partition group
//	-commit-rule async  async acknowledges at primary durability (a crash
//	                    can destroy acknowledged commits); quorum waits for
//	                    a majority of group members and loses nothing under
//	                    any single crash
//
// Drift flags (workload-drift adaptation replay; synthetic benchmark only):
//
//	-drift mix-flip      replay a drift scenario (mix-flip, skew-rotate,
//	                     hotspot-birth) under static, adaptive and oracle control
//	-drift-budget 1500   total moved-tuple budget for migrations (<=0 unbounded)
//	-drift-window 500    detection window in transactions
//
// Serving flags (live load generation with overload protection):
//
//	-serve               drive the computed solution with the serving engine:
//	                     a seeded load generator offering the test trace's
//	                     transaction shapes at -serve-load times the worker
//	                     pool's analytic capacity, through admission control,
//	                     per-partition circuit breakers, deadlines with retry
//	                     budgets, and the SLO-driven AIMD guardrail
//	-serve-load 1.0      offered load as a multiple of analytic capacity
//	-serve-duration 2.0  arrival horizon in virtual seconds
//	-serve-arrival poisson  arrival process: poisson, burst, closed
//	-serve-admission     admission control on (default); -serve-admission=false
//	                     demonstrates the overload collapse
//	-serve-seed 1        load/fault seed (same seed = byte-identical JSON)
//
// The serving stage reuses -chaos-scenario to overlay node crashes and a
// flaky network on the offered load, and -wal-dir for durable partition
// stores (empty = memory-only).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/drift"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/horticulture"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/repl"
	"repro/internal/router"
	"repro/internal/schism"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sqlparse"
	"repro/internal/trace"
	"repro/internal/twopc"
	"repro/internal/wal"
	"repro/internal/workloads"
	_ "repro/internal/workloads/all"
)

// chaosOpts bundles the fault-injection and durability flags.
type chaosOpts struct {
	enabled  bool
	seed     int64
	scenario string
	// walDir enables the durable (WAL-backed 2PC) replay under -chaos and
	// names the log directory for -recover.
	walDir string
	// recover runs standalone crash recovery of walDir instead of the
	// pipeline.
	recover bool
	// transport switches the durable replay onto a real wire ("bus" or
	// "tcp"); empty keeps the in-process engine.
	transport string
	// standby enables the backup coordinator under -transport.
	standby bool
	// replicate switches the durable replay to replica groups: every
	// partition becomes one primary plus `replicas` WAL-backed backups
	// with log shipping, failure detection and automatic promotion.
	replicate  bool
	replicas   int
	commitRule string
}

// driftOpts bundles the workload-drift flags.
type driftOpts struct {
	scenario string
	budget   int
	window   int
}

// flightOpts bundles the flight-recorder flags.
type flightOpts struct {
	dump string
	cap  int
}

// serveOpts bundles the live-serving flags.
type serveOpts struct {
	enabled   bool
	load      float64
	duration  float64
	arrival   string
	admission bool
	seed      int64
	// scenario and walDir are shared with the chaos bundle: the serving
	// stage overlays -chaos-scenario faults and (optionally) persists the
	// partition stores under -wal-dir.
	scenario string
	walDir   string
}

func main() {
	var (
		benchmark   = flag.String("benchmark", "tpcc", "benchmark: "+strings.Join(workloads.Names(), ", "))
		algo        = flag.String("algo", "jecb", "partitioner: jecb, schism, horticulture")
		k           = flag.Int("k", 8, "number of partitions")
		scale       = flag.Int("scale", 0, "benchmark scale (0 = default)")
		txns        = flag.Int("txns", 4000, "transactions to trace (ignored with -trace-in)")
		traceIn     = flag.String("trace-in", "", "load the trace from this file instead of generating one (columnar files stream; jsonl loads whole)")
		dbIn        = flag.String("db-in", "", "with -trace-in: load the database rows from this snapshot (tracegen -db-out) instead of reconstructing trace-created rows as stubs")
		trainFrac   = flag.Float64("train", 0.5, "training fraction of the trace")
		seed        = flag.Int64("seed", 1, "random seed")
		parallelism = flag.Int("parallelism", 0, "worker goroutines for the JECB search (0 = GOMAXPROCS); results are identical for any value")
		verbose     = flag.Bool("v", false, "print the full report")
		out         = flag.String("out", "", "write the solution as JSON to this file")
		metricsOut  = flag.String("metrics", "", "write the obs metrics registry as JSON to this file")
		traceReport = flag.Bool("trace-report", false, "print the phase span tree")
		debugAddr   = flag.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /metrics on this address")

		chaos         = flag.Bool("chaos", false, "replay the test trace under fault injection")
		chaosSeed     = flag.Int64("chaos-seed", 1, "fault-injection seed")
		chaosScenario = flag.String("chaos-scenario", "", "scenario JSON file or builtin name (default single-crash)")
		walDir        = flag.String("wal-dir", "", "with -chaos: durable 2PC replay with per-partition WALs in this directory; with -recover: the directory to recover")
		recoverRun    = flag.Bool("recover", false, "recover the partition logs in -wal-dir against the benchmark schema and exit")
		transportName = flag.String("transport", "", "with -chaos and -wal-dir: run the durable replay over a real wire (bus = in-proc chaos bus, tcp = loopback sockets) instead of the in-process engine")
		standby       = flag.Bool("standby", false, "with -transport: enable the backup coordinator (lease-based failover after a coordinator-partition crash)")
		replicate     = flag.Bool("replicate", false, "with -chaos and -wal-dir: replay through replica groups (one primary + -replicas backups per partition, WAL shipping over the transport, automatic promotion on primary crash)")
		replicas      = flag.Int("replicas", 2, "with -replicate: backups per partition group")
		commitRule    = flag.String("commit-rule", "async", "with -replicate: when a commit is acknowledged (async = at primary durability, quorum = after a majority of group members are durable)")

		driftScenario = flag.String("drift", "", "drift scenario to replay with the adaptation loop ("+strings.Join(drift.BuiltinNames(), ", ")+"); synthetic benchmark only")
		driftBudget   = flag.Int("drift-budget", 1500, "total moved-tuple budget for drift migrations (<=0 = unbounded)")
		driftWindow   = flag.Int("drift-window", 500, "drift detection window in transactions")

		flightDump = flag.String("flight-dump", "", "write the transaction flight recorder as sorted JSON to this file on exit (even on failure)")
		flightCap  = flag.Int("flight-cap", 65536, "flight-recorder capacity in events (oldest overwritten past the cap)")

		serveRun       = flag.Bool("serve", false, "drive the computed solution with the live serving engine (admission control, circuit breakers, deadlines, AIMD)")
		serveLoad      = flag.Float64("serve-load", 1.0, "offered load as a multiple of the worker pool's analytic capacity")
		serveDuration  = flag.Float64("serve-duration", 2.0, "arrival horizon in virtual seconds")
		serveArrival   = flag.String("serve-arrival", "", "arrival process: poisson (default), burst, closed")
		serveAdmission = flag.Bool("serve-admission", true, "admission control (token bucket + queue cap + AIMD); false demonstrates the overload collapse")
		serveSeed      = flag.Int64("serve-seed", 1, "serving load/fault seed (same seed = byte-identical JSON block)")
	)
	flag.Parse()

	co := chaosOpts{enabled: *chaos, seed: *chaosSeed, scenario: *chaosScenario,
		walDir: *walDir, recover: *recoverRun, transport: *transportName, standby: *standby,
		replicate: *replicate, replicas: *replicas, commitRule: *commitRule}
	do := driftOpts{scenario: *driftScenario, budget: *driftBudget, window: *driftWindow}
	fo := flightOpts{dump: *flightDump, cap: *flightCap}
	so := serveOpts{enabled: *serveRun, load: *serveLoad, duration: *serveDuration,
		arrival: *serveArrival, admission: *serveAdmission, seed: *serveSeed,
		scenario: *chaosScenario, walDir: *walDir}
	if err := realMain(*benchmark, *algo, *k, *scale, *txns, *trainFrac, *seed, *parallelism,
		*verbose, *out, *metricsOut, *traceReport, *debugAddr, co, do, fo, so, *traceIn, *dbIn); err != nil {
		fmt.Fprintln(os.Stderr, "jecb:", err)
		os.Exit(1)
	}
}

// realMain is the single exit path: it wires observability around run,
// saves artifacts from run's return value, and reports errors upward.
func realMain(benchmark, algo string, k, scale, txns int, trainFrac float64, seed int64, parallelism int,
	verbose bool, out, metricsOut string, traceReport bool, debugAddr string, co chaosOpts, do driftOpts, fo flightOpts, so serveOpts, traceIn, dbIn string) error {
	if debugAddr != "" {
		obs.PublishExpvar()
		srv, err := obs.ServeDebug(debugAddr, obs.Default)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("debug server on http://%s/debug/pprof/ (also /metrics, /metricsz, /debug/vars)\n", srv.Addr())
	}

	ctx, tr := obs.WithTrace(context.Background(), "jecb/run")
	// The flight recorder rides the context into every stage (the replay
	// engines pick it up via obs.ContextRecorder). It is allocated when a
	// dump was requested OR when chaos is on — a chaos run whose oracle
	// diverges dumps its recorder next to the WALs even without the flag.
	var rec *obs.Recorder
	if fo.dump != "" || co.enabled {
		rec = obs.NewRecorder(fo.cap)
		ctx = obs.WithRecorder(ctx, rec)
	}
	sol, err := runRecovered(ctx, benchmark, algo, k, scale, txns, trainFrac, seed, parallelism, verbose, co, do, so, traceIn, dbIn)
	tr.Finish()
	// Dump BEFORE the error check: the flight recorder is the post-mortem
	// artifact, so a failed run (oracle divergence, panic) must still write.
	// A failed write errors the run like -out/-metrics do, but never masks
	// the run's own error.
	if fo.dump != "" && rec != nil {
		if derr := rec.DumpFile(fo.dump); derr != nil {
			if err == nil {
				err = fmt.Errorf("flight dump: %w", derr)
			} else {
				fmt.Fprintln(os.Stderr, "jecb: flight dump:", derr)
			}
		} else {
			fmt.Printf("flight recorder: %d events (%d dropped) written to %s\n",
				len(rec.Events()), rec.Dropped(), fo.dump)
		}
	}
	if err != nil {
		return err
	}

	if out != "" && sol != nil {
		data, err := json.MarshalIndent(sol, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
		fmt.Println("solution written to", out)
	}
	if traceReport {
		fmt.Println("phase trace:")
		fmt.Print(tr.Report())
	}
	if metricsOut != "" {
		if err := obs.Default.WriteJSONFile(metricsOut); err != nil {
			return err
		}
		fmt.Println("metrics written to", metricsOut)
	}
	return nil
}

// runRecovered is the panic boundary of the pipeline (see DESIGN.md,
// "Error-handling policy"): invariant violations deep in the pipeline
// surface as an error with a stack trace instead of crashing the process
// past the deferred artifact/metrics writers.
func runRecovered(ctx context.Context, benchmark, algo string, k, scale, txns int, trainFrac float64,
	seed int64, parallelism int, verbose bool, co chaosOpts, do driftOpts, so serveOpts, traceIn, dbIn string) (sol *partition.Solution, err error) {
	defer func() {
		if r := recover(); r != nil {
			sol = nil
			err = fmt.Errorf("internal error: %v\n%s", r, debug.Stack())
		}
	}()
	return run(ctx, benchmark, algo, k, scale, txns, trainFrac, seed, parallelism, verbose, co, do, so, traceIn, dbIn)
}

// run executes the pipeline — load, trace, partition, evaluate, route,
// and optionally the chaos replay — and returns the computed solution.
func run(ctx context.Context, benchmark, algo string, k, scale, txns int, trainFrac float64, seed int64, parallelism int, verbose bool, co chaosOpts, do driftOpts, so serveOpts, traceIn, dbIn string) (*partition.Solution, error) {
	b, ok := workloads.Get(benchmark)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q (have: %s)", benchmark, strings.Join(workloads.Names(), ", "))
	}
	if co.recover {
		return nil, recoverStage(ctx, b, scale, seed, co)
	}
	if !(trainFrac > 0 && trainFrac <= 1) {
		return nil, fmt.Errorf("-train %v: want a fraction in (0, 1]", trainFrac)
	}
	fmt.Printf("loading %s (scale %d) ...\n", benchmark, effectiveScale(b, scale))
	_, sLoad := obs.StartSpan(ctx, "load")
	d, err := b.Load(workloads.Config{Scale: scale, Seed: seed})
	sLoad.End()
	if err != nil {
		return nil, err
	}
	if dbIn != "" {
		if traceIn == "" {
			return nil, fmt.Errorf("-db-in requires -trace-in (the snapshot replaces the trace's row universe)")
		}
		data, err := os.ReadFile(dbIn)
		if err != nil {
			return nil, err
		}
		d, err = db.DecodeSnapshot(d.Schema(), data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dbIn, err)
		}
		fmt.Printf("  database snapshot: %s\n", dbIn)
	}
	fmt.Printf("  %d rows across %d tables\n", d.TotalRows(), len(d.Schema().Tables()))

	_, sTrace := obs.StartSpan(ctx, "trace")
	var train, test *trace.Trace
	var stream *trace.Stream
	if traceIn != "" {
		train, test, stream, err = loadTraceInput(traceIn, trainFrac, seed)
		sTrace.End()
		if err != nil {
			return nil, err
		}
		if stream != nil {
			if co.enabled || so.enabled {
				return nil, fmt.Errorf("-chaos and -serve need an in-memory test trace; use a jsonl -trace-in or generate the trace")
			}
			fmt.Printf("  trace: %s (columnar, %d transactions; training on first %d, evaluation streams)\n",
				traceIn, stream.Len(), train.Len())
		} else {
			fmt.Printf("  trace: %s (jsonl, %d train / %d test transactions)\n", traceIn, train.Len(), test.Len())
		}
		// A captured trace references rows its transactions created
		// mid-run. A -db-in snapshot restores them exactly; without one,
		// reconstruct every accessed key as a stub row so training and
		// evaluation can at least navigate FK attributes embedded in
		// primary keys (see workloads.SeedTraceRows).
		if dbIn == "" {
			var seedSrc trace.Workload = stream
			if stream == nil {
				seedSrc = train.Concat(test)
			}
			created, err := workloads.SeedTraceRows(d, seedSrc)
			if err != nil {
				return nil, err
			}
			if created > 0 {
				fmt.Printf("  seeded %d trace-created rows (stub; use -db-in for exact rows)\n", created)
			}
		}
	} else {
		full := workloads.GenerateTrace(b, d, txns, seed+1)
		train, test = full.TrainTest(trainFrac, rand.New(rand.NewSource(seed+2)))
		sTrace.End()
		fmt.Printf("  trace: %d train / %d test transactions\n", train.Len(), test.Len())
	}

	var sol *partition.Solution
	pctx, sPart := obs.StartSpan(ctx, "partition/"+algo)
	switch algo {
	case "jecb":
		res, measureErr := eval.Measure(func() error {
			var rep *core.Report
			var err error
			sol, rep, err = core.Partition(pctx, core.Input{
				DB: d, Procedures: workloads.Procedures(b), Train: train, Test: test,
			}, core.Options{K: k, Seed: seed, Parallelism: parallelism})
			if err == nil && verbose {
				fmt.Println(rep.String())
			}
			return err
		})
		if measureErr != nil {
			sPart.End()
			return nil, measureErr
		}
		printResources(res)
	case "schism":
		var st *schism.Stats
		res, measureErr := eval.Measure(func() error {
			var err error
			sol, st, err = schism.PartitionContext(pctx, schism.Input{DB: d, Train: train},
				schism.Options{K: k, Seed: seed})
			return err
		})
		if measureErr != nil {
			sPart.End()
			return nil, measureErr
		}
		fmt.Printf("  tuple graph: %d nodes, %d edges, cut %.0f\n", st.GraphNodes, st.GraphEdges, st.EdgeCut)
		printResources(res)
	case "horticulture":
		res, measureErr := eval.Measure(func() error {
			var err error
			sol, err = horticulture.SearchContext(pctx, horticulture.Input{DB: d, Train: train},
				horticulture.Options{K: k, Seed: seed})
			return err
		})
		if measureErr != nil {
			sPart.End()
			return nil, measureErr
		}
		printResources(res)
	default:
		sPart.End()
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
	sPart.End()

	if verbose {
		fmt.Println(sol.String())
	}
	_, sEval := obs.StartSpan(ctx, "evaluate")
	var r *eval.Result
	if stream != nil {
		// Streaming path: the evaluator indexes and scores one chunk at a
		// time, past the training prefix; the whole trace is never
		// resident.
		a, aerr := eval.NewAssigner(d, sol)
		if aerr != nil {
			sEval.End()
			return nil, aerr
		}
		r, err = a.EvaluateStream(stream, train.Len())
	} else {
		r, err = eval.Evaluate(d, sol, test)
	}
	sEval.End()
	if err != nil {
		return nil, err
	}
	fmt.Println(r.String())
	for _, c := range r.Classes() {
		fmt.Printf("  %-26s %6.1f%% distributed (%d/%d)\n", c.Class, 100*c.Cost(), c.Distributed, c.Total)
	}

	// Routing stage: build the runtime router from the code analysis and
	// route every test transaction, reporting how many go to one partition.
	var routeSrc trace.Workload = test
	skip := 0
	if stream != nil {
		routeSrc, skip = stream, train.Len()
	}
	_, sRoute := obs.StartSpan(ctx, "route")
	err = routeStage(ctx, d, sol, b, routeSrc, skip, seed)
	sRoute.End()
	if err != nil {
		return nil, err
	}

	if co.enabled {
		if err := chaosStage(ctx, d, sol, test, co); err != nil {
			return nil, err
		}
	}
	if do.scenario != "" {
		if err := driftStage(ctx, benchmark, d, b, k, txns, seed, parallelism, do); err != nil {
			return nil, err
		}
	}
	if so.enabled {
		if err := serveStage(ctx, d, sol, b, test, so); err != nil {
			return nil, err
		}
	}
	return sol, nil
}

// serveStage drives the computed solution with the live serving engine:
// a seeded load generator offering the test trace's transaction shapes at
// -serve-load times the worker pool's analytic capacity, through the
// overload-protection stack (admission control, per-partition circuit
// breakers, deadlines with retry budgets, AIMD). The JSON block is the
// determinism contract: the same flags and seeds print byte-identical
// results.
func serveStage(ctx context.Context, d *db.DB, sol *partition.Solution, b workloads.Benchmark,
	test *trace.Trace, so serveOpts) error {
	sc, err := faults.LoadScenario(so.scenario, sol.K)
	if err != nil {
		return err
	}
	_, span := obs.StartSpan(ctx, "serve/"+sc.Name)
	defer span.End()

	arrival := so.arrival
	switch arrival {
	case "":
		arrival = serve.ArrivalPoisson
	case serve.ArrivalPoisson, serve.ArrivalBurst, serve.ArrivalClosed:
	default:
		return fmt.Errorf("unknown -serve-arrival %q (have: poisson, burst, closed)", so.arrival)
	}
	admission := "on"
	if !so.admission {
		admission = "off"
	}
	fmt.Printf("serve: scenario %q, load %gx, %gs horizon, arrival %s, admission %s\n",
		sc.Name, so.load, so.duration, arrival, admission)
	res, err := serve.Run(ctx, d, sol, test, serve.Config{
		Load:       serve.LoadConfig{LoadFactor: so.load, DurationSec: so.duration, Arrival: arrival},
		Admission:  serve.AdmissionConfig{Enabled: so.admission},
		Procedures: workloads.Procedures(b),
		Scenario:   sc,
		Seed:       so.seed,
		WALDir:     so.walDir,
	})
	if err != nil {
		return err
	}
	fmt.Println("  " + res.String())
	data, err := json.MarshalIndent(res, "  ", "  ")
	if err != nil {
		return err
	}
	fmt.Println("  " + string(data))
	return nil
}

// driftStage replays a drifting workload on the loaded (synthetic)
// database under the three drift controllers — static, adaptive, oracle —
// and prints their results plus the adaptive controller's JSON block (the
// determinism contract: same flags, byte-identical output).
func driftStage(ctx context.Context, benchmark string, d *db.DB, b workloads.Benchmark,
	k, txns int, seed int64, parallelism int, do driftOpts) error {
	if benchmark != "synthetic" {
		return fmt.Errorf("-drift requires -benchmark synthetic (the drift scenarios shape the synthetic workload)")
	}
	sc, err := drift.BuiltinScenario(do.scenario)
	if err != nil {
		return err
	}
	_, span := obs.StartSpan(ctx, "drift/"+sc.Name)
	defer span.End()

	tr, driftAt := sc.GenerateTrace(d, txns, seed+1)
	fmt.Printf("drift: scenario %q, %d transactions, drift at %d, window %d, budget %d\n",
		sc.Name, tr.Len(), driftAt, do.window, do.budget)
	procs := workloads.Procedures(b)
	opts := core.Options{K: k, Seed: seed, Parallelism: parallelism}
	sol0, _, err := core.Partition(ctx, core.Input{DB: d, Procedures: procs, Train: tr.Head(driftAt)}, opts)
	if err != nil {
		return fmt.Errorf("drift: initial solution: %w", err)
	}
	repart := func(win *trace.Trace, prev *partition.Solution) (*partition.Solution, error) {
		res, err := core.Repartition(ctx, core.Input{DB: d, Procedures: procs, Train: win}, opts, prev, 0)
		if err != nil {
			return nil, err
		}
		return res.Solution, nil
	}
	st, ad, or, err := sim.CompareDrift(ctx, d, sol0, tr,
		sim.DriftConfig{WindowSize: do.window, Budget: do.budget, DriftAt: driftAt}, repart)
	if err != nil {
		return err
	}
	fmt.Println("  " + st.String())
	fmt.Println("  " + ad.String())
	fmt.Println("  " + or.String())
	data, err := json.MarshalIndent(ad, "  ", "  ")
	if err != nil {
		return err
	}
	fmt.Println("  " + string(data))
	return nil
}

// chaosStage replays the test trace under a fault scenario and reports
// availability, abort/retry and degradation metrics. With -wal-dir set it
// also runs the durable replay: a real 2PC state machine over
// per-partition write-ahead logs, ending in a full-cluster crash,
// recovery, and the consistency oracle. The JSON blocks are the
// determinism contract: the same (benchmark, algo, k, seeds, scenario)
// inputs print byte-identical results.
func chaosStage(ctx context.Context, d *db.DB, sol *partition.Solution, test *trace.Trace, co chaosOpts) error {
	sc, err := faults.LoadScenario(co.scenario, sol.K)
	if err != nil {
		return err
	}
	fmt.Printf("chaos: scenario %q, seed %d\n", sc.Name, co.seed)
	res, err := sim.RunChaos(ctx, d, sol, test, sim.ChaosConfig{Scenario: sc, Seed: co.seed})
	if err != nil {
		return err
	}
	fmt.Println("  " + res.String())
	data, err := json.MarshalIndent(res, "  ", "  ")
	if err != nil {
		return err
	}
	fmt.Println("  " + string(data))

	if co.walDir == "" {
		return nil
	}
	if err := os.MkdirAll(co.walDir, 0o755); err != nil {
		return err
	}
	var report interface{ String() string }
	var oracleOK bool
	switch {
	case co.replicate:
		// The replica-group engine: every partition is one primary plus
		// co.replicas WAL-backed backups; the primary ships its log over
		// the wire and a failure detector promotes the most-caught-up
		// backup when the primary crashes.
		tname := co.transport
		if tname == "" {
			tname = "bus"
		}
		fmt.Printf("replicated: scenario %q, seed %d, wal-dir %s, transport %s, replicas %d, rule %s\n",
			sc.Name, co.seed, co.walDir, tname, co.replicas, co.commitRule)
		res, err := repl.Run(ctx, d, sol, test, repl.Config{Scenario: sc, Seed: co.seed, WALDir: co.walDir,
			Transport: co.transport, Replicas: co.replicas, CommitRule: co.commitRule})
		if err != nil {
			return err
		}
		report, oracleOK = res, res.OracleOK
	case co.transport != "":
		// The networked engine: same WAL-backed 2PC semantics, but every
		// prepare/decision crosses a real transport with retransmission.
		fmt.Printf("durable: scenario %q, seed %d, wal-dir %s, transport %s (standby %v)\n",
			sc.Name, co.seed, co.walDir, co.transport, co.standby)
		res, err := twopc.Run(ctx, d, sol, test, twopc.Config{Scenario: sc, Seed: co.seed, WALDir: co.walDir,
			Transport: co.transport, Standby: co.standby})
		if err != nil {
			return err
		}
		report, oracleOK = res, res.OracleOK
	default:
		fmt.Printf("durable: scenario %q, seed %d, wal-dir %s\n", sc.Name, co.seed, co.walDir)
		res, err := sim.RunDurable(ctx, d, sol, test, sim.DurableConfig{
			ChaosConfig: sim.ChaosConfig{Scenario: sc, Seed: co.seed}, WALDir: co.walDir})
		if err != nil {
			return err
		}
		report, oracleOK = res, res.OracleOK
	}
	fmt.Println("  " + report.String())
	ddata, err := json.MarshalIndent(report, "  ", "  ")
	if err != nil {
		return err
	}
	fmt.Println("  " + string(ddata))
	if !oracleOK {
		// Post-mortem: drop the flight recorder next to the WALs it
		// indicts, whether or not -flight-dump was given.
		if rec := obs.ContextRecorder(ctx); rec != nil {
			dump := filepath.Join(co.walDir, "flight.json")
			if derr := rec.DumpFile(dump); derr == nil {
				fmt.Println("  flight recorder dumped to", dump)
			}
		}
		return fmt.Errorf("durable replay: consistency oracle DIVERGED under scenario %q", sc.Name)
	}
	return nil
}

// recoverStage is the standalone post-mortem path (-recover): it loads
// the benchmark only for its schema, replays every partition log in
// -wal-dir, resolves in-doubt transactions with the presumed-abort rule,
// and prints the recovered per-table digests. Output is deterministic
// for a given log directory.
func recoverStage(ctx context.Context, b workloads.Benchmark, scale int, seed int64, co chaosOpts) error {
	if co.walDir == "" {
		return fmt.Errorf("-recover requires -wal-dir")
	}
	_, span := obs.StartSpan(ctx, "recover")
	defer span.End()
	d, err := b.Load(workloads.Config{Scale: scale, Seed: seed})
	if err != nil {
		return err
	}
	cr, err := wal.RecoverDir(d.Schema(), co.walDir)
	if err != nil {
		return err
	}
	fmt.Printf("recover: %d partition logs, %d bytes\n", len(cr.Parts), cr.WALBytes)
	fmt.Printf("  torn tails: %d, in-doubt resolved: %d committed / %d aborted\n",
		cr.TornTails, cr.InDoubtCommitted, cr.InDoubtAborted)
	ids := make([]int, 0, len(cr.Parts))
	for id := range cr.Parts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		rec := cr.Parts[id]
		ckpt := ""
		if rec.CheckpointSeen {
			ckpt = ", from checkpoint"
		}
		fmt.Printf("  partition %d: %d records, %d replayed commits, %d discarded%s\n",
			id, rec.Records, len(rec.Committed), rec.Discarded, ckpt)
	}
	digests := cr.TableDigests()
	names := make([]string, 0, len(digests))
	for name := range digests {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("  recovered table digests:")
	for _, name := range names {
		fmt.Printf("    %-24s %016x\n", name, digests[name])
	}
	return nil
}

// loadTraceInput reads -trace-in, auto-detecting the format. A columnar
// file becomes a streaming workload: the leading -train fraction is
// materialized for the partitioner (which needs random access) and the
// returned Stream drives evaluation and routing of the transactions
// after it, chunk-by-chunk. A
// JSON-lines file is loaded whole and split exactly like a generated
// trace.
func loadTraceInput(path string, trainFrac float64, seed int64) (train, test *trace.Trace, stream *trace.Stream, err error) {
	isCol, err := trace.SniffColumnar(path)
	if err != nil {
		return nil, nil, nil, err
	}
	if !isCol {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, nil, err
		}
		defer f.Close()
		full, err := trace.Read(f)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		train, test = full.TrainTest(trainFrac, rand.New(rand.NewSource(seed+2)))
		return train, test, nil, nil
	}
	s, err := trace.OpenColumnar(path)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	n := int(trainFrac * float64(s.Len()))
	if n < 1 {
		n = 1
	}
	txns := make([]trace.Txn, 0, n)
	for _, t := range s.All() {
		if len(txns) == n {
			break
		}
		txns = append(txns, t.Clone())
	}
	if err := s.Err(); err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return trace.FromTxns(txns), nil, s, nil
}

// routeStage builds a router for the solution and routes the test trace's
// invocations after its first skip, printing the local / multi-partition
// / broadcast mix. Each invocation is routed under its deterministic
// flight-recorder trace id (seed + arrival index, counted from the first
// routed one), so a -flight-dump of a plain run records the routing
// decision stream.
func routeStage(ctx context.Context, d *db.DB, sol *partition.Solution, b workloads.Benchmark, test trace.Workload, skip int, seed int64) error {
	var analyses []*sqlparse.Analysis
	for _, proc := range workloads.Procedures(b) {
		a, err := sqlparse.Analyze(proc, d.Schema())
		if err != nil {
			return fmt.Errorf("analyze %s: %w", proc.Name, err)
		}
		analyses = append(analyses, a)
	}
	rt, err := router.New(d, sol, analyses)
	if err != nil {
		return err
	}
	rec := obs.ContextRecorder(ctx)
	local, multi, broadcast := 0, 0, 0
	for i, t := range test.All() {
		if i -= skip; i < 0 {
			continue
		}
		dec, err := rt.Route(ctx, router.Request{Class: t.Class, Params: t.Params,
			TxnID: obs.TxnID(seed, i), VT: float64(i), Recorder: rec})
		if err != nil {
			return err
		}
		switch {
		case dec.Local():
			local++
		case len(dec.Partitions) >= sol.K:
			broadcast++
		default:
			multi++
		}
	}
	if n := test.Len() - skip; n > 0 {
		fmt.Printf("  router: %.1f%% single-partition, %.1f%% multi, %.1f%% broadcast (%d invocations)\n",
			100*float64(local)/float64(n), 100*float64(multi)/float64(n),
			100*float64(broadcast)/float64(n), n)
	}
	return nil
}

func effectiveScale(b workloads.Benchmark, scale int) int {
	if scale == 0 {
		return b.DefaultScale()
	}
	return scale
}

// printResources reports the partitioner's resource consumption: allocated
// MB, wall time, and OS-reported CPU time when available. It writes to
// stderr because these readings vary between runs, and stdout is
// byte-reproducible per seed.
func printResources(res eval.Resources) {
	if res.CPUKnown {
		fmt.Fprintf(os.Stderr, "  partitioner: %.0f MB allocated, %.2fs wall, %.2fs cpu\n",
			res.AllocMB(), res.Wall.Seconds(), res.CPU.Seconds())
		return
	}
	fmt.Fprintf(os.Stderr, "  partitioner: %.0f MB allocated, %.2fs wall (cpu time unavailable)\n",
		res.AllocMB(), res.Wall.Seconds())
}
