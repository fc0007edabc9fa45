package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/partition"
	"repro/internal/repl"
	"repro/internal/router"
	"repro/internal/sqlparse"
	"repro/internal/trace"
	"repro/internal/twopc"
	"repro/internal/workloads"
)

// Fixed settings of every workload (see NOTES.md).
const (
	partitions = 8   // K, the paper's Figure 7 setting
	trainFrac  = 0.5 // training share of the generated trace, as cmd/jecb
	datasets   = 3   // independent datasets per run, each set up once
	minRounds  = 2   // measured rounds per dataset, whatever --seconds says
	minPairs   = 1   // traced runs: untraced+traced round pairs per dataset
	replicas   = 2   // backups per group in the quorum replay
)

// workload is one benchmark input: a paper benchmark at a fixed size.
type workload struct {
	name   string // the benchmark's workloads registry name
	scale  int    // 0 = the benchmark's default scale
	txns   int    // generated trace length (train + test)
	window int    // transactions per commit window (head of the test trace)
}

var workloadTable = []workload{
	{name: "tpcc", txns: 20000, window: 3000},
	{name: "tpce", txns: 6000, window: 3000},
}

// quickTable scales each workload down for the harness smoke test.
var quickTable = map[string]workload{
	"tpcc": {name: "tpcc", scale: 4, txns: 1200, window: 200},
	"tpce": {name: "tpce", scale: 40, txns: 800, window: 200},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed     int64
	seconds  float64
	traced   bool
	workDir  string // scratch space for WAL directories
	spansOut string // traced runs write their spans here
	log      io.Writer
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) put(name, unit string, v float64) { m[name] = metric{v, unit} }

// result is the last line the benchmark prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runner holds one workload's state across the run.
type runner struct {
	w    workload
	cfg  runConfig
	b    workloads.Benchmark
	tr   *tracer
	none *faults.Scenario

	d           *db.DB
	procs       []*sqlparse.Procedure
	train, test *trace.Trace
	window      *trace.Trace

	// Per dataset: the warm-up solve, whose solution every later solve
	// must reproduce, and the test trace scored by the columnar evaluator.
	ref     *solveOut
	refJSON []byte
	dist    *eval.Result

	seed      int64     // the current dataset's workload seed
	refS      []float64 // reference times, one next to every timed sample
	walDir    string
	attempted int
	failed    int
}

// check counts one attempted operation and, when err is non-nil, one
// failure; failures are logged and the run goes on.
func (r *runner) check(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.cfg.log, "FAIL %s: %v\n", what, err)
		return false
	}
	return true
}

// run measures workload w on its datasets and returns the end-to-end
// metrics, or with cfg.traced the per-layer ones. An error means a set-up
// or warm-up failed; failed checks are counted in the result instead.
func run(w workload, cfg runConfig) (*result, error) {
	b, ok := workloads.Get(w.name)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", w.name)
	}
	none, err := faults.Builtin("none", partitions)
	if err != nil {
		return nil, err
	}
	walDir, err := os.MkdirTemp(cfg.workDir, "wal-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	for _, sub := range []string{"2pc", "repl", "append"} {
		if err := os.Mkdir(filepath.Join(walDir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	r := &runner{w: w, cfg: cfg, b: b, tr: newTracer(cfg.traced, w.name), none: none,
		procs: workloads.Procedures(b), walDir: walDir}
	fmt.Fprintf(cfg.log, "%s: seed %d, K=%d, GOMAXPROCS=%d, traced=%v\n",
		w.name, cfg.seed, partitions, runtime.GOMAXPROCS(0), cfg.traced)

	var sm samples
	measured := 0.0
	for ds := 0; ds < datasets; ds++ {
		r.seed = datasetSeed(cfg.seed, ds)
		setupS, err := r.setup()
		if err != nil {
			return nil, err
		}
		sm.setupS = append(sm.setupS, setupS)
		if err := r.warmUp(); err != nil {
			return nil, err
		}
		sm.distributed += r.dist.Distributed
		sm.tested += r.dist.Total
		fmt.Fprintf(cfg.log, "  dataset %d (seed %d): %d train / %d test txns, set-up %.3fs, %.2f%% distributed\n",
			ds, r.seed, r.train.Len(), r.test.Len(), setupS, 100*r.dist.Cost())
		// Each dataset gets an equal share of the measuring time.
		budget := cfg.seconds * float64(ds+1) / datasets
		least := minRounds
		if cfg.traced {
			least = minPairs
		}
		for i := 0; i < least || measured < budget; i++ {
			t0 := time.Now()
			if cfg.traced {
				r.tracedPair(&sm)
			} else {
				sm.add(r.round())
			}
			measured += time.Since(t0).Seconds()
		}
		sm.endDataset()
	}
	if cfg.traced {
		return r.layerMetrics(&sm)
	}
	rss, _ := eval.PeakRSS()
	// Host-speed scale (calib.go): times are multiplied by it, throughputs
	// divided.
	scale := refNominal / median(r.refS)
	fmt.Fprintf(cfg.log, "  raw per dataset: setup_s %.4g, solve_s %.4g, commit_tps %.5g, commit_quorum_tps %.5g; reference %.4gs, scale %.3f\n",
		sm.setupS, sm.solveS, sm.tps, sm.quorumTPS, median(r.refS), scale)
	return r.result(metrics{
		"setup_s":              {scale * median(sm.setupS), "s"},
		"solve_s":              {scale * median(sm.solveS), "s"},
		"peak_rss_mb":          {float64(rss) / (1 << 20), "MB"},
		"dist_txn_pct":         {100 * float64(sm.distributed) / float64(sm.tested), "%"},
		"commit_tps":           {median(sm.tps) / scale, "1/s"},
		"commit_quorum_tps":    {median(sm.quorumTPS) / scale, "1/s"},
		"wal_bytes_per_commit": {median(sm.walPerCommit), "B"},
	}), nil
}

// datasetSeed is the workload seed of dataset i of a run with seed s:
// datasets of different runs never share a seed.
func datasetSeed(s int64, i int) int64 { return s*datasets + int64(i) }

// samples gathers a run's measurements. Each end-to-end metric is the
// median over the datasets of one value per dataset — for the round
// metrics, the median of that dataset's rounds — so one dataset whose
// solution differs from the others' cannot move the run's number.
type samples struct {
	setupS, solveS, tps, quorumTPS, walPerCommit []float64 // one per dataset
	distributed, tested                          int       // summed over datasets

	// The current dataset's rounds.
	curSolve, curTPS, curQuorum []float64
	curWAL                      float64

	// Traced runs only.
	plainS, tracedS, routeNs []float64
	local, routed            int
	rounds                   []int // ids of the traced round spans
	last                     roundOut
}

// add records one round of the current dataset.
func (sm *samples) add(rd roundOut) {
	if rd.solve != nil {
		sm.curSolve = append(sm.curSolve, rd.solveS)
	}
	if res := rd.twopc; res != nil {
		sm.curTPS = append(sm.curTPS, float64(res.Committed)/rd.twopcS)
		sm.curWAL = float64(res.WALBytes) / float64(res.Committed)
	}
	if res := rd.quorum; res != nil {
		sm.curQuorum = append(sm.curQuorum, float64(res.Committed)/rd.quorumS)
	}
}

// endDataset reduces the current dataset's rounds to one value per metric.
func (sm *samples) endDataset() {
	sm.solveS = append(sm.solveS, median(sm.curSolve))
	sm.tps = append(sm.tps, median(sm.curTPS))
	sm.quorumTPS = append(sm.quorumTPS, median(sm.curQuorum))
	sm.walPerCommit = append(sm.walPerCommit, sm.curWAL)
	sm.curSolve, sm.curTPS, sm.curQuorum, sm.curWAL = nil, nil, nil, 0
}

func (r *runner) result(m metrics) *result {
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// setup loads the database, generates the trace and splits it from
// r.seed, exactly as cmd/jecb does, and returns the wall seconds the three
// calls took. The previous dataset is dropped and collected first.
func (r *runner) setup() (float64, error) {
	r.d, r.train, r.test, r.window = nil, nil, nil, nil
	var d *db.DB
	var train, test *trace.Trace
	var err error
	s := r.sample("setup", func() {
		id := r.tr.start("workloads.Load")
		d, err = r.b.Load(workloads.Config{Scale: r.w.scale, Seed: r.seed})
		r.tr.end(id)
		if err != nil {
			return
		}
		id = r.tr.start("workloads.GenerateTrace")
		full := workloads.GenerateTrace(r.b, d, r.w.txns, r.seed+1)
		r.tr.end(id)
		id = r.tr.start("trace.TrainTest")
		train, test = full.TrainTest(trainFrac, rand.New(rand.NewSource(r.seed+2)))
		r.tr.end(id)
	})
	if err != nil {
		return 0, fmt.Errorf("load %s: %w", r.w.name, err)
	}
	r.d, r.train, r.test = d, train, test
	r.window = test.Head(r.w.window)
	return s, nil
}

// sample times f as one end-to-end sample: the reference computation
// first (calib.go), then f inside a span called name after a forced
// collection. It returns f's wall seconds.
func (r *runner) sample(name string, f func()) float64 {
	r.refS = append(r.refS, reference())
	return r.timed(name, f)
}

// timed runs f inside a span called name, after a forced collection, and
// returns f's wall seconds.
func (r *runner) timed(name string, f func()) float64 {
	runtime.GC()
	id := r.tr.start(name)
	t0 := time.Now()
	f()
	s := time.Since(t0).Seconds()
	r.tr.end(id)
	return s
}

// solveOut is what one pass of the solve pipeline produced.
type solveOut struct {
	sol     *partition.Solution
	rep     *core.Report
	cost    float64 // eval.Evaluate's distributed share of the test trace
	routed  int
	local   int       // routed invocations that went to one partition
	routeNs []float64 // per-call Route times, traced runs only
}

// partition runs core.Partition on the training half.
func (r *runner) partition(parallelism int) (*partition.Solution, *core.Report, error) {
	sol, rep, err := core.Partition(context.Background(), core.Input{
		DB: r.d, Procedures: r.procs, Train: r.train, Test: r.test,
	}, core.Options{K: partitions, Seed: r.seed, Parallelism: parallelism})
	if err != nil {
		return nil, nil, fmt.Errorf("partition: %w", err)
	}
	return sol, rep, nil
}

// solve is the jecb default pipeline from a loaded trace to a routing
// table ready to deploy plus its quality report: partition the training
// half, evaluate on the test half, analyze the procedures, build the
// router and route every test transaction.
func (r *runner) solve() (*solveOut, error) {
	t := r.tr
	id := t.start("core.Partition")
	sol, rep, err := r.partition(0)
	t.end(id)
	if err != nil {
		return nil, err
	}
	out := &solveOut{sol: sol, rep: rep}
	id = t.start("eval.Evaluate")
	res, err := eval.Evaluate(r.d, sol, r.test)
	t.end(id)
	if err != nil {
		return nil, fmt.Errorf("evaluate: %w", err)
	}
	out.cost = res.Cost()
	id = t.start("sqlparse.Analyze")
	analyses, err := r.analyze()
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.start("router.New")
	rt, err := router.New(r.d, sol, analyses)
	t.end(id)
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	if t.on {
		out.routeNs = make([]float64, 0, r.test.Len())
	}
	ctx := context.Background()
	id = t.start("router.Route")
	for _, txn := range r.test.All() {
		var t0 time.Time
		if t.on {
			t0 = time.Now()
		}
		dec, err := rt.Route(ctx, router.Request{Class: txn.Class, Params: txn.Params})
		if t.on {
			out.routeNs = append(out.routeNs, float64(time.Since(t0).Nanoseconds()))
		}
		if err != nil {
			t.end(id)
			return nil, fmt.Errorf("route %s: %w", txn.Class, err)
		}
		out.routed++
		if dec.Local() {
			out.local++
		}
	}
	t.end(id)
	return out, nil
}

func (r *runner) analyze() ([]*sqlparse.Analysis, error) {
	out := make([]*sqlparse.Analysis, 0, len(r.procs))
	for _, p := range r.procs {
		a, err := sqlparse.Analyze(p, r.d.Schema())
		if err != nil {
			return nil, fmt.Errorf("analyze %s: %w", p.Name, err)
		}
		out = append(out, a)
	}
	return out, nil
}

// warmUp runs the solve pipeline once, untimed: it fills caches, fixes the
// reference solution every later repetition must reproduce byte for byte,
// and measures dist_txn_pct with the columnar evaluator, a second
// implementation that eval.Evaluate's cost must agree with.
func (r *runner) warmUp() error {
	on := r.tr.on
	r.tr.on = false
	out, err := r.solve()
	r.tr.on = on
	if !r.check("warm-up solve", err) {
		return err
	}
	r.ref = out
	if r.refJSON, err = json.Marshal(out.sol); err != nil {
		return err
	}
	a, err := eval.NewAssigner(r.d, out.sol)
	if err != nil {
		return err
	}
	res := a.EvaluateColumnar(trace.Columnarize(r.test))
	if res.Total != r.test.Len() || res.Total == 0 {
		return fmt.Errorf("columnar evaluation scored %d of %d test transactions", res.Total, r.test.Len())
	}
	r.dist = res
	return r.checkSolve(out)
}

// checkSolve applies the solve checks: the solution is byte-identical to
// the reference (the determinism contract) and eval.Evaluate's cost
// reproduces dist_txn_pct.
func (r *runner) checkSolve(out *solveOut) error {
	if err := r.sameAsReference(out.sol); err != nil {
		return err
	}
	if math.Abs(out.cost-r.dist.Cost()) > 1e-12 {
		return fmt.Errorf("evaluate cost %.6f does not reproduce the columnar cost %.6f", out.cost, r.dist.Cost())
	}
	return nil
}

// sameAsReference checks that sol's canonical JSON is byte-identical to
// the reference solution's.
func (r *runner) sameAsReference(sol *partition.Solution) error {
	data, err := json.Marshal(sol)
	if err != nil {
		return err
	}
	if !bytes.Equal(data, r.refJSON) {
		return fmt.Errorf("solution differs from the reference solution")
	}
	return nil
}

// roundOut is one measured round: each part is nil when it failed.
type roundOut struct {
	solve   *solveOut
	solveS  float64
	twopc   *twopc.Result
	twopcS  float64
	quorum  *repl.Result
	quorumS float64
}

// round times one solve pass, one 2PC commit window and one quorum commit
// window, each as a sample, and checks each outcome.
func (r *runner) round() roundOut {
	var rd roundOut
	var out *solveOut
	var err error
	s := r.sample("solve", func() { out, err = r.solve() })
	if err == nil {
		err = r.checkSolve(out)
	}
	if r.check("solve", err) {
		rd.solve, rd.solveS = out, s
	}
	if res, s, err := r.commit2PC(); r.check("2PC window", err) {
		rd.twopc, rd.twopcS = res, s
	}
	if res, s, err := r.commitQuorum(); r.check("quorum window", err) {
		rd.quorum, rd.quorumS = res, s
	}
	return rd
}

// commit2PC replays the commit window through twopc.Run over the
// in-process bus with no faults: one closed-loop client (the replay
// driver) and K participant goroutines.
func (r *runner) commit2PC() (*twopc.Result, float64, error) {
	var res *twopc.Result
	var err error
	s := r.sample("twopc.Run", func() {
		res, err = twopc.Run(context.Background(), r.d, r.ref.sol, r.window,
			twopc.Config{Scenario: r.none, Seed: r.seed, WALDir: filepath.Join(r.walDir, "2pc")})
	})
	switch {
	case err != nil:
		return nil, 0, err
	case !res.OracleOK:
		return nil, 0, fmt.Errorf("consistency oracle diverged")
	case res.Committed != res.Offered:
		return nil, 0, fmt.Errorf("committed %d of %d offered", res.Committed, res.Offered)
	}
	return res, s, nil
}

// commitQuorum replays the same window through repl.Run: every partition
// is a primary with two backups and a commit waits for a majority.
func (r *runner) commitQuorum() (*repl.Result, float64, error) {
	var res *repl.Result
	var err error
	s := r.sample("repl.Run", func() {
		res, err = repl.Run(context.Background(), r.d, r.ref.sol, r.window, repl.Config{
			Scenario: r.none, Seed: r.seed, WALDir: filepath.Join(r.walDir, "repl"),
			Replicas: replicas, CommitRule: repl.RuleQuorum,
		})
	})
	switch {
	case err != nil:
		return nil, 0, err
	case !res.OracleOK:
		return nil, 0, fmt.Errorf("consistency oracle diverged")
	case res.Committed != res.Offered:
		return nil, 0, fmt.Errorf("committed %d of %d offered", res.Committed, res.Offered)
	case res.LostCommits != 0:
		return nil, 0, fmt.Errorf("%d acknowledged commits lost", res.LostCommits)
	}
	return res, s, nil
}
