package sim

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/trace"
)

// Durable-mode registry metrics (see DESIGN.md, "Metric reference").
var (
	cDurableRuns       = obs.Default.Counter("sim.durable_runs")
	cDurableCommits    = obs.Default.Counter("sim.durable_committed")
	cDurableOracleFail = obs.Default.Counter("sim.durable_oracle_failures")
	hDurableLatency    = obs.Default.HDR("sim.durable_latency_ns")
)

// DurableConfig shapes the durable chaos replay: the chaos replay's
// scenario, seed and SLO evaluation plus the log directory and the
// checkpoint cadence.
type DurableConfig struct {
	ChaosConfig
	// WALDir holds the per-partition logs (required).
	WALDir string
	// CheckpointEvery is the number of applied commits a partition
	// accumulates between CHECKPOINT records (default
	// cluster.CheckpointEvery); see cluster.Member for when one is
	// skipped.
	CheckpointEvery int
}

// DurableResult is the outcome of one durable chaos replay plus the
// end-of-run crash recovery and consistency oracle. Every field is plain
// deterministic data — no wall-clock — so a (solution, trace, scenario,
// seed) quadruple marshals to byte-identical JSON across runs.
type DurableResult struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Nodes    int    `json:"nodes"`

	// Offered = Committed + PermanentFailures; Local/Distributed classify
	// the committed set.
	Offered           int `json:"offered"`
	Committed         int `json:"committed"`
	PermanentFailures int `json:"permanent_failures"`
	Local             int `json:"local"`
	Distributed       int `json:"distributed"`

	// Aborts counts aborted attempts; Retries the aborts that were
	// retried; AvailabilityPct is 100·committed/offered; MakespanSec the
	// virtual time of the last commit or give-up.
	Aborts          int     `json:"aborts"`
	Retries         int     `json:"retries"`
	AvailabilityPct float64 `json:"availability_pct"`
	MakespanSec     float64 `json:"makespan_sec"`

	// CrashedNodes lists nodes killed by crash points, ascending.
	// InDoubtParts lists partitions left holding a prepared-undecided
	// transaction when the run ended.
	CrashedNodes []int `json:"crashed_nodes,omitempty"`
	InDoubtParts []int `json:"in_doubt_parts,omitempty"`

	// WAL volume and checkpoint activity during the run.
	Checkpoints int   `json:"checkpoints"`
	WALBytes    int64 `json:"wal_bytes"`

	// Recovery outcome: every partition log replayed after the simulated
	// full-cluster crash at end of run.
	TornTails        int `json:"torn_tails"`
	InDoubtCommitted int `json:"in_doubt_committed"`
	InDoubtAborted   int `json:"in_doubt_aborted"`
	RecoveredCommits int `json:"recovered_commits"`

	// Latency quantiles (virtual seconds, HDR-accurate to 1.5625%) over
	// all transactions, permanent failures included.
	LatencyP50  float64 `json:"latency_p50_sec"`
	LatencyP99  float64 `json:"latency_p99_sec"`
	LatencyP999 float64 `json:"latency_p999_sec"`

	// SLO is the tumbling-window objective evaluation over the replay.
	SLO obs.SLOStatus `json:"slo"`

	// TableDigests is the recovered cluster state, one hex digest per
	// table; OracleOK reports whether it is byte-identical to a fault-free
	// re-execution of exactly the committed set.
	TableDigests map[string]string `json:"table_digests"`
	OracleOK     bool              `json:"oracle_ok"`
}

// String renders a one-line summary.
func (r *DurableResult) String() string {
	oracle := "CONSISTENT"
	if !r.OracleOK {
		oracle = "DIVERGED"
	}
	return fmt.Sprintf("durable %q seed=%d: %d/%d committed, %d aborts, "+
		"%d crashed nodes, %d torn tails, in-doubt %d→commit/%d→abort, "+
		"%d checkpoints, %d wal bytes, oracle %s",
		r.Scenario, r.Seed, r.Committed, r.Offered, r.Aborts,
		len(r.CrashedNodes), r.TornTails, r.InDoubtCommitted, r.InDoubtAborted,
		r.Checkpoints, r.WALBytes, oracle)
}

// durEngine is the durable replay's local-WAL cluster plus the node
// deaths its crash points script.
type durEngine struct {
	*cluster.LocalWAL
	dead faults.NodeSet
}

// crash realizes a fired crash point on this round's members: the node
// dies leaving the WAL shape of its phase. Before prepare, the
// participant's PREPARE is torn and everyone else aborts; before commit,
// the coordinator's COMMIT decision is torn; after the decision, it is
// durable but nobody heard it. After a coordinator crash every surviving
// participant holds the round in doubt.
func (e *durEngine) crash(fire *cluster.Crash, txn uint64, coord int, w *cluster.Writes) error {
	e.dead[fire.Node] = true
	if fire.Phase == faults.PhaseBeforePrepare {
		if err := e.Prepare(txn, coord, w, fire.Node); err != nil {
			return err
		}
		if err := e.Members[fire.Node].CrashInPrepare(txn, coord, w.At(fire.Node)); err != nil {
			return err
		}
		return e.Decide(txn, coord, w.Parts, false)
	}
	if err := e.Prepare(txn, coord, w, -1); err != nil {
		return err
	}
	if fire.Phase == faults.PhaseBeforeCommit {
		return e.Members[coord].CrashInCommit(txn)
	}
	return e.Members[coord].CrashAfterCommit(txn)
}

// RunDurable replays the trace through a real durable 2PC state
// machine: per-partition write-ahead logs under cfg.WALDir, periodic
// checkpoints, scripted mid-2PC crash points, and — after a simulated
// full-cluster crash at end of run — WAL recovery with presumed-abort
// resolution and a consistency oracle that re-executes exactly the
// committed set on fault-free stores and compares per-table digests. It
// runs under a phase span ("sim/durable").
func RunDurable(ctx context.Context, d *db.DB, sol *partition.Solution, tr *trace.Trace, cfg DurableConfig) (*DurableResult, error) {
	_, span := obs.StartSpan(ctx, "sim/durable")
	defer span.End()

	if cfg.Scenario == nil {
		return nil, fmt.Errorf("sim: nil scenario")
	}
	if cfg.WALDir == "" {
		return nil, fmt.Errorf("sim: WALDir required")
	}
	sc, seed, walDir := cfg.Scenario, cfg.Seed, cfg.WALDir
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
	rec := obs.ContextRecorder(ctx)
	l, err := cluster.NewLocalWAL(d.Schema(), sol.K, walDir, cluster.Cadence(cfg.CheckpointEvery), rec)
	if err != nil {
		return nil, err
	}
	eng := &durEngine{LocalWAL: l, dead: faults.NodeSet{}}
	defer eng.Close()
	crashes := cluster.NewCrashScript(sc.CrashPoints, cluster.TwoPCRules())
	var nextTxn uint64 // monotonically increasing per-attempt txn id
	t, err := cluster.Replay(ctx, tr, placed, cluster.ReplayConfig{
		Seed: seed, ArrivalRateTPS: cluster.ArrivalRate(tr.Len()), Retry: cluster.TxnRetry, Injector: inj,
		// Unreachable: scripted windows plus crash-point kills.
		Down:     func(n int, now float64) bool { return eng.dead[n] || inj.Down(n, now) },
		InDoubt:  func(p int) bool { return eng.Members[p].InDoubt() },
		Recorder: rec, SLO: obs.NewSLOMonitor(cfg.SLO), Latency: hDurableLatency, Journal: true,
	}, func(at *cluster.Attempt) (bool, error) {
		eng.At(at.TraceID, at.Num, at.Now)
		if at.Blocked {
			return false, nil
		}
		coord, w, parts := at.Coord, at.Writes, at.Writes.Parts
		lost := sampleLoss(inj, rec, at)
		if len(parts) == 0 {
			return !lost, nil
		}
		nextTxn++
		if lost {
			// The round reached prepare before the coordination message
			// was lost: a full logged abort.
			return false, eng.Abort2PC(nextTxn, coord, w)
		}
		// Crash points fire on rounds that would otherwise proceed.
		fire := crashes.Next(cluster.Round{Coord: coord, WriteParts: parts, Distributed: at.Distributed}, eng.dead.Down)
		if fire == nil {
			// Durable commit.
			if at.Distributed {
				return true, eng.Commit2PC(nextTxn, coord, w)
			}
			return true, eng.Members[parts[0]].CommitLocal(nextTxn, w.Of(0))
		}
		rec.Record(at.TraceID, obs.EvCrash, fire.Node, at.Num, at.Now, faults.PhaseCode(fire.Phase))
		// After the decision, it is durable: the transaction IS committed
		// even though no participant applied it — recovery replays it
		// from the prepared writes.
		return fire.Phase == faults.PhaseAfterDecision, eng.crash(fire, nextTxn, coord, w)
	})
	if err != nil {
		return nil, err
	}
	res := &DurableResult{
		Scenario: sc.Name, Seed: seed, Nodes: sol.K,
		Offered: t.Offered, Committed: t.Committed, PermanentFailures: t.PermanentFailures,
		Local: t.Local, Distributed: t.Distributed,
		Aborts: t.Aborts, Retries: t.Retries, AvailabilityPct: t.AvailabilityPct, MakespanSec: t.MakespanSec,
		LatencyP50: t.LatencyP50, LatencyP99: t.LatencyP99, LatencyP999: t.LatencyP999,
		SLO: t.SLO,
	}

	for n := 0; n < sol.K; n++ {
		if eng.dead[n] {
			res.CrashedNodes = append(res.CrashedNodes, n)
		}
		if eng.Members[n].InDoubt() {
			res.InDoubtParts = append(res.InDoubtParts, n)
		}
	}
	res.Checkpoints = eng.Checkpoints()
	res.WALBytes = eng.WALBytes()

	// End of run: the whole cluster crashes (in-memory state lost), then
	// recovery replays every partition log and the oracle checks it.
	eng.Close()
	rc, err := cluster.RecoverAndCheck(d.Schema(), walDir, sol.K, &t.Journal, rec, res.MakespanSec)
	if err != nil {
		return nil, err
	}
	res.TornTails, res.InDoubtCommitted, res.InDoubtAborted = rc.TornTails, rc.InDoubtCommitted, rc.InDoubtAborted
	res.RecoveredCommits, res.TableDigests, res.OracleOK = rc.RecoveredCommits, rc.TableDigests, rc.OracleOK

	cDurableRuns.Inc()
	cDurableCommits.Add(int64(res.Committed))
	if !res.OracleOK {
		cDurableOracleFail.Inc()
	}
	obs.Set("sim.durable_availability_pct", res.AvailabilityPct)
	obs.Set("sim.durable_wal_bytes", float64(res.WALBytes))
	return res, nil
}
