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
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Durable-mode registry metrics (see DESIGN.md, "Metric reference").
var (
	cDurableRuns       = obs.Default.Counter("sim.durable_runs")
	cDurableCommits    = obs.Default.Counter("sim.durable_committed")
	cDurableOracleFail = obs.Default.Counter("sim.durable_oracle_failures")
	hDurableLatency    = obs.Default.HDR("sim.durable_latency_ns")
)

// DurableConfig shapes the durable chaos replay: the analytic chaos
// parameters plus the checkpoint cadence.
type DurableConfig struct {
	ChaosConfig
	// CheckpointEvery is the number of applied commits a partition
	// accumulates between CHECKPOINT records (default 64). Checkpoints are
	// skipped while a partition holds an in-doubt transaction — snapshots
	// must never swallow a pending PREPARE.
	CheckpointEvery int
}

func (c DurableConfig) withDefaults(traceLen int) DurableConfig {
	c.ChaosConfig = c.ChaosConfig.withDefaults(traceLen)
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 64
	}
	return c
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

// durEngine is the durable replay's local-WAL cluster plus what only the
// replay scripts: node deaths, the in-doubt blocks a mid-2PC crash
// leaves behind, and the checkpoint cadence.
type durEngine struct {
	*cluster.LocalWAL
	dead         faults.NodeSet
	inDoubt      faults.NodeSet
	commitsSince []int
	ckptEvery    int
	checkpoints  int
}

func newDurEngine(sc *schema.Schema, k int, dir string, ckptEvery int, rec *obs.Recorder) (*durEngine, error) {
	l, err := cluster.NewLocalWAL(sc, k, dir, rec)
	if err != nil {
		return nil, err
	}
	e := &durEngine{
		LocalWAL:     l,
		dead:         faults.NodeSet{},
		inDoubt:      faults.NodeSet{},
		commitsSince: make([]int, k),
		ckptEvery:    ckptEvery,
	}
	l.AfterApply = e.maybeCheckpoint
	return e, nil
}

// kill marks a node dead and closes its log: nothing is ever appended to
// it again, and its in-memory store is lost (recovery rebuilds it).
func (e *durEngine) kill(n int) {
	if e.dead[n] {
		return
	}
	e.dead[n] = true
	e.CloseLog(n)
}

// maybeCheckpoint counts an applied commit toward partition p's cadence
// and snapshots p when it is due. Partitions holding an in-doubt
// transaction never checkpoint: a snapshot must not bury a pending
// PREPARE that resolution still needs to replay.
func (e *durEngine) maybeCheckpoint(p int) error {
	e.commitsSince[p]++
	if e.commitsSince[p] < e.ckptEvery || e.inDoubt[p] || e.dead[p] {
		return nil
	}
	if err := wal.WriteCheckpoint(e.Logs[p], e.Stores[p]); err != nil {
		return err
	}
	e.Record(obs.EvCheckpoint, p, int64(e.ckptEvery))
	e.commitsSince[p] = 0
	e.checkpoints++
	return nil
}

// crashBeforePrepare kills the scripted participant mid-append of its
// PREPARE record (torn tail); the coordinator aborts the round and the
// survivors log the abort decision.
func (e *durEngine) crashBeforePrepare(node int, txn uint64, coord int, parts []int, opsAt map[int][]db.Op) error {
	if err := e.Prepare(txn, coord, parts, opsAt, node); err != nil {
		return err
	}
	if err := e.Logs[node].AppendTxn(txn, opsAt[node], 0, nil); err != nil {
		return err
	}
	if err := e.Logs[node].AppendTorn(wal.RecPrepare, txn, cluster.CoordPayload(coord), 3); err != nil {
		return err
	}
	e.kill(node)
	if !e.dead[coord] {
		if err := e.Logs[coord].Append(wal.RecAbort, txn, nil); err != nil {
			return err
		}
	}
	for _, p := range parts {
		if p == node || p == coord || e.dead[p] {
			continue
		}
		if err := e.Logs[p].Append(wal.RecAbort, txn, nil); err != nil {
			return err
		}
	}
	return nil
}

// crashBeforeCommit kills the coordinator after every participant
// prepared but before the decision is durable (the decision record is
// torn). Every surviving participant is left in doubt; presumed abort
// resolves the transaction as aborted at recovery.
func (e *durEngine) crashBeforeCommit(txn uint64, coord int, parts []int, opsAt map[int][]db.Op) error {
	if err := e.Prepare(txn, coord, parts, opsAt, -1); err != nil {
		return err
	}
	if err := e.Logs[coord].AppendTorn(wal.RecCommit, txn, nil, 5); err != nil {
		return err
	}
	e.kill(coord)
	for _, p := range parts {
		if p != coord {
			e.inDoubt[p] = true
		}
	}
	return nil
}

// crashAfterDecision kills the coordinator after the COMMIT decision is
// durable but before any participant hears it: the transaction IS
// committed, the survivors are in doubt, and recovery replays their
// prepared writes from the coordinator's logged decision.
func (e *durEngine) crashAfterDecision(txn uint64, coord int, parts []int, opsAt map[int][]db.Op) error {
	if err := e.Prepare(txn, coord, parts, opsAt, -1); err != nil {
		return err
	}
	if err := e.Logs[coord].Append(wal.RecCommit, txn, nil); err != nil {
		return err
	}
	e.kill(coord)
	for _, p := range parts {
		if p != coord {
			e.inDoubt[p] = true
		}
	}
	return nil
}

// runChaosDurable replays the trace through a real durable 2PC state
// machine: per-partition write-ahead logs under walDir, periodic
// checkpoints, scripted mid-2PC crash points, and — after a simulated
// full-cluster crash at end of run — WAL recovery with presumed-abort
// resolution and a consistency oracle that re-executes exactly the
// committed set on fault-free stores and compares per-table digests. It
// is the engine behind New(Scenario{Mode: ModeDurable, ...}).Run(ctx)
// and runs under a phase span ("sim/durable").
func runChaosDurable(ctx context.Context, d *db.DB, sol *partition.Solution, tr *trace.Trace,
	cfg DurableConfig, sc *faults.Scenario, seed int64, walDir string) (*DurableResult, error) {
	_, span := obs.StartSpan(ctx, "sim/durable")
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
	rec := cfg.Recorder
	eng, err := newDurEngine(d.Schema(), sol.K, walDir, cfg.CheckpointEvery, rec)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	slo := obs.NewSLOMonitor(cfg.SLO)
	var allLat obs.HDR // per-run latencies, virtual nanoseconds

	crashes := cluster.NewCrashScript(sc.CrashPoints, cluster.TwoPCRules())

	res := &DurableResult{
		Scenario: sc.Name,
		Seed:     seed,
		Nodes:    sol.K,
		Offered:  tr.Len(),
	}
	// down reports unreachability: scripted windows plus crash-point kills.
	dead := func(n int) bool { return eng.dead[n] }
	down := func(n int, now float64) bool { return eng.dead[n] || inj.Down(n, now) }
	upNodes := func(now float64) []int {
		var up []int
		for n := 0; n < sol.K; n++ {
			if !down(n, now) {
				up = append(up, n)
			}
		}
		return up
	}

	var nextTxn uint64                  // monotonically increasing per-attempt txn id
	var committedOps [][]cluster.PartOp // committed write effects, in commit order
	for i, t := range tr.All() {
		arrival := float64(i) / cfg.ArrivalRateTPS
		nodes, coord, distributed := cluster.Participants(a, t, sol.K, i)
		traceID := obs.TxnID(seed, i)
		rec.Record(traceID, obs.EvBegin, -1, 0, arrival, int64(len(nodes)))
		dist := int64(0)
		if distributed {
			dist = 1
		}
		rec.Record(traceID, obs.EvRoute, coord, 0, arrival, int64(len(nodes))<<8|dist)

		now := arrival
		committed := false
		for attempt := 1; attempt <= cfg.Retry.MaxAttempts; attempt++ {
			now += inj.SampleLatency()
			eng.At(traceID, attempt, now)
			execNodes, execCoord := nodes, coord
			if len(nodes) == 0 {
				// Fully-replicated read: degrade to any reachable node.
				if up := upNodes(now); len(up) > 0 {
					execCoord = up[i%len(up)]
					execNodes = []int{execCoord}
				} else {
					execNodes, execCoord = []int{coord}, coord
				}
			}
			writeParts, opsAt := cluster.WriteEffects(a, t, sol.K, execCoord)

			blocked := false
			for _, n := range execNodes {
				if down(n, now) {
					blocked = true
					rec.Record(traceID, obs.EvFault, n, attempt, now, obs.FaultNodeDown)
					break
				}
			}
			// A partition holding an in-doubt transaction blocks new
			// writes (its keys are conservatively locked until
			// resolution); reads degrade through.
			if !blocked {
				for _, p := range writeParts {
					if eng.inDoubt[p] {
						blocked = true
						rec.Record(traceID, obs.EvFault, p, attempt, now, obs.FaultInDoubtBlock)
						break
					}
				}
			}
			lost := false
			if !blocked && distributed {
				lost = inj.SampleLoss()
				if lost {
					rec.Record(traceID, obs.EvFault, execCoord, attempt, now, obs.FaultMsgLoss)
				}
			}

			// Crash points fire on rounds that would otherwise proceed.
			var fire *cluster.Crash
			if !blocked && !lost && len(writeParts) > 0 {
				fire = crashes.Next(cluster.Round{Coord: execCoord, WriteParts: writeParts, Distributed: distributed}, dead)
			}

			switch {
			case fire != nil:
				nextTxn++
				rec.Record(traceID, obs.EvCrash, fire.Node, attempt, now, faults.PhaseCode(fire.Phase))
				switch fire.Phase {
				case faults.PhaseBeforePrepare:
					if err := eng.crashBeforePrepare(fire.Node, nextTxn, execCoord, writeParts, opsAt); err != nil {
						return nil, err
					}
				case faults.PhaseBeforeCommit:
					if err := eng.crashBeforeCommit(nextTxn, execCoord, writeParts, opsAt); err != nil {
						return nil, err
					}
				case faults.PhaseAfterDecision:
					if err := eng.crashAfterDecision(nextTxn, execCoord, writeParts, opsAt); err != nil {
						return nil, err
					}
					// The decision is durable: the transaction IS
					// committed even though no participant applied it —
					// recovery replays it from the prepared writes.
					committed = true
					res.Committed++
					res.Distributed++
					committedOps = append(committedOps, cluster.FlattenOps(writeParts, opsAt))
					if now > res.MakespanSec {
						res.MakespanSec = now
					}
				}
			case !blocked && !lost:
				// Durable commit.
				if len(writeParts) > 0 {
					nextTxn++
					if !distributed {
						if err := eng.CommitLocal(writeParts[0], nextTxn, opsAt[writeParts[0]]); err != nil {
							return nil, err
						}
					} else if err := eng.Commit2PC(nextTxn, execCoord, writeParts, opsAt); err != nil {
						return nil, err
					}
					committedOps = append(committedOps, cluster.FlattenOps(writeParts, opsAt))
				}
				committed = true
				res.Committed++
				if distributed {
					res.Distributed++
				} else {
					res.Local++
				}
				if now > res.MakespanSec {
					res.MakespanSec = now
				}
			case lost && len(writeParts) > 0:
				// The round reached prepare before the coordination
				// message was lost: a full logged abort.
				nextTxn++
				if err := eng.Abort2PC(nextTxn, execCoord, writeParts, opsAt); err != nil {
					return nil, err
				}
			}
			if committed {
				latency := now - arrival
				allLat.Observe(int64(latency * 1e9))
				hDurableLatency.Observe(int64(latency * 1e9))
				slo.Record(latency, true)
				rec.Record(traceID, obs.EvCommit, execCoord, attempt, now, int64(latency*1e9))
				break
			}
			res.Aborts++
			rec.Record(traceID, obs.EvAbort, execCoord, attempt, now, 0)
			if attempt == cfg.Retry.MaxAttempts {
				break
			}
			res.Retries++
			backoff := cfg.Retry.Backoff(attempt, inj)
			rec.Record(traceID, obs.EvBackoff, -1, attempt, now, int64(backoff*1e9))
			now += backoff
		}
		if !committed {
			res.PermanentFailures++
			latency := now - arrival
			allLat.Observe(int64(latency * 1e9))
			hDurableLatency.Observe(int64(latency * 1e9))
			slo.Record(latency, false)
			rec.Record(traceID, obs.EvGiveUp, -1, cfg.Retry.MaxAttempts, now, int64(latency*1e9))
			if now > res.MakespanSec {
				res.MakespanSec = now
			}
		}
	}

	slo.Flush()
	res.SLO = slo.Status()
	latSnap := allLat.Snapshot()
	res.LatencyP50 = float64(latSnap.P50) / 1e9
	res.LatencyP99 = float64(latSnap.P99) / 1e9
	res.LatencyP999 = float64(latSnap.P999) / 1e9

	if res.Offered > 0 {
		res.AvailabilityPct = 100 * float64(res.Committed) / float64(res.Offered)
	}
	for n := 0; n < sol.K; n++ {
		if eng.dead[n] {
			res.CrashedNodes = append(res.CrashedNodes, n)
		}
		if eng.inDoubt[n] {
			res.InDoubtParts = append(res.InDoubtParts, n)
		}
	}
	res.Checkpoints = eng.checkpoints
	res.WALBytes = eng.WALBytes()

	// End of run: the whole cluster crashes (in-memory state lost), then
	// recovery replays every partition log and the oracle checks it.
	eng.Close()
	rc, err := cluster.RecoverAndCheck(d.Schema(), walDir, sol.K, committedOps, rec, res.MakespanSec)
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
