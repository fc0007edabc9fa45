package sim

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

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

// partOp is one durable write effect routed to a partition.
type partOp struct {
	part int
	op   db.Op
}

// durEngine owns the per-partition durable state of one replay: stores,
// logs, liveness, and the in-doubt blocks a mid-2PC crash leaves behind.
type durEngine struct {
	k            int
	stores       []*db.DB
	logs         []*wal.Log
	dead         faults.NodeSet
	inDoubt      faults.NodeSet
	commitsSince []int
	ckptEvery    int
	checkpoints  int

	// Flight-recorder context: rec is nil when tracing is off; curTrace,
	// curAttempt and curVT name the transaction currently driving the
	// engine so WAL observers and 2PC phases can stamp their events.
	rec        *obs.Recorder
	curTrace   uint64
	curAttempt int
	curVT      float64
}

func newDurEngine(sc *schema.Schema, k int, dir string, ckptEvery int, rec *obs.Recorder) (*durEngine, error) {
	e := &durEngine{
		k:            k,
		stores:       make([]*db.DB, k),
		logs:         make([]*wal.Log, k),
		dead:         faults.NodeSet{},
		inDoubt:      faults.NodeSet{},
		commitsSince: make([]int, k),
		ckptEvery:    ckptEvery,
		rec:          rec,
	}
	for p := 0; p < k; p++ {
		e.stores[p] = db.New(sc)
		l, err := wal.Create(wal.PartitionLogPath(dir, p))
		if err != nil {
			e.closeAll()
			return nil, err
		}
		e.logs[p] = l
		if rec != nil {
			p := p
			l.SetObserver(func(typ wal.RecType, _ uint64, frameBytes int) {
				e.rec.Record(e.curTrace, obs.EvWALAppend, p, e.curAttempt, e.curVT,
					int64(frameBytes)<<8|int64(typ))
			})
		}
	}
	return e, nil
}

// record emits one flight-recorder event under the engine's current
// transaction context (no-op when tracing is off).
func (e *durEngine) record(kind obs.EventKind, node int, arg int64) {
	e.rec.Record(e.curTrace, kind, node, e.curAttempt, e.curVT, arg)
}

// kill marks a node dead and closes its log: nothing is ever appended to
// it again, and its in-memory store is lost (recovery rebuilds it).
func (e *durEngine) kill(n int) {
	if e.dead[n] {
		return
	}
	e.dead[n] = true
	if e.logs[n] != nil {
		e.logs[n].Close()
		e.logs[n] = nil
	}
}

// closeAll simulates the end-of-run full-cluster crash: every log is
// closed; in-memory stores are discarded.
func (e *durEngine) closeAll() {
	for p, l := range e.logs {
		if l != nil {
			l.Close()
			e.logs[p] = nil
		}
	}
}

// walBytes totals the durable log length across live partitions.
func (e *durEngine) walBytes() int64 {
	var n int64
	for _, l := range e.logs {
		if l != nil {
			n += l.Bytes()
		}
	}
	return n
}

// apply commits ops on partition p's store atomically and counts toward
// the checkpoint cadence.
func (e *durEngine) apply(p int, ops []db.Op) error {
	if err := e.stores[p].CommitOps(ops); err != nil {
		return err
	}
	e.commitsSince[p]++
	return e.maybeCheckpoint(p)
}

// maybeCheckpoint snapshots partition p when its commit cadence is due.
// Partitions holding an in-doubt transaction never checkpoint: a snapshot
// must not bury a pending PREPARE that resolution still needs to replay.
func (e *durEngine) maybeCheckpoint(p int) error {
	if e.commitsSince[p] < e.ckptEvery || e.inDoubt[p] || e.dead[p] {
		return nil
	}
	if err := wal.WriteCheckpoint(e.logs[p], e.stores[p]); err != nil {
		return err
	}
	e.record(obs.EvCheckpoint, p, int64(e.ckptEvery))
	e.commitsSince[p] = 0
	e.checkpoints++
	return nil
}

// commitLocal runs the single-partition commit path: BEGIN/WRITE*/COMMIT
// on one log in one write, then the store apply.
func (e *durEngine) commitLocal(p int, txn uint64, ops []db.Op) error {
	if err := e.logs[p].AppendTxn(txn, ops, wal.RecCommit, nil); err != nil {
		return err
	}
	return e.apply(p, ops)
}

// coordPayload encodes the PREPARE payload naming the coordinator.
func coordPayload(coord int) []byte {
	return binary.AppendUvarint(nil, uint64(coord))
}

// prepareAll stages and prepares txn on every write participant (the
// first phase of 2PC). skip < 0 prepares everyone.
func (e *durEngine) prepareAll(txn uint64, coord int, parts []int, opsAt map[int][]db.Op, skip int) error {
	for _, p := range parts {
		if p == skip {
			continue
		}
		if err := e.logs[p].AppendTxn(txn, opsAt[p], wal.RecPrepare, coordPayload(coord)); err != nil {
			return err
		}
		e.record(obs.EvPrepare, p, 0)
	}
	return nil
}

// commit2PC runs the full two-phase commit: every write participant
// prepares, the coordinator durably logs the COMMIT decision, then each
// participant commits and applies. The coordinator's decision record
// doubles as its own participant commit.
func (e *durEngine) commit2PC(txn uint64, coord int, parts []int, opsAt map[int][]db.Op) error {
	if err := e.prepareAll(txn, coord, parts, opsAt, -1); err != nil {
		return err
	}
	if err := e.logs[coord].Append(wal.RecCommit, txn, nil); err != nil {
		return err
	}
	for _, p := range parts {
		if p != coord {
			if err := e.logs[p].Append(wal.RecCommit, txn, nil); err != nil {
				return err
			}
		}
		if err := e.apply(p, opsAt[p]); err != nil {
			return err
		}
	}
	return nil
}

// abort2PC runs a 2PC round that reaches prepare and then aborts (a lost
// coordination message): participants prepare, the coordinator logs the
// ABORT decision, participants abort. Stores are untouched — the
// regression the digest oracle pins.
func (e *durEngine) abort2PC(txn uint64, coord int, parts []int, opsAt map[int][]db.Op) error {
	if err := e.prepareAll(txn, coord, parts, opsAt, -1); err != nil {
		return err
	}
	if err := e.logs[coord].Append(wal.RecAbort, txn, nil); err != nil {
		return err
	}
	for _, p := range parts {
		if p == coord {
			continue
		}
		if err := e.logs[p].Append(wal.RecAbort, txn, nil); err != nil {
			return err
		}
	}
	return nil
}

// crashBeforePrepare kills the scripted participant mid-append of its
// PREPARE record (torn tail); the coordinator aborts the round and the
// survivors log the abort decision.
func (e *durEngine) crashBeforePrepare(node int, txn uint64, coord int, parts []int, opsAt map[int][]db.Op) error {
	if err := e.prepareAll(txn, coord, parts, opsAt, node); err != nil {
		return err
	}
	if err := e.logs[node].AppendTxn(txn, opsAt[node], 0, nil); err != nil {
		return err
	}
	if err := e.logs[node].AppendTorn(wal.RecPrepare, txn, coordPayload(coord), 3); err != nil {
		return err
	}
	e.kill(node)
	if !e.dead[coord] {
		if err := e.logs[coord].Append(wal.RecAbort, txn, nil); err != nil {
			return err
		}
	}
	for _, p := range parts {
		if p == node || p == coord || e.dead[p] {
			continue
		}
		if err := e.logs[p].Append(wal.RecAbort, txn, nil); err != nil {
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
	if err := e.prepareAll(txn, coord, parts, opsAt, -1); err != nil {
		return err
	}
	if err := e.logs[coord].AppendTorn(wal.RecCommit, txn, nil, 5); err != nil {
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
	if err := e.prepareAll(txn, coord, parts, opsAt, -1); err != nil {
		return err
	}
	if err := e.logs[coord].Append(wal.RecCommit, txn, nil); err != nil {
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

// hasPart reports membership in a sorted partition list.
func hasPart(parts []int, n int) bool {
	for _, p := range parts {
		if p == n {
			return true
		}
	}
	return false
}

// writeEffects routes a transaction's writes to owning partitions as
// touch ops: placed keys go to their partition, replicated-table writes
// fan out to every partition, unplaceable keys execute at the
// coordinator. The returned partition list is sorted.
func writeEffects(a *eval.Assigner, t *trace.Txn, k, coord int) ([]int, map[int][]db.Op) {
	opsAt := map[int][]db.Op{}
	add := func(p int, acc trace.Access) {
		opsAt[p] = append(opsAt[p], db.Op{Kind: db.OpTouch, Table: acc.Table, Key: acc.Key})
	}
	for _, acc := range t.Accesses {
		if !acc.Write {
			continue
		}
		p, ok := a.PlaceKey(acc)
		switch {
		case !ok:
			add(coord, acc)
		case p == partition.Replicated:
			for n := 0; n < k; n++ {
				add(n, acc)
			}
		default:
			add(p, acc)
		}
	}
	parts := make([]int, 0, len(opsAt))
	for p := range opsAt {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	return parts, opsAt
}

// cpState tracks one scripted crash point's qualifying-round counter.
type cpState struct {
	cp    faults.CrashPoint
	count int
	fired bool
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
	if err := wal.RemoveLogs(walDir); err != nil {
		return nil, err
	}
	rec := cfg.Recorder
	eng, err := newDurEngine(d.Schema(), sol.K, walDir, cfg.CheckpointEvery, rec)
	if err != nil {
		return nil, err
	}
	defer eng.closeAll()
	slo := obs.NewSLOMonitor(cfg.SLO)
	var allLat obs.HDR // per-run latencies, virtual nanoseconds

	cps := make([]cpState, len(sc.CrashPoints))
	for i, cp := range sc.CrashPoints {
		cps[i] = cpState{cp: cp}
	}

	res := &DurableResult{
		Scenario: sc.Name,
		Seed:     seed,
		Nodes:    sol.K,
		Offered:  tr.Len(),
	}
	// down reports unreachability: scripted windows plus crash-point kills.
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

	var nextTxn uint64          // monotonically increasing per-attempt txn id
	var committedOps [][]partOp // committed write effects, in commit order
	for i, t := range tr.All() {
		arrival := float64(i) / cfg.ArrivalRateTPS
		nodes, coord, distributed := participants(a, t, sol.K, i)
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
			eng.curTrace, eng.curAttempt, eng.curVT = traceID, attempt, now
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
			writeParts, opsAt := writeEffects(a, t, sol.K, execCoord)

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
			var fire *cpState
			if !blocked && !lost && distributed && len(writeParts) > 0 {
				for idx := range cps {
					s := &cps[idx]
					if s.fired || eng.dead[s.cp.Node] {
						continue
					}
					qualifies := false
					switch s.cp.Phase {
					case faults.PhaseBeforePrepare:
						qualifies = s.cp.Node != execCoord && hasPart(writeParts, s.cp.Node)
					case faults.PhaseBeforeCommit, faults.PhaseAfterDecision:
						qualifies = s.cp.Node == execCoord
					}
					if !qualifies {
						continue
					}
					s.count++
					if fire == nil && s.count >= s.cp.Seq {
						s.fired = true
						fire = s
					}
				}
			}

			switch {
			case fire != nil:
				nextTxn++
				rec.Record(traceID, obs.EvCrash, fire.cp.Node, attempt, now, crashPhaseCode(fire.cp.Phase))
				switch fire.cp.Phase {
				case faults.PhaseBeforePrepare:
					if err := eng.crashBeforePrepare(fire.cp.Node, nextTxn, execCoord, writeParts, opsAt); err != nil {
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
					committedOps = append(committedOps, flattenOps(writeParts, opsAt))
					if now > res.MakespanSec {
						res.MakespanSec = now
					}
				}
			case !blocked && !lost:
				// Durable commit.
				if len(writeParts) > 0 {
					nextTxn++
					if !distributed {
						if err := eng.commitLocal(writeParts[0], nextTxn, opsAt[writeParts[0]]); err != nil {
							return nil, err
						}
					} else if err := eng.commit2PC(nextTxn, execCoord, writeParts, opsAt); err != nil {
						return nil, err
					}
					committedOps = append(committedOps, flattenOps(writeParts, opsAt))
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
				if err := eng.abort2PC(nextTxn, execCoord, writeParts, opsAt); err != nil {
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
	res.WALBytes = eng.walBytes()

	// End of run: the whole cluster crashes (in-memory state lost), then
	// recovery replays every partition log and resolves in-doubt
	// transactions with the presumed-abort rule.
	eng.closeAll()
	cr, err := wal.RecoverDir(d.Schema(), walDir)
	if err != nil {
		return nil, err
	}
	res.TornTails = cr.TornTails
	res.InDoubtCommitted = cr.InDoubtCommitted
	res.InDoubtAborted = cr.InDoubtAborted
	partIDs := make([]int, 0, len(cr.Parts))
	for p := range cr.Parts {
		partIDs = append(partIDs, p)
	}
	sort.Ints(partIDs)
	for _, p := range partIDs {
		res.RecoveredCommits += len(cr.Parts[p].Committed)
		// Run-level recovery events (txn 0): one per partition, in
		// partition order so dumps stay deterministic.
		rec.Record(0, obs.EvRecover, p, 0, res.MakespanSec, int64(len(cr.Parts[p].Committed)))
	}

	// Consistency oracle: re-execute exactly the committed set on
	// fault-free stores and compare combined per-table digests with the
	// recovered cluster.
	oracle := make([]*db.DB, sol.K)
	for p := range oracle {
		oracle[p] = db.New(d.Schema())
	}
	for _, ops := range committedOps {
		for _, po := range ops {
			if err := oracle[po.part].Apply(po.op); err != nil {
				return nil, fmt.Errorf("sim: oracle replay: %w", err)
			}
		}
	}
	want := wal.CombineDigests(oracle)
	got := cr.TableDigests()
	res.OracleOK = len(want) == len(got)
	res.TableDigests = make(map[string]string, len(got))
	for name, dg := range got {
		res.TableDigests[name] = fmt.Sprintf("%016x", dg)
		if want[name] != dg {
			res.OracleOK = false
		}
	}

	cDurableRuns.Inc()
	cDurableCommits.Add(int64(res.Committed))
	if !res.OracleOK {
		cDurableOracleFail.Inc()
	}
	obs.Set("sim.durable_availability_pct", res.AvailabilityPct)
	obs.Set("sim.durable_wal_bytes", float64(res.WALBytes))
	return res, nil
}

// crashPhaseCode maps a crash-point phase to its EvCrash arg code.
func crashPhaseCode(phase string) int64 {
	switch phase {
	case faults.PhaseBeforePrepare:
		return 1
	case faults.PhaseBeforeCommit:
		return 2
	case faults.PhaseAfterDecision:
		return 3
	default:
		return 0
	}
}

// flattenOps serializes the per-partition write effects in partition
// order for the oracle's committed-set journal.
func flattenOps(parts []int, opsAt map[int][]db.Op) []partOp {
	var out []partOp
	for _, p := range parts {
		for _, op := range opsAt[p] {
			out = append(out, partOp{part: p, op: op})
		}
	}
	return out
}
