package repl

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wal"
)

var (
	cRuns       = obs.Default.Counter("repl.runs")
	cCommits    = obs.Default.Counter("repl.committed")
	cOracleFail = obs.Default.Counter("repl.oracle_failures")
)

// removeGroupLogs clears a prior run's member logs from dir (the
// partition-%03d.wal namespace is left alone — see MemberLogPath).
func removeGroupLogs(dir string) error {
	matches, err := filepath.Glob(filepath.Join(dir, "group-*.wal"))
	if err != nil {
		return err
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			return err
		}
	}
	return nil
}

// buildHarness wires k replica groups (each N=R+1 member endpoints), the
// driver, and one detector endpoint per group over the configured
// transport, chaos-wrapped per scenario.
func buildHarness(d *db.DB, sol *partition.Solution, cfg Config, inj *faults.Injector, res *Result) (*harness, error) {
	k := sol.K
	bus, eps, err := transport.NewChaosEndpoints(cfg.Transport, k*(cfg.Replicas+1)+1+k, transport.FaultPolicy{
		Seed:       cfg.Seed,
		LossProb:   cfg.Scenario.MsgLossProb,
		SpikeProb:  cfg.Scenario.LatencySpikeProb,
		SpikeDelay: cfg.SpikeDelay,
		Exempt:     exemptType,
	})
	if err != nil {
		return nil, fmt.Errorf("repl: %w", err)
	}
	h := &harness{
		cfg:      cfg,
		k:        k,
		sc:       cfg.Scenario,
		inj:      inj,
		rec:      cfg.Recorder,
		bus:      bus,
		eps:      eps,
		driverID: k * (cfg.Replicas + 1),
		res:      res,
		wg:       &sync.WaitGroup{},
	}
	h.groups = make([]*group, k)
	for g := 0; g < k; g++ {
		log, err := wal.Create(MemberLogPath(cfg.WALDir, g, 0))
		if err != nil {
			transport.CloseAll(h.eps)
			return nil, err
		}
		grp := &group{
			id: g,
			pr: &primary{
				group:  g,
				member: 0,
				chain:  newChain(d.Schema(), log),
				acked:  make(map[int]int64, cfg.Replicas),
			},
			members:  make(map[int]*backup, cfg.Replicas),
			dead:     map[int]bool{},
			diverged: map[int]bool{},
		}
		for m := 1; m <= cfg.Replicas; m++ {
			b, err := newBackup(g, m, cfg.Replicas, d.Schema(), cfg.WALDir, h.eps[memberID(g, m, cfg.Replicas)])
			if err != nil {
				transport.CloseAll(h.eps)
				return nil, err
			}
			grp.members[m] = b
			grp.pr.acked[m] = 0
		}
		h.groups[g] = grp
	}
	h.det = make([]*detector, k)
	h.alive = make([]atomic.Bool, k)
	return h, nil
}

func (h *harness) primID(g int) int {
	return memberID(g, h.groups[g].pr.member, h.cfg.Replicas)
}

// armMidBatch arms a live backup of group g for the mid-catchup crash:
// it will die halfway through logging its next multi-record ship batch,
// leaving a half-logged durable prefix. A member already behind the
// chain head is preferred (its next batch is a genuine catch-up), else
// the lowest live member (whose batch is the current round's records).
func (h *harness) armMidBatch(g int) bool {
	grp := h.groups[g]
	live := grp.liveBackups()
	for _, m := range live {
		if grp.pr.acked[m] < grp.pr.seq {
			grp.members[m].crashArm.Store(armMidCatchup)
			return true
		}
	}
	if len(live) == 0 {
		return false
	}
	grp.members[live[0]].crashArm.Store(armMidCatchup)
	return true
}

// trackLag folds a group's live-backup lags into MaxLag.
func (h *harness) trackLag(g int) {
	grp := h.groups[g]
	for _, m := range grp.liveBackups() {
		if l := grp.pr.lag(m); l > h.res.MaxLag {
			h.res.MaxLag = l
		}
	}
}

// replicaRead accounts one fully-replicated or read-only round against
// group g's backups: within the staleness budget the read is served from
// the least-lagged backup, otherwise it falls back to the primary.
func (h *harness) replicaRead(g int) {
	grp := h.groups[g]
	minLag := int64(-1)
	for _, m := range grp.liveBackups() {
		if l := grp.pr.lag(m); minLag < 0 || l < minLag {
			minLag = l
		}
	}
	if minLag >= 0 && minLag <= h.cfg.StalenessBudget {
		h.res.ReplicaReads++
		cReplicaReads.Inc()
	} else {
		h.res.StaleReadsAvoided++
		cStaleAvoided.Inc()
	}
}

// shipRule runs the configured commit rule's ship for every involved
// group at its current chain head.
func (h *harness) shipRule(ctx context.Context, involved []int, traceID uint64, vt float64) {
	for _, g := range involved {
		target := h.groups[g].pr.seq
		if h.cfg.CommitRule == RuleQuorum {
			h.quorumShip(ctx, g, target, traceID, vt)
		} else {
			h.shipAsync(ctx, g, target, traceID, vt)
		}
		h.trackLag(g)
	}
}

// rejoinDead rejoins group g's dead members, in slot order.
func (h *harness) rejoinDead(g int, vt float64) error {
	grp := h.groups[g]
	slots := make([]int, 0, len(grp.dead))
	for m := range grp.dead {
		slots = append(slots, m)
	}
	sort.Ints(slots)
	for _, m := range slots {
		if err := h.rejoinMember(h.srvCtx, g, m, vt); err != nil {
			return err
		}
	}
	return nil
}

// abortStaged appends the abort decision on every staged group and ships
// it opportunistically so backup appliers drop the staged writes.
func (h *harness) abortStaged(ctx context.Context, staged []int, txn uint64, traceID uint64, vt float64) error {
	for _, g := range staged {
		if err := h.groups[g].pr.append(wal.RecAbort, txn, nil); err != nil {
			return err
		}
		h.shipAsync(ctx, g, h.groups[g].pr.seq, traceID, vt)
	}
	return nil
}

// crashRules extends the 2PC phase rules with the replication phases:
// primary-mid-ship counts single-group rounds on the point's group;
// backup-mid-catchup counts rounds that write the point's group while it
// still has a live backup.
func (h *harness) crashRules() cluster.PhaseRules {
	rules := cluster.TwoPCRules()
	rules[faults.PhasePrimaryMidShip] = func(g int, r cluster.Round) bool {
		return !r.Distributed && r.WriteParts[0] == g
	}
	rules[faults.PhaseBackupMidCatchup] = func(g int, r cluster.Round) bool {
		return cluster.Has(r.WriteParts, g) && len(h.groups[g].liveBackups()) > 0
	}
	return rules
}

// crashFire realizes a primary crash point on group g: the chain dies
// as-is (the caller already tore a tail record if the phase calls for
// one), the group promotes, and the journal loses the unreplicated
// suffix.
func (h *harness) crashFire(ctx context.Context, g int, phase string, traceID uint64, attempt int, vt float64) error {
	h.rec.Record(traceID, obs.EvCrash, h.primID(g), attempt, vt, faults.PhaseCode(phase))
	if !cluster.Has(h.res.CrashedGroups, g) {
		h.res.CrashedGroups = append(h.res.CrashedGroups, g)
	}
	h.killPrimary(g)
	return h.promoteGroup(ctx, g, traceID, vt)
}

// writeRound executes one write transaction attempt against the groups'
// primaries: single-group rounds append begin/writes/commit on one chain;
// distributed rounds run an in-process 2PC across the group primaries
// (prepare on participants, decision on the coordinator, commit on
// participants). The configured commit rule then ships. A scripted crash
// point may kill a primary mid-protocol; the group promotes and the
// round's fate follows the rule.
func (h *harness) writeRound(ctx context.Context, txn, traceID uint64, attempt int, now float64,
	coord int, writeParts []int, opsAt map[int][]db.Op, distributed bool, fire *cluster.Crash) (bool, error) {

	// The involved groups: every write participant plus the coordinator
	// (whose chain carries the decision even when it stages no writes).
	involved := writeParts
	if distributed && !cluster.Has(involved, coord) {
		involved = append(append([]int(nil), writeParts...), coord)
		sort.Ints(involved)
	}
	if fire != nil && fire.Phase == faults.PhaseBackupMidCatchup {
		if !h.armMidBatch(fire.Node) {
			fire.Rearm() // no live backup: the point cannot realize yet
		}
	}

	if !distributed {
		g := writeParts[0]
		pr := h.groups[g].pr
		if err := pr.appendTxn(txn, opsAt[g], wal.RecCommit, nil); err != nil {
			return false, err
		}
		entry := journalEntry{ops: cluster.FlattenOps(writeParts, opsAt), seqs: map[int]int64{g: pr.seq}}
		if fire != nil && fire.Phase == faults.PhasePrimaryMidShip && fire.Node == g {
			// The primary commits locally and dies before shipping a single
			// record of the round.
			acked := h.cfg.CommitRule == RuleAsync
			if acked {
				h.journal = append(h.journal, entry)
			}
			if err := h.crashFire(ctx, g, fire.Phase, traceID, attempt, now); err != nil {
				return false, err
			}
			return acked, nil
		}
		h.journal = append(h.journal, entry)
		h.shipRule(ctx, involved, traceID, now)
		return true, nil
	}

	// Distributed: prepare phase on participants (ascending, coordinator
	// last with the decision).
	var staged []int
	for _, p := range writeParts {
		if p == coord {
			continue
		}
		pr := h.groups[p].pr
		if fire != nil && fire.Phase == faults.PhaseBeforePrepare && fire.Node == p {
			// The participant's primary dies with a torn prepare: the round
			// aborts, and the dead chain's staged suffix dies with it.
			if err := pr.appendTxn(txn, opsAt[p], 0, nil); err != nil {
				return false, err
			}
			if err := pr.appendTorn(wal.RecPrepare, txn, cluster.CoordPayload(coord), 3); err != nil {
				return false, err
			}
			if err := h.crashFire(ctx, p, fire.Phase, traceID, attempt, now); err != nil {
				return false, err
			}
			if err := h.abortStaged(ctx, staged, txn, traceID, now); err != nil {
				return false, err
			}
			return false, nil
		}
		if err := pr.appendTxn(txn, opsAt[p], wal.RecPrepare, cluster.CoordPayload(coord)); err != nil {
			return false, err
		}
		h.rec.Record(traceID, obs.EvPrepare, h.primID(p), attempt, now, 0)
		staged = append(staged, p)
	}

	// Decision on the coordinator's chain.
	cpr := h.groups[coord].pr
	if fire != nil && fire.Phase == faults.PhaseBeforeCommit && fire.Node == coord {
		if err := cpr.appendTxn(txn, opsAt[coord], 0, nil); err != nil {
			return false, err
		}
		if err := cpr.appendTorn(wal.RecCommit, txn, nil, 5); err != nil {
			return false, err
		}
		if err := h.crashFire(ctx, coord, fire.Phase, traceID, attempt, now); err != nil {
			return false, err
		}
		if err := h.abortStaged(ctx, staged, txn, traceID, now); err != nil {
			return false, err
		}
		return false, nil
	}
	if err := cpr.appendTxn(txn, opsAt[coord], wal.RecCommit, nil); err != nil {
		return false, err
	}
	seqs := map[int]int64{coord: cpr.seq}
	if fire != nil && fire.Phase == faults.PhaseAfterDecision && fire.Node == coord {
		// The decision is durable on the coordinator's chain — and dies
		// with it: the promoted backup never saw it, so the suffix is
		// discarded Raft-style. Under async the client was already
		// acknowledged (a lost commit); under quorum the acknowledgment
		// never went out and the retry reruns the transaction cleanly.
		acked := h.cfg.CommitRule == RuleAsync
		if acked {
			h.journal = append(h.journal, journalEntry{
				ops:  cluster.FlattenOps(writeParts, opsAt),
				seqs: seqs,
			})
		}
		if err := h.crashFire(ctx, coord, fire.Phase, traceID, attempt, now); err != nil {
			return false, err
		}
		if err := h.abortStaged(ctx, staged, txn, traceID, now); err != nil {
			return false, err
		}
		return acked, nil
	}

	// Commit on the participants, then the rule's ship.
	for _, p := range staged {
		if err := h.groups[p].pr.append(wal.RecCommit, txn, nil); err != nil {
			return false, err
		}
		seqs[p] = h.groups[p].pr.seq
	}
	h.journal = append(h.journal, journalEntry{ops: cluster.FlattenOps(writeParts, opsAt), seqs: seqs})
	h.shipRule(ctx, involved, traceID, now)
	return true, nil
}

// Run replays the trace through the replica-group engine: per-partition
// primaries shipping WAL records to backup servers over a real transport,
// a configurable commit rule (async or quorum-ack), scripted crash points
// and windows realized as primary deaths with lease-lapse promotion of
// the most-caught-up backup, anti-entropy rejoin — then the end-of-run
// drain, the full-cluster crash, per-member WAL recovery, and the
// consistency oracle over every member of every group.
func Run(ctx context.Context, d *db.DB, sol *partition.Solution, tr *trace.Trace, cfg Config) (*Result, error) {
	_, span := obs.StartSpan(ctx, "repl/run")
	defer span.End()

	cfg = cfg.withDefaults(tr.Len())
	if cfg.Scenario == nil {
		return nil, fmt.Errorf("repl: nil scenario")
	}
	if cfg.WALDir == "" {
		return nil, fmt.Errorf("repl: WALDir required")
	}
	if cfg.CommitRule != RuleAsync && cfg.CommitRule != RuleQuorum {
		return nil, fmt.Errorf("repl: unknown commit rule %q", cfg.CommitRule)
	}
	a, err := eval.NewAssigner(d, sol)
	if err != nil {
		return nil, err
	}
	inj, err := faults.NewInjector(cfg.Scenario, sol.K, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := removeGroupLogs(cfg.WALDir); err != nil {
		return nil, err
	}

	k := sol.K
	res := &Result{
		Scenario:   cfg.Scenario.Name,
		Seed:       cfg.Seed,
		Groups:     k,
		Replicas:   cfg.Replicas,
		CommitRule: cfg.CommitRule,
		Transport:  cfg.Transport,
		Offered:    tr.Len(),
	}
	h, err := buildHarness(d, sol, cfg, inj, res)
	if err != nil {
		return nil, err
	}
	defer transport.CloseAll(h.eps)

	// Server goroutines: every backup serves, every group gets a leased
	// detector, and one ticker heartbeats each live group's lease.
	srvCtx, stopServers := context.WithCancel(context.Background())
	defer stopServers()
	h.srvCtx = srvCtx
	for _, grp := range h.groups {
		for _, m := range grp.liveBackups() {
			b := grp.members[m]
			h.wg.Add(1)
			go func(b *backup) {
				defer h.wg.Done()
				b.serve(srvCtx)
			}(b)
		}
	}
	for g := 0; g < k; g++ {
		h.det[g] = h.newDetectorFor(g)
		h.alive[g].Store(true)
		h.wg.Add(1)
		go func(dt *detector) {
			defer h.wg.Done()
			dt.run(srvCtx)
		}(h.det[g])
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(cfg.HeartbeatEvery)
		defer tick.Stop()
		for {
			select {
			case <-srvCtx.Done():
				return
			case <-tick.C:
				for g := 0; g < k; g++ {
					if h.alive[g].Load() {
						_ = h.eps[h.driverID].Send(srvCtx, transport.Msg{
							Type: MsgReplHeartbeat, From: h.driverID, To: h.detID(g),
						})
					}
				}
			}
		}
	}()

	rec := cfg.Recorder
	crashes := cluster.NewCrashScript(cfg.Scenario.CrashPoints, h.crashRules())
	windowDown := make([]bool, k)
	var nextTxn uint64
	t, err := cluster.Replay(tr, a.PlaceTrace(tr, runtime.GOMAXPROCS(0)), cluster.ReplayConfig{
		Seed: cfg.Seed, ArrivalRateTPS: cfg.ArrivalRateTPS, Retry: cfg.Retry, Injector: inj,
		Recorder: rec,
	}, func(at *cluster.Attempt) (bool, error) {
		// Scripted crash windows, reinterpreted for replica groups: a
		// window opening over group g kills its current primary (the
		// failure detector promotes a backup — the group stays
		// available); the window closing rejoins the dead member.
		for g := 0; g < k; g++ {
			switch down := inj.Down(g, at.Now); {
			case down && !windowDown[g]:
				windowDown[g] = true
				if err := h.crashFire(srvCtx, g, "", at.TraceID, 0, at.Now); err != nil {
					return false, err
				}
			case !down && windowDown[g]:
				windowDown[g] = false
				if err := h.rejoinDead(g, at.Now); err != nil {
					return false, err
				}
			}
		}
		if len(at.WriteParts) == 0 {
			// Read-only (or fully-replicated read): no wire round — the
			// read is served by the coordinator group, from a backup when
			// one is inside the staleness budget.
			h.replicaRead(at.Coord)
			return true, nil
		}
		// Crash points fire on rounds where they qualify.
		fire := crashes.Next(cluster.Round{Coord: at.Coord, WriteParts: at.WriteParts, Distributed: at.Distributed}, nil)
		nextTxn++
		ok, err := h.writeRound(srvCtx, nextTxn, at.TraceID, at.Num, at.Now,
			at.Coord, at.WriteParts, at.OpsAt, at.Distributed, fire)
		if err == nil {
			err = h.storeErr
		}
		return ok, err
	})
	if err != nil {
		return nil, err
	}
	res.Committed, res.PermanentFailures, res.Local, res.Distributed = t.Committed, t.PermanentFailures, t.Local, t.Distributed
	res.Aborts, res.Retries, res.AvailabilityPct, res.MakespanSec = t.Aborts, t.Retries, t.AvailabilityPct, t.MakespanSec
	res.LatencyP50, res.LatencyP99, res.LatencyP999 = t.LatencyP50, t.LatencyP99, t.LatencyP999

	// Pre-drain replication lag: what a bounded-staleness router would
	// see at the end of the replay. Dead members are absent — unknown lag
	// is ineligible lag.
	res.Lags = map[int]int64{}
	for g := 0; g < k; g++ {
		grp := h.groups[g]
		for _, m := range grp.liveBackups() {
			res.Lags[memberID(g, m, cfg.Replicas)] = grp.pr.lag(m)
		}
		h.trackLag(g)
	}

	// Anti-entropy epilogue: every dead member rejoins (snapshot install
	// or log-tail ship), then the final drain brings every backup to its
	// group's chain head.
	h.catchup = true
	endVT := res.MakespanSec
	for g := 0; g < k; g++ {
		if err := h.rejoinDead(g, endVT); err != nil {
			return nil, err
		}
	}
	for g := 0; g < k; g++ {
		grp := h.groups[g]
		for _, m := range grp.liveBackups() {
			if h.shipTo(srvCtx, g, m, grp.pr.seq, 4*cfg.Wire.MaxAttempts, 0, endVT) {
				continue
			}
			// A still-armed crash point can fire on the drain batch itself:
			// rejoin the member once and retry before declaring divergence.
			if grp.dead[m] {
				if err := h.rejoinMember(srvCtx, g, m, endVT); err != nil {
					return nil, err
				}
			}
			if !h.shipTo(srvCtx, g, m, grp.pr.seq, 4*cfg.Wire.MaxAttempts, 0, endVT) {
				if h.storeErr != nil {
					return nil, h.storeErr
				}
				return nil, fmt.Errorf("repl: group %d member %d failed to drain to %d (acked %d)",
					g, m, grp.pr.seq, grp.pr.acked[m])
			}
		}
	}

	// End of run: the whole cluster crashes. Backup goroutines unwind
	// (closing their logs as-is), then the primaries' logs close, and
	// recovery replays every member log independently.
	stopServers()
	h.wg.Wait()
	for g := 0; g < k; g++ {
		h.groups[g].pr.log.Close()
	}

	// Consistency oracle. Expected state: re-execute exactly the
	// surviving (acknowledged and not lost) writes on fault-free stores.
	// Observed state: every member's recovered store, which must equal
	// its group's expected store — promotion, rejoin, and drain have made
	// the group converge. A group's member logs are usually
	// byte-identical, so each distinct log is recovered once and its
	// identical members share its digests and commit count. The k
	// expected replays and the distinct recoveries are independent, so
	// they run concurrently; the fold below is sequential, in (group,
	// member) order.
	n := cfg.Replicas + 1
	members, same, logs := h.readMemberLogs()
	var distinct []int
	for i := range members {
		if same[i] == i && members[i].err == nil {
			distinct = append(distinct, i)
		}
	}
	expected := make([]*db.DB, k)
	replayErr := make([]journalErr, k)
	forEach(k+len(distinct), func(i int) {
		if i < k {
			expected[i], replayErr[i] = h.replayExpected(d.Schema(), i)
			return
		}
		i = distinct[i-k]
		rc := wal.RecoverData(d.Schema(), logs[i])
		logs[i] = nil
		members[i].digests, members[i].committed = rc.DB.TableDigests(), len(rc.Committed)
		if g := i / n; same[g*n+h.groups[g].pr.member] == i {
			members[i].store = rc.DB
		}
	})
	var firstErr journalErr
	for _, je := range replayErr {
		if je.err != nil && (firstErr.err == nil || je.before(firstErr)) {
			firstErr = je
		}
	}
	if firstErr.err != nil {
		return nil, fmt.Errorf("repl: oracle replay: %w", firstErr.err)
	}
	res.OracleOK = true
	primStores := make([]*db.DB, k)
	for g := 0; g < k; g++ {
		wantDg := expected[g].TableDigests()
		for m := 0; m < n; m++ {
			mr := members[same[g*n+m]]
			if mr.err != nil {
				return nil, fmt.Errorf("repl: recover group %d member %d: %w", g, m, mr.err)
			}
			rec.Record(0, obs.EvRecover, memberID(g, m, cfg.Replicas), 0, endVT, int64(mr.committed))
			res.TotalMembers++
			converged := len(mr.digests) == len(wantDg)
			for name, dg := range wantDg {
				if mr.digests[name] != dg {
					converged = false
				}
			}
			if converged {
				res.ConvergedMembers++
			} else {
				res.OracleOK = false
			}
		}
		primStores[g] = members[same[g*n+h.groups[g].pr.member]].store
	}
	want := wal.CombineDigests(expected)
	got := wal.CombineDigests(primStores)
	if len(want) != len(got) {
		res.OracleOK = false
	}
	res.TableDigests = make(map[string]string, len(got))
	for name, dg := range got {
		res.TableDigests[name] = fmt.Sprintf("%016x", dg)
		if want[name] != dg {
			res.OracleOK = false
		}
	}

	cRuns.Inc()
	cCommits.Add(int64(res.Committed))
	if !res.OracleOK {
		cOracleFail.Inc()
	}
	return res, nil
}

// journalErr locates an expected-state replay failure: the journal entry
// and the op within it.
type journalErr struct {
	entry, op int
	err       error
}

func (a journalErr) before(b journalErr) bool {
	return a.entry < b.entry || a.entry == b.entry && a.op < b.op
}

// replayExpected re-executes the surviving journal writes of group g on
// a fresh store.
func (h *harness) replayExpected(sc *schema.Schema, g int) (*db.DB, journalErr) {
	d := db.New(sc)
	for i, e := range h.journal {
		if e.lost {
			continue
		}
		for j, po := range e.ops {
			if po.Part != g {
				continue
			}
			if err := d.Apply(po.Op); err != nil {
				return nil, journalErr{entry: i, op: j, err: err}
			}
		}
	}
	return d, journalErr{}
}

// memberRecovery is what the oracle keeps of one recovered member log:
// its table digests, its replayed commit count and, when the group's
// primary member has the same log, its store.
type memberRecovery struct {
	digests   map[string]uint64
	committed int
	store     *db.DB
	err       error
}

// readMemberLogs reads every member log, indexed group·(R+1)+member (a
// missing file is an empty log, as for wal.RecoverFile). same[i] is the
// lowest member of i's group whose log bytes equal i's; logs keeps only
// those first copies, and a read error lands in its member's entry.
func (h *harness) readMemberLogs() (members []memberRecovery, same []int, logs [][]byte) {
	n := h.cfg.Replicas + 1
	members = make([]memberRecovery, h.k*n)
	same = make([]int, h.k*n)
	logs = make([][]byte, h.k*n)
	for i := range members {
		same[i] = i
		data, err := os.ReadFile(MemberLogPath(h.cfg.WALDir, i/n, i%n))
		if err != nil && !os.IsNotExist(err) {
			members[i].err = err
			continue
		}
		for j := i - i%n; j < i; j++ {
			if same[j] == j && members[j].err == nil && bytes.Equal(logs[j], data) {
				same[i] = j
				break
			}
		}
		if same[i] == i {
			logs[i] = data
		}
	}
	return members, same, logs
}

// forEach runs fn(i) for every i in [0, n) on at most GOMAXPROCS
// goroutines. fn must write only index-i state.
func forEach(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
