package twopc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wal"
)

var (
	cRuns       = obs.Default.Counter("twopc.runs")
	cCommits    = obs.Default.Counter("twopc.committed")
	cOracleFail = obs.Default.Counter("twopc.oracle_failures")
)

// Config shapes one networked 2PC replay. Its retry policies and wire
// timings are internal/cluster's commit-path constants (timing.go).
type Config struct {
	// Scenario is the fault scenario (required; faults.Builtin names).
	Scenario *faults.Scenario
	// Seed drives every random draw: virtual latency spikes, backoff
	// jitter, and the transport chaos layer's hash-sampled frame fates.
	Seed int64
	// WALDir holds the per-partition logs (required).
	WALDir string
	// Transport picks the wire: "bus" (default; in-proc, composes with
	// the scenario's crash windows and loss/spike probabilities) or
	// "tcp" (loopback sockets; crash windows act via the harness only).
	Transport string
	// Standby enables the backup coordinator: when the leader's lease
	// lapses after a coordinator-partition crash, it scans participants
	// for in-doubt transactions, recovers each decision, and resumes
	// driving the trace. Without it, in-doubt survivors stay blocked
	// until end-of-run recovery (the in-process engine's semantics).
	Standby bool

	// CheckpointEvery is the per-partition commit cadence between
	// CHECKPOINT records (default cluster.CheckpointEvery).
	CheckpointEvery int
}

func (c Config) withDefaults() Config {
	if c.Transport == "" {
		c.Transport = "bus"
	}
	return c
}

// Result is the outcome of one networked 2PC replay: the in-process
// engine's durable report plus the transport and failover columns. All
// fields are plain deterministic data — the wire adds real concurrency,
// but frame fates are hash-sampled and the virtual clock never reads
// wall time, so a (solution, trace, scenario, seed, transport) tuple
// marshals to byte-identical JSON across runs.
type Result struct {
	Scenario  string `json:"scenario"`
	Seed      int64  `json:"seed"`
	Nodes     int    `json:"nodes"`
	Transport string `json:"transport"`

	Offered           int `json:"offered"`
	Committed         int `json:"committed"`
	PermanentFailures int `json:"permanent_failures"`
	Local             int `json:"local"`
	Distributed       int `json:"distributed"`

	Aborts          int     `json:"aborts"`
	Retries         int     `json:"retries"`
	AvailabilityPct float64 `json:"availability_pct"`
	MakespanSec     float64 `json:"makespan_sec"`

	CrashedNodes []int `json:"crashed_nodes,omitempty"`
	InDoubtParts []int `json:"in_doubt_parts,omitempty"`

	// Failovers counts standby takeovers; Resolved* classify the
	// in-doubt transactions the standby settled.
	Failovers       int `json:"failovers"`
	ResolvedCommits int `json:"resolved_commits"`
	ResolvedAborts  int `json:"resolved_aborts"`

	Checkpoints int   `json:"checkpoints"`
	WALBytes    int64 `json:"wal_bytes"`

	TornTails        int `json:"torn_tails"`
	InDoubtCommitted int `json:"in_doubt_committed"`
	InDoubtAborted   int `json:"in_doubt_aborted"`
	RecoveredCommits int `json:"recovered_commits"`

	LatencyP50  float64 `json:"latency_p50_sec"`
	LatencyP99  float64 `json:"latency_p99_sec"`
	LatencyP999 float64 `json:"latency_p999_sec"`

	SLO obs.SLOStatus `json:"slo"`

	TableDigests map[string]string `json:"table_digests"`
	OracleOK     bool              `json:"oracle_ok"`
}

// String renders a one-line summary.
func (r *Result) String() string {
	oracle := "CONSISTENT"
	if !r.OracleOK {
		oracle = "DIVERGED"
	}
	return fmt.Sprintf("twopc/%s %q seed=%d: %d/%d committed, %d aborts, "+
		"%d crashed nodes, %d failovers (%d→commit/%d→abort), "+
		"%d torn tails, oracle %s",
		r.Transport, r.Scenario, r.Seed, r.Committed, r.Offered, r.Aborts,
		len(r.CrashedNodes), r.Failovers, r.ResolvedCommits, r.ResolvedAborts,
		r.TornTails, oracle)
}

// exemptType lists the frames the chaos layer never drops: the
// single-partition fast path (the in-process engine's loss only hits
// distributed rounds), decision acks (so "no ack" provably means "never
// delivered" — the safe-abort rule), and the lease/takeover control
// plane.
func exemptType(m transport.Msg) bool {
	switch m.Type {
	case MsgCommitLocal, MsgAckLocal, MsgAck, MsgHeartbeat, MsgScan, MsgScanResp:
		return true
	}
	return false
}

// topology is the wired-up set of endpoints and participants of one run.
type topology struct {
	bus   *transport.Bus // nil under tcp
	eps   []transport.Transport
	parts []*Participant
}

// buildCluster wires k participants, the driver (id k), and the standby
// (id k+1) over the configured transport, chaos-wrapped per scenario.
func buildCluster(d *db.DB, k int, cfg Config) (*topology, error) {
	bus, eps, err := transport.NewChaosEndpoints(cfg.Transport, k+2, transport.FaultPolicy{
		Seed:       cfg.Seed,
		LossProb:   cfg.Scenario.MsgLossProb,
		SpikeProb:  cfg.Scenario.LatencySpikeProb,
		SpikeDelay: cluster.SpikeDelay,
		Exempt:     exemptType,
	})
	if err != nil {
		return nil, fmt.Errorf("twopc: %w", err)
	}
	cl := &topology{bus: bus, eps: eps}
	pcfg := ParticipantConfig{CheckpointEvery: cfg.CheckpointEvery}
	cl.parts = make([]*Participant, k)
	for id := 0; id < k; id++ {
		p, err := NewParticipant(id, d.Schema(), cfg.WALDir, cl.eps[id], pcfg)
		if err != nil {
			transport.CloseAll(cl.eps)
			return nil, err
		}
		cl.parts[id] = p
	}
	return cl, nil
}

// Run replays the trace through the networked 2PC engine: partition
// servers over a real transport, a coordinator driver with per-exchange
// timeouts and retransmission, scripted crash points realized as server
// deaths mid-protocol, optional standby failover — then the end-of-run
// full-cluster crash, WAL recovery, and the consistency oracle. A flight
// recorder attached to ctx (obs.WithRecorder) receives the driver-side
// events: the in-process engine's vocabulary minus per-append WAL
// events, which would race across server goroutines.
func Run(ctx context.Context, d *db.DB, sol *partition.Solution, tr *trace.Trace, cfg Config) (*Result, error) {
	_, span := obs.StartSpan(ctx, "twopc/run")
	defer span.End()

	cfg = cfg.withDefaults()
	if cfg.Scenario == nil {
		return nil, fmt.Errorf("twopc: nil scenario")
	}
	if cfg.WALDir == "" {
		return nil, fmt.Errorf("twopc: WALDir required")
	}
	a, err := eval.NewAssigner(d, sol)
	if err != nil {
		return nil, err
	}
	inj, err := faults.NewInjector(cfg.Scenario, sol.K, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// The window is placed ahead of the replay, from here on, while the
	// cluster starts.
	placed := a.PlaceTrace(tr, cluster.PlaceWorkers())
	defer placed.Stop()
	if err := wal.RemoveLogs(cfg.WALDir); err != nil {
		return nil, err
	}
	cl, err := buildCluster(d, sol.K, cfg)
	if err != nil {
		return nil, err
	}
	defer transport.CloseAll(cl.eps)

	k := sol.K
	drv := newDriver(k, cl.eps[k])

	// Server goroutines; every return stops and joins them. A server
	// that fails stops them all, so that no round waits on the dead one,
	// and its error ends the run (serverErr).
	var wg sync.WaitGroup
	defer wg.Wait()
	srvCtx, stopServers := context.WithCancel(context.Background())
	defer stopServers()
	errCh := make(chan error, k)
	for _, p := range cl.parts {
		wg.Add(1)
		go func(p *Participant) {
			defer wg.Done()
			if err := p.Serve(srvCtx); err != nil {
				select {
				case errCh <- err:
				default:
				}
				stopServers()
			}
		}(p)
	}
	serverErr := func() error {
		select {
		case err := <-errCh:
			return fmt.Errorf("twopc: participant: %w", err)
		default:
			return nil
		}
	}

	// Leader lease: the driver heartbeats the standby; a coordinator
	// crash stops the heartbeats (the leader is co-located with the
	// coordinator partition node) and the lease lapse triggers takeover.
	var sb *Standby
	var leaderAlive atomic.Bool
	leaderAlive.Store(true)
	if cfg.Standby {
		sb = NewStandby(k+1, cl.eps[k+1], cfg.WALDir, cluster.PartitionIDs(k), cluster.LeaseTimeout)
		sb.SetLeader(k)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sb.Run(srvCtx)
		}()
		hbEp := cl.eps[k] // stable reference: drv is reassigned on failover
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(cluster.HeartbeatEvery)
			defer tick.Stop()
			for {
				select {
				case <-srvCtx.Done():
					return
				case <-tick.C:
					if leaderAlive.Load() {
						_ = hbEp.Send(srvCtx, transport.Msg{Type: MsgHeartbeat, From: k, To: k + 1})
					}
				}
			}
		}()
	}

	rec := obs.ContextRecorder(ctx)
	crashes := cluster.NewCrashScript(cfg.Scenario.CrashPoints, cluster.TwoPCRules())
	res := &Result{Scenario: cfg.Scenario.Name, Seed: cfg.Seed, Nodes: k, Transport: cfg.Transport}

	deadSet := map[int]bool{}
	inDoubtSet := map[int]bool{} // live partitions blocked on an in-doubt txn
	dead := func(n int) bool { return deadSet[n] || cl.parts[n].Crashed() }

	// failover hands the trace to the standby: heartbeats stop, the
	// lease lapses, the takeover resolves every live in-doubt holder,
	// and the standby's endpoint becomes the driver's. A failed server
	// stops the standby before its takeover; serverErr then reports it.
	failover := func() {
		leaderAlive.Store(false)
		var rep TakeoverReport
		select {
		case rep = <-sb.Done():
		case <-srvCtx.Done():
			return
		}
		res.Failovers++
		res.ResolvedCommits += rep.ResolvedCommits
		res.ResolvedAborts += rep.ResolvedAborts
		clear(inDoubtSet)
		drv = newDriver(k+1, sb.Endpoint())
	}

	var nextTxn uint64
	t, err := cluster.Replay(ctx, tr, placed, cluster.ReplayConfig{
		Seed: cfg.Seed, ArrivalRateTPS: cluster.ArrivalRate(tr.Len()), Retry: cluster.TxnRetry, Injector: inj,
		Down:     func(n int, now float64) bool { return dead(n) || inj.Down(n, now) },
		InDoubt:  func(p int) bool { return inDoubtSet[p] },
		Recorder: rec, SLO: obs.NewSLOMonitor(obs.SLOConfig{}), Journal: true,
	}, func(at *cluster.Attempt) (bool, error) {
		if cl.bus != nil {
			// Scripted crash windows gate real frames for this round's
			// virtual instant.
			cl.bus.SetHealth(inj.At(at.Now))
		}
		if at.Blocked {
			return false, nil
		}
		coord, parts := at.Coord, at.Writes.Parts
		if len(parts) == 0 {
			// No write effects (read-only / fully-replicated read):
			// nothing touches the wire.
			return true, nil
		}
		// Crash points fire on rounds that would otherwise proceed.
		fire := crashes.Next(cluster.Round{Coord: coord, WriteParts: parts, Distributed: at.Distributed}, dead)
		nextTxn++
		if fire != nil {
			cl.parts[fire.Node].ArmCrash(fire.Phase)
		}
		var out roundOutcome
		if at.Distributed {
			out = drv.round2PC(srvCtx, nextTxn, coord, at.Writes, dead)
		} else {
			out.committed = drv.commitLocal(srvCtx, nextTxn, parts[0], at.Writes.Of(0))
		}
		if err := serverErr(); err != nil {
			return false, err
		}
		for _, p := range out.yes {
			rec.Record(at.TraceID, obs.EvPrepare, p, at.Num, at.Now, 0)
		}
		if fire != nil && !cl.parts[fire.Node].Crashed() {
			// The armed message never arrived (every frame of the phase
			// was lost): the crash did not realize. Disarm and treat the
			// round at face value.
			cl.parts[fire.Node].ArmCrash("")
			fire = nil
		}
		if fire == nil {
			return out.committed, nil
		}
		deadSet[fire.Node] = true
		rec.Record(at.TraceID, obs.EvCrash, fire.Node, at.Num, at.Now, faults.PhaseCode(fire.Phase))
		for _, p := range out.unresolved {
			if !dead(p) {
				inDoubtSet[p] = true
			}
		}
		if fire.Phase != faults.PhaseBeforePrepare && sb != nil {
			failover() // a coordinator crash
			if err := serverErr(); err != nil {
				return false, err
			}
		}
		// After the decision, it is durable on the crashed coordinator:
		// the transaction IS committed even though nobody heard it.
		return fire.Phase == faults.PhaseAfterDecision, nil
	})
	if err != nil {
		return nil, err
	}
	res.Offered, res.Committed, res.PermanentFailures = t.Offered, t.Committed, t.PermanentFailures
	res.Local, res.Distributed, res.Aborts, res.Retries = t.Local, t.Distributed, t.Aborts, t.Retries
	res.AvailabilityPct, res.MakespanSec = t.AvailabilityPct, t.MakespanSec
	res.LatencyP50, res.LatencyP99, res.LatencyP999, res.SLO = t.LatencyP50, t.LatencyP99, t.LatencyP999, t.SLO

	// End of run: the whole cluster crashes. Server goroutines unwind
	// (closing their logs as-is), then recovery replays every log.
	stopServers()
	wg.Wait()
	if err := serverErr(); err != nil {
		return nil, err
	}

	for n := 0; n < k; n++ {
		p := cl.parts[n]
		if dead(n) {
			res.CrashedNodes = append(res.CrashedNodes, n)
		}
		// A crashed participant's in-memory in-doubt map died with it;
		// recovery classifies its prepared-undecided transactions from the
		// WAL instead (InDoubtCommitted / InDoubtAborted below).
		if !dead(n) && len(p.InDoubt()) > 0 {
			res.InDoubtParts = append(res.InDoubtParts, n)
		}
		res.Checkpoints += p.Checkpoints()
		res.WALBytes += p.WALBytes()
	}

	rc, err := cluster.RecoverAndCheck(d.Schema(), cfg.WALDir, k, &t.Journal, rec, res.MakespanSec)
	if err != nil {
		return nil, err
	}
	res.TornTails, res.InDoubtCommitted, res.InDoubtAborted = rc.TornTails, rc.InDoubtCommitted, rc.InDoubtAborted
	res.RecoveredCommits, res.TableDigests, res.OracleOK = rc.RecoveredCommits, rc.TableDigests, rc.OracleOK

	cRuns.Inc()
	cCommits.Add(int64(res.Committed))
	if !res.OracleOK {
		cOracleFail.Inc()
	}
	return res, nil
}
