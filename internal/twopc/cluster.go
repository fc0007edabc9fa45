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

// Config shapes one networked 2PC replay.
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
	// CHECKPOINT records (default 64).
	CheckpointEvery int
	// ArrivalRateTPS is the offered load (default: trace length / 8).
	ArrivalRateTPS float64
	// Retry shapes the transaction-level retry loop (virtual backoff;
	// defaults per faults.RetryPolicy).
	Retry faults.RetryPolicy
	// Wire shapes per-message retransmission: MaxAttempts caps prepare
	// broadcasts, BackoffAt paces resends (default base 20ms, cap 200ms).
	Wire faults.RetryPolicy
	// VoteWait / AckWait are per-attempt reply windows (default 25ms);
	// they are only consumed when a frame was actually dropped.
	VoteWait time.Duration
	AckWait  time.Duration
	// DecisionTimeout is how long a participant sits prepared-undecided
	// before running the termination protocol (default 3s).
	DecisionTimeout time.Duration
	// HeartbeatEvery / LeaseTimeout shape the leader lease (defaults
	// 25ms / 150ms).
	HeartbeatEvery time.Duration
	LeaseTimeout   time.Duration
	// SpikeDelay is the real delivery delay of a chaos-spiked frame
	// (default 2ms — well inside the reply windows, so spikes add wire
	// latency without changing outcomes).
	SpikeDelay time.Duration

	// SLO configures the tumbling-window objective evaluation.
	SLO obs.SLOConfig
	// Recorder, when non-nil, receives driver-side flight events (the
	// same vocabulary as the in-process engine, minus per-append WAL
	// events, which would race across server goroutines).
	Recorder *obs.Recorder
}

func (c Config) withDefaults(traceLen int) Config {
	if c.Transport == "" {
		c.Transport = "bus"
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 64
	}
	if c.ArrivalRateTPS <= 0 {
		c.ArrivalRateTPS = float64(traceLen) / 8
		if c.ArrivalRateTPS <= 0 {
			c.ArrivalRateTPS = 1
		}
	}
	c.Retry = c.Retry.WithDefaults()
	if c.DecisionTimeout <= 0 {
		c.DecisionTimeout = 3 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 25 * time.Millisecond
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 150 * time.Millisecond
	}
	if c.SpikeDelay <= 0 {
		c.SpikeDelay = 2 * time.Millisecond
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

func (cl *topology) closeEndpoints() {
	for _, ep := range cl.eps {
		if ep != nil {
			ep.Close()
		}
	}
}

// buildCluster wires k participants, the driver (id k), and the standby
// (id k+1) over the configured transport, chaos-wrapped per scenario.
func buildCluster(d *db.DB, k int, cfg Config) (*topology, error) {
	cl := &topology{eps: make([]transport.Transport, k+2)}
	pol := transport.FaultPolicy{
		Seed:       cfg.Seed,
		LossProb:   cfg.Scenario.MsgLossProb,
		SpikeProb:  cfg.Scenario.LatencySpikeProb,
		SpikeDelay: cfg.SpikeDelay,
		Exempt:     exemptType,
	}
	switch cfg.Transport {
	case "bus":
		cl.bus = transport.NewBus()
		for id := 0; id < k+2; id++ {
			ep, err := cl.bus.Endpoint(id)
			if err != nil {
				return nil, err
			}
			cl.eps[id] = transport.WithChaos(ep, pol)
		}
	case "tcp":
		tcps := make([]*transport.TCPEndpoint, k+2)
		peers := make(map[int]string, k+2)
		for id := 0; id < k+2; id++ {
			ep, err := transport.ListenTCP(id, "127.0.0.1:0")
			if err != nil {
				cl.closeEndpoints()
				return nil, err
			}
			tcps[id] = ep
			cl.eps[id] = transport.WithChaos(ep, pol)
			peers[id] = ep.Addr()
		}
		for _, ep := range tcps {
			ep.SetPeers(peers)
		}
	default:
		return nil, fmt.Errorf("twopc: unknown transport %q", cfg.Transport)
	}
	pcfg := ParticipantConfig{
		DecisionTimeout: cfg.DecisionTimeout,
		CheckpointEvery: cfg.CheckpointEvery,
	}
	cl.parts = make([]*Participant, k)
	for id := 0; id < k; id++ {
		p, err := NewParticipant(id, d.Schema(), cfg.WALDir, cl.eps[id], pcfg)
		if err != nil {
			cl.closeEndpoints()
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
// full-cluster crash, WAL recovery, and the consistency oracle.
func Run(ctx context.Context, d *db.DB, sol *partition.Solution, tr *trace.Trace, cfg Config) (*Result, error) {
	_, span := obs.StartSpan(ctx, "twopc/run")
	defer span.End()

	cfg = cfg.withDefaults(tr.Len())
	if cfg.Scenario == nil {
		return nil, fmt.Errorf("twopc: nil scenario")
	}
	a, err := eval.NewAssigner(d, sol)
	if err != nil {
		return nil, err
	}
	inj, err := faults.NewInjector(cfg.Scenario, sol.K, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := wal.RemoveLogs(cfg.WALDir); err != nil {
		return nil, err
	}
	cl, err := buildCluster(d, sol.K, cfg)
	if err != nil {
		return nil, err
	}
	defer cl.closeEndpoints()

	k := sol.K
	dcfg := driverConfig{wire: cfg.Wire, voteWait: cfg.VoteWait, ackWait: cfg.AckWait}
	drv := newDriver(k, cl.eps[k], dcfg)

	// Server goroutines.
	srvCtx, stopServers := context.WithCancel(context.Background())
	defer stopServers()
	var wg sync.WaitGroup
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
			}
		}(p)
	}

	// Leader lease: the driver heartbeats the standby; a coordinator
	// crash stops the heartbeats (the leader is co-located with the
	// coordinator partition node) and the lease lapse triggers takeover.
	var sb *Standby
	var leaderAlive atomic.Bool
	leaderAlive.Store(true)
	if cfg.Standby {
		sb = NewStandby(k+1, cl.eps[k+1], cfg.WALDir, cluster.PartitionIDs(k), cfg.LeaseTimeout, dcfg)
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
			tick := time.NewTicker(cfg.HeartbeatEvery)
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

	sc := cfg.Scenario
	rec := cfg.Recorder
	slo := obs.NewSLOMonitor(cfg.SLO)
	var allLat obs.HDR

	crashes := cluster.NewCrashScript(sc.CrashPoints, cluster.TwoPCRules())

	res := &Result{
		Scenario:  sc.Name,
		Seed:      cfg.Seed,
		Nodes:     k,
		Transport: cfg.Transport,
		Offered:   tr.Len(),
	}

	deadSet := map[int]bool{}
	inDoubtSet := map[int]bool{} // live partitions blocked on an in-doubt txn
	dead := func(n int) bool { return deadSet[n] || cl.parts[n].Crashed() }
	down := func(n int, now float64) bool { return dead(n) || inj.Down(n, now) }
	upNodes := func(now float64) []int {
		var up []int
		for n := 0; n < k; n++ {
			if !down(n, now) {
				up = append(up, n)
			}
		}
		return up
	}

	// failover hands the trace to the standby: heartbeats stop, the
	// lease lapses, the takeover resolves every live in-doubt holder,
	// and the standby's endpoint becomes the driver's.
	failover := func() {
		leaderAlive.Store(false)
		rep := <-sb.Done()
		res.Failovers++
		res.ResolvedCommits += rep.ResolvedCommits
		res.ResolvedAborts += rep.ResolvedAborts
		for n := range inDoubtSet {
			delete(inDoubtSet, n)
		}
		drv = newDriver(k+1, sb.Endpoint(), dcfg)
	}

	var nextTxn uint64
	var committedOps [][]cluster.PartOp
	for i, t := range tr.All() {
		arrival := float64(i) / cfg.ArrivalRateTPS
		nodes, coord, distributed := cluster.Participants(a, t, k, i)
		traceID := obs.TxnID(cfg.Seed, i)
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
			if cl.bus != nil {
				// Scripted crash windows gate real frames for this round's
				// virtual instant.
				cl.bus.SetHealth(inj.At(now))
			}
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
			writeParts, opsAt := cluster.WriteEffects(a, t, k, execCoord)

			blocked := false
			for _, n := range execNodes {
				if down(n, now) {
					blocked = true
					rec.Record(traceID, obs.EvFault, n, attempt, now, obs.FaultNodeDown)
					break
				}
			}
			if !blocked {
				for _, p := range writeParts {
					if inDoubtSet[p] {
						blocked = true
						rec.Record(traceID, obs.EvFault, p, attempt, now, obs.FaultInDoubtBlock)
						break
					}
				}
			}

			// Crash points fire on rounds that would otherwise proceed.
			var fire *cluster.Crash
			if !blocked && len(writeParts) > 0 {
				fire = crashes.Next(cluster.Round{Coord: execCoord, WriteParts: writeParts, Distributed: distributed}, dead)
			}

			if !blocked && len(writeParts) > 0 {
				nextTxn++
				txn := nextTxn
				if fire != nil {
					cl.parts[fire.Node].ArmCrash(fire.Phase)
				}
				var out roundOutcome
				if distributed {
					out = drv.round2PC(srvCtx, txn, execCoord, writeParts, opsAt, dead)
				} else if drv.commitLocal(srvCtx, txn, writeParts[0], opsAt[writeParts[0]]) {
					out.committed = true
				}
				for _, p := range out.yes {
					rec.Record(traceID, obs.EvPrepare, p, attempt, now, 0)
				}
				if fire != nil && !cl.parts[fire.Node].Crashed() {
					// The armed message never arrived (every frame of the
					// phase was lost): the crash did not realize. Disarm and
					// treat the round at face value.
					cl.parts[fire.Node].ArmCrash("")
					fire = nil
				}
				if fire != nil {
					deadSet[fire.Node] = true
					rec.Record(traceID, obs.EvCrash, fire.Node, attempt, now, faults.PhaseCode(fire.Phase))
					if fire.Phase == faults.PhaseAfterDecision {
						// The decision is durable on the crashed coordinator:
						// the transaction IS committed even though nobody
						// heard it.
						committed = true
						res.Committed++
						res.Distributed++
						committedOps = append(committedOps, cluster.FlattenOps(writeParts, opsAt))
						if now > res.MakespanSec {
							res.MakespanSec = now
						}
					}
					for _, p := range out.unresolved {
						if !dead(p) {
							inDoubtSet[p] = true
						}
					}
					coordCrash := fire.Phase != faults.PhaseBeforePrepare
					if coordCrash && sb != nil {
						failover()
					}
				} else if out.committed {
					committed = true
					res.Committed++
					if distributed {
						res.Distributed++
					} else {
						res.Local++
					}
					committedOps = append(committedOps, cluster.FlattenOps(writeParts, opsAt))
					if now > res.MakespanSec {
						res.MakespanSec = now
					}
				}
			} else if !blocked {
				// No write effects (read-only / fully-replicated read):
				// nothing touches the wire.
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
			}

			if committed {
				latency := now - arrival
				allLat.Observe(int64(latency * 1e9))
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

	// End of run: the whole cluster crashes. Server goroutines unwind
	// (closing their logs as-is), then recovery replays every log.
	stopServers()
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, fmt.Errorf("twopc: participant: %w", err)
	default:
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

	rc, err := cluster.RecoverAndCheck(d.Schema(), cfg.WALDir, k, committedOps, rec, res.MakespanSec)
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
