package repl

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Commit rules: when is a write client-acknowledged?
const (
	// RuleAsync acknowledges at the primary's local durable append; the
	// ship to the backups happens in the same round but the client does
	// not wait for it. A primary crash can lose acknowledged commits —
	// the LostCommits column measures exactly that.
	RuleAsync = "async"
	// RuleQuorum acknowledges only once ⌈(N+1)/2⌉ of the group's N=R+1
	// members (the primary plus R backups) hold the commit durably. A
	// single member crash can then never lose an acknowledged commit:
	// the promotion winner is the most-caught-up live backup, and a
	// quorum always intersects it.
	RuleQuorum = "quorum"
)

// Config shapes one replicated replay.
type Config struct {
	// Scenario is the fault scenario (required). Crash windows are
	// reinterpreted for replica groups: a window over node g kills group
	// g's *current primary* (backups are colocated failure domains the
	// window does not script), and the window's close rejoins the dead
	// member. Crash points use the 2PC phases plus the replication
	// phases (primary-mid-ship, backup-mid-catchup).
	Scenario *faults.Scenario
	// Seed drives every random draw: virtual latency spikes, backoff
	// jitter, and the transport chaos layer's hash-sampled frame fates.
	Seed int64
	// WALDir holds the per-member group logs (required).
	WALDir string
	// Transport picks the wire: "bus" (default) or "tcp".
	Transport string
	// Replicas is R, the backups per group (default 2; N = R+1 members).
	Replicas int
	// CommitRule is RuleAsync (default) or RuleQuorum.
	CommitRule string
	// StalenessBudget bounds replica reads: a fully-replicated read is
	// served from a backup only when its lag (records behind the chain
	// head) is at most this many records (default 64).
	StalenessBudget int64
	// SnapshotLag is the rejoin threshold: a member further behind than
	// this many records (or whose chain diverged) rejoins via snapshot
	// install instead of a log-tail ship (default 512).
	SnapshotLag int64

	// ArrivalRateTPS is the offered load (default: trace length / 8).
	ArrivalRateTPS float64
	// Retry shapes the transaction-level retry loop.
	Retry faults.RetryPolicy
	// Wire shapes per-message retransmission (default base 20ms, cap
	// 200ms, like twopc).
	Wire faults.RetryPolicy
	// AckWait is the per-attempt reply window (default 25ms).
	AckWait time.Duration
	// HeartbeatEvery / LeaseTimeout shape the per-group failure
	// detector's lease (defaults 25ms / 150ms).
	HeartbeatEvery time.Duration
	LeaseTimeout   time.Duration
	// SpikeDelay is the real delivery delay of a chaos-spiked frame
	// (default 2ms).
	SpikeDelay time.Duration

	// Recorder, when non-nil, receives driver-side flight events.
	Recorder *obs.Recorder
}

func (c Config) withDefaults(traceLen int) Config {
	if c.Transport == "" {
		c.Transport = "bus"
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.CommitRule == "" {
		c.CommitRule = RuleAsync
	}
	if c.StalenessBudget <= 0 {
		c.StalenessBudget = 64
	}
	if c.SnapshotLag <= 0 {
		c.SnapshotLag = 512
	}
	c.ArrivalRateTPS = cluster.ArrivalRate(c.ArrivalRateTPS, traceLen)
	c.Retry = c.Retry.WithDefaults()
	c.Wire = c.Wire.WithDefaults()
	if c.Wire.BaseBackoffSec == 0.010 { // faults default is tuned for txn retries
		c.Wire.BaseBackoffSec = 0.020
		c.Wire.MaxBackoffSec = 0.200
	}
	if c.AckWait <= 0 {
		c.AckWait = 25 * time.Millisecond
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

// Result is the outcome of one replicated replay. All fields are plain
// deterministic data — same-seed runs over the bus marshal to
// byte-identical JSON, and their flight dumps are byte-identical too.
type Result struct {
	Scenario   string `json:"scenario"`
	Seed       int64  `json:"seed"`
	Groups     int    `json:"groups"`
	Replicas   int    `json:"replicas"`
	CommitRule string `json:"commit_rule"`
	Transport  string `json:"transport"`

	Offered           int `json:"offered"`
	Committed         int `json:"committed"`
	Aborts            int `json:"aborts"`
	Retries           int `json:"retries"`
	PermanentFailures int `json:"permanent_failures"`
	Local             int `json:"local"`
	Distributed       int `json:"distributed"`

	// LostCommits counts client-acknowledged writes discarded by a
	// promotion (the acknowledged chain suffix died with the primary).
	// RuleQuorum's promise is that this stays 0 under any single crash.
	LostCommits int `json:"lost_commits"`
	// Promotions counts failovers; CrashedGroups lists the groups whose
	// primary died at least once.
	Promotions    int   `json:"promotions"`
	CrashedGroups []int `json:"crashed_groups,omitempty"`
	// QuorumDegraded counts quorum waits that fell short with the
	// primary still alive (commit proceeds on the primary's durability).
	QuorumDegraded int `json:"quorum_degraded"`

	RecordsShipped int64 `json:"records_shipped"`
	// CatchupRecords counts records shipped by anti-entropy (rejoins and
	// the end-of-run drain) rather than the per-round ship.
	CatchupRecords  int64 `json:"catchup_records"`
	SnapshotRejoins int   `json:"snapshot_rejoins"`
	// RollbackMembers counts rejoining members whose chain had diverged
	// (a deposed primary's unreplicated suffix) and was discarded.
	RollbackMembers int `json:"rollback_members"`

	// ReplicaReads counts fully-replicated reads served from a backup
	// within the staleness budget; StaleReadsAvoided counts reads that
	// fell back to the primary because every backup was over budget.
	ReplicaReads      int `json:"replica_reads"`
	StaleReadsAvoided int `json:"stale_reads_avoided"`
	// MaxLag is the largest backup lag observed at a round boundary;
	// Lags is the per-member lag at the end of the replay, before the
	// final anti-entropy drain (dead members are absent — their lag is
	// unknown, which is exactly how a bounded-staleness router must
	// treat them).
	MaxLag int64         `json:"max_lag"`
	Lags   map[int]int64 `json:"lags,omitempty"`

	AvailabilityPct float64 `json:"availability_pct"`
	MakespanSec     float64 `json:"makespan_sec"`
	LatencyP50      float64 `json:"latency_p50_sec"`
	LatencyP99      float64 `json:"latency_p99_sec"`
	LatencyP999     float64 `json:"latency_p999_sec"`

	// ConvergedMembers / TotalMembers report the end-of-run oracle's
	// member sweep: after anti-entropy, the full-cluster crash, and
	// per-member WAL recovery, every member's store must equal its
	// group's re-executed committed set.
	ConvergedMembers int `json:"converged_members"`
	TotalMembers     int `json:"total_members"`

	TableDigests map[string]string `json:"table_digests"`
	OracleOK     bool              `json:"oracle_ok"`
}

// String renders a one-line summary.
func (r *Result) String() string {
	oracle := "CONSISTENT"
	if !r.OracleOK {
		oracle = "DIVERGED"
	}
	return fmt.Sprintf("repl/%s/%s %q seed=%d: %d/%d committed, %d lost, "+
		"%d promotions, %d/%d members converged, oracle %s",
		r.Transport, r.CommitRule, r.Scenario, r.Seed, r.Committed, r.Offered,
		r.LostCommits, r.Promotions, r.ConvergedMembers, r.TotalMembers, oracle)
}

// journalEntry is one client-acknowledged transaction: its write effects
// and, per involved group, the chain sequence of its COMMIT record. A
// promotion at watermark w loses every entry whose sequence in that
// group exceeds w.
type journalEntry struct {
	ops  []cluster.PartOp
	seqs map[int]int64
	lost bool
}

// group bundles one partition's replica-group state on the driver side.
type group struct {
	id int
	pr *primary
	// members holds the backup servers by member slot; the current
	// primary's slot is absent. dead marks slots whose server exited
	// (crash or deposed primary); diverged marks dead slots whose log
	// must be discarded at rejoin.
	members  map[int]*backup
	dead     map[int]bool
	diverged map[int]bool
}

func (g *group) liveBackups() []int {
	out := make([]int, 0, len(g.members))
	for m := range g.members {
		if !g.dead[m] {
			out = append(out, m)
		}
	}
	sort.Ints(out)
	return out
}

// harness is the wired-up state of one replicated replay.
type harness struct {
	cfg Config
	k   int
	sc  *faults.Scenario
	inj *faults.Injector
	rec *obs.Recorder

	bus    *transport.Bus // nil under tcp
	eps    []transport.Transport
	groups []*group
	det    []*detector
	alive  []atomic.Bool

	srvCtx context.Context
	wg     *sync.WaitGroup

	driverID int
	seq      int // monotonic send-attempt counter (chaos resampling)

	journal []journalEntry
	res     *Result
	catchup bool // acked records count as anti-entropy, not round ship
	// storeErr is the first failure to materialize a primary's store for
	// a snapshot install; the replay and its epilogue stop on it.
	storeErr error
}

func (h *harness) detID(g int) int { return h.k*(h.cfg.Replicas+1) + 1 + g }
func (h *harness) memberOf(id int) (g, m int) {
	return id / (h.cfg.Replicas + 1), id % (h.cfg.Replicas + 1)
}

// send ships one driver frame, bumping the attempt counter so chaos
// resamples every retransmission.
func (h *harness) send(ctx context.Context, to int, typ uint8, txn uint64, payload []byte) {
	h.seq++
	_ = h.eps[h.driverID].Send(ctx, transport.Msg{
		Type: typ, From: h.driverID, To: to, Txn: txn, Attempt: h.seq, Payload: payload,
	})
}

// attemptCtx bounds one send attempt's reply window: every receive of
// the attempt shares its deadline.
func (h *harness) attemptCtx(ctx context.Context, attempt int) (context.Context, context.CancelFunc) {
	w := time.Duration(h.cfg.Wire.BackoffAt(attempt) * float64(time.Second))
	if w < h.cfg.AckWait {
		w = h.cfg.AckWait
	}
	return context.WithDeadline(ctx, time.Now().Add(w))
}

func (h *harness) recv(ctx context.Context) (transport.Msg, bool) {
	m, err := h.eps[h.driverID].Recv(ctx)
	return m, err == nil
}

// handleAck folds any append-ack into the owning group's watermark book.
func (h *harness) handleAck(m transport.Msg) {
	if m.Type != MsgAppendAck {
		return
	}
	g, mem := h.memberOf(m.From)
	if g >= h.k {
		return
	}
	_, seq, err := decodeSeq(m.Payload)
	if err != nil {
		return
	}
	grp := h.groups[g]
	if grp.pr.acked[mem] < seq {
		delta := seq - grp.pr.acked[mem]
		grp.pr.acked[mem] = seq
		cAcks.Inc()
		if h.catchup {
			h.res.CatchupRecords += delta
			cCatchupRecords.Add(delta)
		} else {
			h.res.RecordsShipped += delta
			cRecordsShipped.Add(delta)
		}
	}
}

// shipTo drives one backup's watermark to target: resend the chain tail
// from its acked watermark, folding in acks, until it reaches target or
// the attempt budget runs out. A member that scripted-crashed mid-batch
// is marked dead. Returns whether the target was reached.
func (h *harness) shipTo(ctx context.Context, g, mem int, target int64, maxAttempts int, traceID uint64, vt float64) bool {
	grp := h.groups[g]
	b := grp.members[mem]
	if b == nil || grp.dead[mem] {
		return false
	}
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if grp.pr.acked[mem] >= target {
			return true
		}
		base := grp.pr.acked[mem]
		recs, ok := grp.pr.since(base)
		if !ok {
			// History truncated behind the member (snapshot-installed
			// chain): only a snapshot install can catch it up.
			return h.snapshotTo(ctx, g, mem, traceID, vt)
		}
		h.send(ctx, b.id, MsgAppend, traceID, encodeAppend(grp.pr.epoch, base, recs))
		h.rec.Record(traceID, obs.EvShip, b.id, attempt, vt, int64(len(recs))<<16|base&0xffff)
		actx, cancel := h.attemptCtx(ctx, attempt)
		for grp.pr.acked[mem] < target {
			m, got := h.recv(actx)
			if !got {
				break
			}
			h.handleAck(m)
			if m.Type == MsgAppendAck && m.From == b.id {
				h.rec.Record(traceID, obs.EvReplAck, b.id, attempt, vt, grp.pr.acked[mem])
			}
		}
		cancel()
		if grp.pr.acked[mem] >= target {
			return true
		}
		if b.crashed.Load() {
			<-b.done
			grp.dead[mem] = true
			h.rec.Record(traceID, obs.EvCrash, b.id, attempt, vt, faults.PhaseCode(faults.PhaseBackupMidCatchup))
			return false
		}
		if ctx.Err() != nil {
			return false
		}
	}
	return false
}

// snapshotTo installs the primary's current snapshot on a member
// (must-deliver) and counts the rejoin. The snapshot is the primary's
// store, materialized through the chain head.
func (h *harness) snapshotTo(ctx context.Context, g, mem int, traceID uint64, vt float64) bool {
	grp := h.groups[g]
	b := grp.members[mem]
	base := grp.pr.seq
	st, err := grp.pr.store()
	if err != nil {
		if h.storeErr == nil {
			h.storeErr = fmt.Errorf("repl: group %d primary store: %w", g, err)
		}
		return false
	}
	payload := encodeSnapshot(grp.pr.epoch, base, st.EncodeSnapshot())
	for attempt := 1; attempt <= 4*h.cfg.Wire.MaxAttempts; attempt++ {
		h.send(ctx, b.id, MsgSnapshotOffer, traceID, payload)
		actx, cancel := h.attemptCtx(ctx, attempt)
		for grp.pr.acked[mem] < base {
			m, got := h.recv(actx)
			if !got {
				break
			}
			h.handleAck(m)
		}
		cancel()
		if grp.pr.acked[mem] >= base {
			h.res.SnapshotRejoins++
			cSnapshotRejoins.Inc()
			h.rec.Record(traceID, obs.EvCatchup, b.id, attempt, vt, -base)
			return true
		}
		if ctx.Err() != nil {
			return false
		}
	}
	return false
}

// shipAsync runs the async rule's per-round ship: one bounded pass over
// the group's live backups. Failures leave lag for the next round's ship
// (or the final drain) to heal.
func (h *harness) shipAsync(ctx context.Context, g int, target int64, traceID uint64, vt float64) {
	for _, mem := range h.groups[g].liveBackups() {
		h.shipTo(ctx, g, mem, target, h.cfg.Wire.MaxAttempts, traceID, vt)
	}
}

// quorumShip blocks until ⌈(N+1)/2⌉ members (the primary included) hold
// the chain through target durably, then gives the remaining members one
// bounded ship each so non-quorum members stay near the chain head
// instead of starving. Returns false — degraded, not failed: the commit
// stands on the primary's durability — when the quorum is unreachable
// (too few live backups, or must-deliver exhausted).
func (h *harness) quorumShip(ctx context.Context, g int, target int64, traceID uint64, vt float64) bool {
	cQuorumWaits.Inc()
	need := (h.cfg.Replicas+3)/2 - 1 // backup acks needed beside the primary
	acked := 0
	for _, mem := range h.groups[g].liveBackups() {
		if h.groups[g].pr.acked[mem] >= target {
			acked++
			continue
		}
		if acked >= need {
			continue // quorum met: the best-effort pass below covers it
		}
		if h.shipTo(ctx, g, mem, target, 4*h.cfg.Wire.MaxAttempts, traceID, vt) {
			acked++
		}
	}
	for _, mem := range h.groups[g].liveBackups() {
		if h.groups[g].pr.acked[mem] < target {
			h.shipTo(ctx, g, mem, target, h.cfg.Wire.MaxAttempts, traceID, vt)
		}
	}
	if acked < need {
		h.res.QuorumDegraded++
		cQuorumDegraded.Inc()
		return false
	}
	return true
}

// killPrimary realizes a primary death: the log closes as-is (torn tail
// included, when the caller tore it) and the slot is marked dead until
// rejoin. The caller must promote next.
func (h *harness) killPrimary(g int) {
	grp := h.groups[g]
	grp.pr.log.Close()
	grp.dead[grp.pr.member] = true
}

// promoteGroup runs the deterministic promotion handshake: heartbeats
// stop, the group's lease lapses, the detector picks the most-caught-up
// live backup, and the driver adopts its chain as the new primary. Every
// journaled commit beyond the winner's watermark is lost — the async
// rule's exposure, and exactly what the quorum rule's intersection
// argument rules out.
func (h *harness) promoteGroup(ctx context.Context, g int, traceID uint64, vt float64) error {
	grp := h.groups[g]
	h.alive[g].Store(false)
	prom := <-h.det[g].done()
	if prom.Member < 0 {
		return fmt.Errorf("repl: group %d lost every member", g)
	}
	pg, pm := h.memberOf(prom.Member)
	if pg != g {
		return fmt.Errorf("repl: promotion crossed groups: %d vs %d", pg, g)
	}
	b := grp.members[pm]
	<-b.done // serve exited on MsgPromote; its state is ours now

	old := grp.pr
	if old.seq > prom.Watermark {
		grp.diverged[old.member] = true
	}
	for i := range h.journal {
		e := &h.journal[i]
		if !e.lost && e.seqs[g] > prom.Watermark {
			e.lost = true
			h.res.LostCommits++
			cLostCommits.Inc()
		}
	}

	acked := make(map[int]int64, h.cfg.Replicas)
	for m, was := range old.acked {
		if m == pm {
			continue
		}
		if was > prom.Watermark {
			was = prom.Watermark
		}
		acked[m] = was
	}
	// The winner's chain — its unapplied backlog included — is the
	// group's chain now.
	grp.pr = &primary{group: g, member: pm, epoch: prom.Epoch, chain: b.chain, acked: acked}
	delete(grp.members, pm)

	h.res.Promotions++
	h.rec.Record(traceID, obs.EvPromote, prom.Member, 0, vt, prom.Watermark<<8|int64(g))

	// Fresh detector for the new epoch, then heartbeats resume.
	h.det[g] = h.newDetectorFor(g)
	h.wg.Add(1)
	go func(dt *detector) {
		defer h.wg.Done()
		dt.run(h.srvCtx)
	}(h.det[g])
	h.alive[g].Store(true)
	return nil
}

func (h *harness) newDetectorFor(g int) *detector {
	grp := h.groups[g]
	cands := make([]int, 0, h.cfg.Replicas)
	for m := 0; m <= h.cfg.Replicas; m++ {
		if m != grp.pr.member {
			cands = append(cands, memberID(g, m, h.cfg.Replicas))
		}
	}
	return newDetector(g, h.detID(g), h.eps[h.detID(g)], h.driverID, cands,
		grp.pr.epoch, h.cfg.LeaseTimeout, h.cfg.Wire, h.cfg.AckWait)
}

// rejoinMember brings a dead slot back as a backup: a deposed primary's
// diverged log is discarded and snapshot-installed; a cleanly-crashed
// backup resumes from its durable watermark via a log-tail ship.
func (h *harness) rejoinMember(ctx context.Context, g, mem int, vt float64) error {
	grp := h.groups[g]
	b := grp.members[mem]
	if b == nil {
		// The slot was a primary: build a server over its pre-registered
		// endpoint. Creating the backup truncates the old log file —
		// discarding the diverged suffix is the point.
		var err error
		b, err = newBackup(g, mem, h.cfg.Replicas, grp.pr.sc, h.cfg.WALDir, h.eps[memberID(g, mem, h.cfg.Replicas)])
		if err != nil {
			return err
		}
		grp.members[mem] = b
	} else {
		b.restart()
	}
	delete(grp.dead, mem)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		b.serve(h.srvCtx)
	}()

	wasAcked := grp.pr.acked[mem]
	_, tailOK := grp.pr.since(wasAcked)
	if grp.diverged[mem] || !tailOK || grp.pr.seq-wasAcked > h.cfg.SnapshotLag {
		if grp.diverged[mem] {
			h.res.RollbackMembers++
			delete(grp.diverged, mem)
		}
		grp.pr.acked[mem] = 0
		if !h.snapshotTo(ctx, g, mem, 0, vt) {
			if h.storeErr != nil {
				return h.storeErr
			}
			return fmt.Errorf("repl: group %d member %d snapshot rejoin failed", g, mem)
		}
		return nil
	}
	before := grp.pr.acked[mem]
	if !h.shipTo(ctx, g, mem, grp.pr.seq, 4*h.cfg.Wire.MaxAttempts, 0, vt) {
		return fmt.Errorf("repl: group %d member %d tail rejoin failed", g, mem)
	}
	h.rec.Record(0, obs.EvCatchup, memberID(g, mem, h.cfg.Replicas), 0, vt, grp.pr.seq-before)
	return nil
}
