// Package faults is a deterministic fault-injection layer for the JECB
// runtime experiments. The paper's whole argument (§1, §3) is that good
// partitioning pays off at runtime — fewer distributed transactions means
// fewer nodes that can stall a 2PC commit — so quantifying *degradation
// under failure* is the first result the framework implies but never
// measures. This package supplies the failure model: scripted scenarios
// (node crash/recover windows, per-message loss probability, latency
// spikes) realized by a seeded injector whose every sample is drawn from
// one rand.Rand in replay order, so a (scenario, seed) pair yields a
// bit-reproducible failure schedule.
//
// Consumers: internal/sim replays traces against an Injector in chaos
// mode (aborting and retrying distributed transactions whose participants
// are down), and internal/router consumes Health snapshots to fall back
// from single-partition routing to replica/degraded/broadcast routing.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/obs"
)

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	cInjectors   = obs.Default.Counter("faults.injectors_built")
	cLossSamples = obs.Default.Counter("faults.msg_loss_events")
	cSpikes      = obs.Default.Counter("faults.latency_spikes")
)

// ErrScenario is wrapped by every scenario-validation failure, so callers
// can errors.Is malformed external input without matching message text.
var ErrScenario = errors.New("faults: invalid scenario")

// scenarioErrorf builds a validation error wrapping ErrScenario.
func scenarioErrorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrScenario, fmt.Sprintf(format, args...))
}

// Window is one node-crash interval on the virtual-time axis: the node is
// unreachable for t in [Start, End). End = 0 means the node never
// recovers (a permanent crash).
type Window struct {
	Node  int     `json:"node"`
	Start float64 `json:"start"`
	End   float64 `json:"end,omitempty"`
}

// permanent reports whether the window never closes.
func (w Window) permanent() bool { return w.End <= 0 }

// covers reports whether virtual time t falls inside the window.
func (w Window) covers(t float64) bool {
	return t >= w.Start && (w.permanent() || t < w.End)
}

// The 2PC crash-point phases (see DESIGN.md, "Crash points & the 2PC
// state machine"). They name the instant inside a distributed commit at
// which the scripted node dies:
//
//	before-prepare   the node crashes before writing its PREPARE record;
//	                 the coordinator aborts the round and the crashed
//	                 node's log is left with an unprepared (presumed
//	                 abort) transaction and a torn tail.
//	before-commit    the node (as coordinator) crashes after every
//	                 participant prepared but before logging the commit
//	                 decision: all participants are left in doubt, and
//	                 presumed abort resolves the transaction as aborted.
//	after-decision   the node (as coordinator) crashes after durably
//	                 logging COMMIT but before the participants commit:
//	                 the transaction IS committed, participants are left
//	                 in doubt, and resolution replays it from their
//	                 prepared writes.
const (
	PhaseBeforePrepare = "before-prepare"
	PhaseBeforeCommit  = "before-commit"
	PhaseAfterDecision = "after-decision"
)

// The replication crash-point phases (see DESIGN.md, "Replication").
// They name instants inside a replica group's shipping protocol and only
// have meaning where replica groups execute (repl.Run); the
// durable and networked 2PC replays ignore them the same way the
// analytic replay ignores every crash point:
//
//	primary-mid-ship    the group's primary crashes after durably logging
//	                    a commit and shipping it to at most one backup:
//	                    the failure detector promotes the most-caught-up
//	                    live backup, and whether the commit survives is
//	                    exactly the commit rule's promise (quorum: yes;
//	                    async: only if the partial ship reached the
//	                    winner).
//	backup-mid-catchup  a backup crashes after applying only half of a
//	                    shipped record batch, without acknowledging it:
//	                    its log is a strict prefix of the chain, and
//	                    rejoin resumes shipping from its durable
//	                    watermark (or installs a snapshot when it fell
//	                    past the snapshot threshold).
const (
	PhasePrimaryMidShip   = "primary-mid-ship"
	PhaseBackupMidCatchup = "backup-mid-catchup"
)

var crashPhases = [...]string{PhaseBeforePrepare, PhaseBeforeCommit, PhaseAfterDecision,
	PhasePrimaryMidShip, PhaseBackupMidCatchup}

// CrashPhases lists the valid crash-point phases.
func CrashPhases() []string { return append([]string(nil), crashPhases[:]...) }

// PhaseCode returns the phase's 1-based position in CrashPhases, 0 for
// an unknown phase. It is the EvCrash flight-event argument and the code
// a twopc participant is armed with.
func PhaseCode(phase string) int64 {
	for i, p := range crashPhases {
		if p == phase {
			return int64(i + 1)
		}
	}
	return 0
}

// CrashPoint scripts one mid-2PC node crash in the durable replay. The
// point fires on the Seq-th (1-based) distributed commit round that
// qualifies: for before-prepare, any round Node participates in; for
// before-commit and after-decision, a round Node coordinates. The
// analytic chaos replay (sim.RunChaos) ignores crash points — they only
// have meaning where a real 2PC state machine executes
// (sim.RunDurable).
type CrashPoint struct {
	Node  int    `json:"node"`
	Phase string `json:"phase"`
	Seq   int    `json:"seq"`
}

// Scenario is a scripted failure schedule. All times are virtual seconds
// from the start of the replay; probabilities are per message attempt.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// Crashes lists node outage windows.
	Crashes []Window `json:"crashes,omitempty"`
	// MsgLossProb is the probability that one transaction attempt loses a
	// coordination message and must abort/retry even with all nodes up.
	// Only distributed attempts are exposed to it (local transactions
	// exchange no cross-node messages).
	MsgLossProb float64 `json:"msg_loss_prob,omitempty"`
	// LatencySpikeProb is the probability one attempt suffers a latency
	// spike of LatencySpikeSec virtual seconds (charged to commit latency,
	// not work).
	LatencySpikeProb float64 `json:"latency_spike_prob,omitempty"`
	// LatencySpikeSec is the spike magnitude in virtual seconds.
	LatencySpikeSec float64 `json:"latency_spike_sec,omitempty"`
	// CrashPoints scripts mid-2PC crashes for the durable replay; the
	// analytic replay ignores them.
	CrashPoints []CrashPoint `json:"crash_points,omitempty"`
}

// Validate checks the scenario against a cluster of k nodes (k <= 0 skips
// the node-range check). All failures wrap ErrScenario.
func (sc *Scenario) Validate(k int) error {
	if sc == nil {
		return scenarioErrorf("nil scenario")
	}
	for i, w := range sc.Crashes {
		if w.Node < 0 {
			return scenarioErrorf("crash %d: negative node %d", i, w.Node)
		}
		if k > 0 && w.Node >= k {
			return scenarioErrorf("crash %d: node %d out of range [0,%d)", i, w.Node, k)
		}
		if w.Start < 0 || math.IsNaN(w.Start) || math.IsInf(w.Start, 0) {
			return scenarioErrorf("crash %d: bad start %v", i, w.Start)
		}
		if math.IsNaN(w.End) || math.IsInf(w.End, 0) {
			return scenarioErrorf("crash %d: bad end %v", i, w.End)
		}
		if !w.permanent() && w.End <= w.Start {
			return scenarioErrorf("crash %d: end %v not after start %v", i, w.End, w.Start)
		}
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"msg_loss_prob", sc.MsgLossProb},
		{"latency_spike_prob", sc.LatencySpikeProb},
	} {
		if p.v < 0 || p.v > 1 || math.IsNaN(p.v) {
			return scenarioErrorf("%s %v outside [0,1]", p.name, p.v)
		}
	}
	if sc.LatencySpikeSec < 0 || math.IsNaN(sc.LatencySpikeSec) || math.IsInf(sc.LatencySpikeSec, 0) {
		return scenarioErrorf("latency_spike_sec %v negative or non-finite", sc.LatencySpikeSec)
	}
	for i, cp := range sc.CrashPoints {
		if cp.Node < 0 {
			return scenarioErrorf("crash point %d: negative node %d", i, cp.Node)
		}
		if k > 0 && cp.Node >= k {
			return scenarioErrorf("crash point %d: node %d out of range [0,%d)", i, cp.Node, k)
		}
		if PhaseCode(cp.Phase) == 0 {
			return scenarioErrorf("crash point %d: unknown phase %q (have: %v)", i, cp.Phase, CrashPhases())
		}
		if cp.Seq < 1 {
			return scenarioErrorf("crash point %d: seq %d < 1", i, cp.Seq)
		}
	}
	return nil
}

// String renders a one-line summary.
func (sc *Scenario) String() string {
	perm := 0
	for _, w := range sc.Crashes {
		if w.permanent() {
			perm++
		}
	}
	return fmt.Sprintf("scenario %q: %d crash windows (%d permanent), %d crash points, loss %.2g, spike %.2g×%.3fs",
		sc.Name, len(sc.Crashes), perm, len(sc.CrashPoints), sc.MsgLossProb, sc.LatencySpikeProb, sc.LatencySpikeSec)
}

// BuiltinNames lists the scenarios Builtin understands, sorted.
func BuiltinNames() []string {
	out := []string{"none", "single-crash", "rolling", "flaky-network", "half-down",
		"part-crash", "prep-crash", "coord-crash",
		"primary-crash-mid-ship", "backup-crash-mid-catchup"}
	sort.Strings(out)
	return out
}

// Builtin returns a named canned scenario sized for a k-node cluster:
//
//	none          no failures (control)
//	single-crash  node 0 down for the middle third of a 6-second run
//	rolling       each node down for 1.5s in sequence, staggered 1s apart
//	flaky-network no crashes; 2% message loss, 10% latency spikes of 20ms
//	half-down     the upper half of the cluster permanently crashes at t=2
//	part-crash    a participant dies before writing PREPARE on its 2nd
//	              distributed round (presumed abort, torn tail)
//	prep-crash    the coordinator dies after all participants prepared but
//	              before logging the decision (everyone in doubt → abort)
//	coord-crash   the coordinator dies after durably logging COMMIT but
//	              before the participants commit (in doubt → replayed)
//	primary-crash-mid-ship    (replicated replay only) partition 0's
//	              primary dies on its 3rd local commit after shipping it
//	              to at most one backup — the promotion-window crash
//	backup-crash-mid-catchup  (replicated replay only) a backup of
//	              partition 0 dies halfway through a shipped batch and
//	              rejoins by anti-entropy
func Builtin(name string, k int) (*Scenario, error) {
	if k <= 0 {
		return nil, scenarioErrorf("builtin %q: k=%d", name, k)
	}
	sc := &Scenario{Name: name}
	switch name {
	case "none":
	case "single-crash":
		sc.Crashes = []Window{{Node: 0, Start: 2, End: 4}}
		sc.MsgLossProb = 0.002
	case "rolling":
		for n := 0; n < k; n++ {
			start := 1 + float64(n)
			sc.Crashes = append(sc.Crashes, Window{Node: n, Start: start, End: start + 1.5})
		}
		sc.MsgLossProb = 0.002
	case "flaky-network":
		sc.MsgLossProb = 0.02
		sc.LatencySpikeProb = 0.10
		sc.LatencySpikeSec = 0.020
	case "half-down":
		for n := k / 2; n < k; n++ {
			sc.Crashes = append(sc.Crashes, Window{Node: n, Start: 2})
		}
	case "part-crash":
		n := 1
		if n >= k {
			n = k - 1
		}
		sc.CrashPoints = []CrashPoint{{Node: n, Phase: PhaseBeforePrepare, Seq: 5}}
	case "prep-crash":
		sc.CrashPoints = []CrashPoint{{Node: 0, Phase: PhaseBeforeCommit, Seq: 10}}
	case "coord-crash":
		sc.CrashPoints = []CrashPoint{{Node: 0, Phase: PhaseAfterDecision, Seq: 10}}
	case "primary-crash-mid-ship":
		sc.CrashPoints = []CrashPoint{{Node: 0, Phase: PhasePrimaryMidShip, Seq: 3}}
	case "backup-crash-mid-catchup":
		// The flaky wire forces in-round resends; the crash fires halfway
		// through a shipped batch, leaving an unacknowledged half-applied
		// durable prefix.
		sc.MsgLossProb = 0.05
		sc.CrashPoints = []CrashPoint{{Node: 0, Phase: PhaseBackupMidCatchup, Seq: 2}}
	default:
		return nil, scenarioErrorf("unknown builtin %q (have: %v)", name, BuiltinNames())
	}
	if err := sc.Validate(k); err != nil {
		return nil, err
	}
	return sc, nil
}

// Health is a point-in-time view of node availability. The router's
// degraded-routing paths consume it; sim's chaos replay produces it from
// an Injector.
type Health interface {
	// Down reports whether the node is unreachable.
	Down(node int) bool
}

// AllUp is the trivial Health under which every node is reachable.
var AllUp Health = allUp{}

type allUp struct{}

func (allUp) Down(int) bool { return false }

// NodeSet is a Health over an explicit set of down nodes: the durable
// replay's view of the partitions its crash points have killed.
type NodeSet map[int]bool

// Down reports whether the node is in the set.
func (s NodeSet) Down(node int) bool { return s[node] }

// Injector realizes a Scenario against a k-node cluster with a seeded
// random source. All stochastic samples (message loss, latency spikes,
// backoff jitter) are drawn from the single internal rand.Rand, so a
// fixed (scenario, k, seed) triple replays identically. The injector is
// NOT safe for concurrent use — replay is single-threaded by design,
// exactly so runs are reproducible.
type Injector struct {
	sc  *Scenario
	k   int
	rng *rand.Rand
	// perNode indexes crash windows by node for O(windows(node)) health
	// checks.
	perNode map[int][]Window
}

// NewInjector validates the scenario against k nodes and seeds the
// sampling source.
func NewInjector(sc *Scenario, k int, seed int64) (*Injector, error) {
	if err := sc.Validate(k); err != nil {
		return nil, err
	}
	in := &Injector{sc: sc, k: k, rng: rand.New(rand.NewSource(seed)), perNode: map[int][]Window{}}
	for _, w := range sc.Crashes {
		in.perNode[w.Node] = append(in.perNode[w.Node], w)
	}
	cInjectors.Inc()
	return in, nil
}

// K returns the cluster size.
func (in *Injector) K() int { return in.k }

// Down reports whether node is crashed at virtual time t.
func (in *Injector) Down(node int, t float64) bool {
	for _, w := range in.perNode[node] {
		if w.covers(t) {
			return true
		}
	}
	return false
}

// DownNodeSeconds integrates per-node outage over [0, horizon): the
// availability denominator for reports.
func (in *Injector) DownNodeSeconds(horizon float64) []float64 {
	out := make([]float64, in.k)
	for n := 0; n < in.k; n++ {
		for _, w := range in.perNode[n] {
			end := w.End
			if w.permanent() || end > horizon {
				end = horizon
			}
			if end > w.Start {
				out[n] += end - w.Start
			}
		}
	}
	return out
}

// SampleLoss draws one message-loss event for a distributed attempt.
func (in *Injector) SampleLoss() bool {
	if in.sc.MsgLossProb <= 0 {
		return false
	}
	if in.rng.Float64() < in.sc.MsgLossProb {
		cLossSamples.Inc()
		return true
	}
	return false
}

// SampleLatency draws the extra virtual latency of one attempt (0 when no
// spike fires).
func (in *Injector) SampleLatency() float64 {
	if in.sc.LatencySpikeProb <= 0 || in.sc.LatencySpikeSec <= 0 {
		return 0
	}
	if in.rng.Float64() < in.sc.LatencySpikeProb {
		cSpikes.Inc()
		return in.sc.LatencySpikeSec
	}
	return 0
}

// Jitter draws a multiplicative backoff jitter factor in
// [1-frac, 1+frac]. frac <= 0 returns exactly 1 without consuming
// randomness, so jitter-free configurations stay aligned across seeds.
func (in *Injector) Jitter(frac float64) float64 {
	if frac <= 0 {
		return 1
	}
	return 1 + frac*(2*in.rng.Float64()-1)
}

// At snapshots health at virtual time t as a router-consumable Health.
func (in *Injector) At(t float64) Health { return snapshot{in: in, t: t} }

type snapshot struct {
	in *Injector
	t  float64
}

func (s snapshot) Down(node int) bool { return s.in.Down(node, s.t) }

// RetryPolicy shapes the capped exponential backoff with jitter that
// chaos-mode transactions retry under (the standard distributed-commit
// retry loop; see DESIGN.md "Retry/backoff cost model").
type RetryPolicy struct {
	// MaxAttempts bounds total tries (first attempt included). A
	// transaction that exhausts them is reported as a permanent failure.
	// Default 6.
	MaxAttempts int
	// BaseBackoffSec is the wait after the first abort (default 10ms).
	BaseBackoffSec float64
	// MaxBackoffSec caps the exponential growth (default 1s).
	MaxBackoffSec float64
	// JitterFrac spreads each backoff uniformly in ±frac (default 0.2).
	JitterFrac float64
}

// WithDefaults fills unset fields.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 6
	}
	if p.BaseBackoffSec <= 0 {
		p.BaseBackoffSec = 0.010
	}
	if p.MaxBackoffSec <= 0 {
		p.MaxBackoffSec = 1.0
	}
	if p.JitterFrac < 0 {
		p.JitterFrac = 0
	} else if p.JitterFrac == 0 {
		p.JitterFrac = 0.2
	}
	return p
}

// Backoff returns the wait before retry number retry (1-based: the wait
// after the first abort is Backoff(1)), jittered by the injector's seeded
// source: base·2^(retry-1), capped at MaxBackoffSec.
func (p RetryPolicy) Backoff(retry int, in *Injector) float64 {
	if retry < 1 {
		retry = 1
	}
	b := p.BaseBackoffSec * math.Pow(2, float64(retry-1))
	if b > p.MaxBackoffSec {
		b = p.MaxBackoffSec
	}
	return b * in.Jitter(p.JitterFrac)
}

// BackoffAt is the jitter-free wait before retry number retry:
// base·2^(retry-1) capped at MaxBackoffSec. Transport-level
// retransmission loops pace themselves with it — an Injector's shared
// jitter stream is not concurrency-safe, and sampling it from message
// loops would make wire retries perturb transaction-level draws.
func (p RetryPolicy) BackoffAt(retry int) float64 {
	if retry < 1 {
		retry = 1
	}
	b := p.BaseBackoffSec * math.Pow(2, float64(retry-1))
	if b > p.MaxBackoffSec {
		b = p.MaxBackoffSec
	}
	return b
}
