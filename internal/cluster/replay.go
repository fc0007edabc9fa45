package cluster

import (
	"context"
	"runtime"

	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ArrivalRate returns the replay engines' offered load: trace length / 8
// (1 for an empty trace), so a full trace spans 8 virtual seconds and the
// builtin scenarios' crash windows land mid-run.
func ArrivalRate(traceLen int) float64 {
	if traceLen > 0 {
		return float64(traceLen) / 8
	}
	return 1
}

// PlaceWorkers is the worker count an engine that runs a protocol
// beside its window's placement gives eval.Assigner.PlaceTrace: every P
// but one, and at least one, so that the driver and its servers keep a P
// while the rest of the window is placed ahead of them. On 2 vCPUs,
// placing on every P instead left the protocol too little CPU to gain
// on TPC-E (see DESIGN.md, "Commit path: placement ahead of the
// protocol").
func PlaceWorkers() int { return max(1, runtime.GOMAXPROCS(0)-1) }

// ReplayConfig shapes one Replay: the offered load, the retry policy,
// the fault schedule, the routing checks and the observers.
type ReplayConfig struct {
	Seed           int64              // names the flight-recorder transactions
	ArrivalRateTPS float64            // transaction i arrives at virtual time i/rate
	Retry          faults.RetryPolicy // defaults applied
	Injector       *faults.Injector   // latency spikes and backoff jitter
	// Down reports node n unreachable at virtual time now: a degraded
	// read avoids it and an attempt that needs it is blocked. Nil keeps
	// every node up.
	Down func(n int, now float64) bool
	// InDoubt reports partition p locked by an in-doubt transaction: an
	// attempt that writes it is blocked. Nil locks none.
	InDoubt func(p int) bool

	Recorder *obs.Recorder   // flight events (nil: off)
	SLO      *obs.SLOMonitor // when non-nil, fed every transaction's outcome
	// Latency and RetryLatency, when non-nil, observe the samples behind
	// Tally's quantiles, in virtual nanoseconds.
	Latency, RetryLatency *obs.HDR
	// Journal keeps the write effects of each committed attempt that
	// has some in Tally.Journal, for RecoverAndCheck's oracle.
	Journal bool
}

// Attempt is what a Step sees of one attempt of one transaction.
type Attempt struct {
	TraceID uint64  // the transaction's flight-recorder id
	Num     int     // attempt number, from 1
	Now     float64 // virtual time
	// Nodes and Coord are the executing participants and coordinator: a
	// fully-replicated read has degraded to a reachable node.
	Nodes       []int
	Coord       int
	Distributed bool
	// Writes are the attempt's write effects (see WriteEffects), routed
	// to its coordinator; the bodies are valid until the step returns.
	Writes *Writes
	// Blocked reports a down participant or an in-doubt written
	// partition: the attempt must not commit.
	Blocked bool
}

// Step runs one attempt against an engine's commit path and reports
// whether it committed. Replay calls it on every attempt, after the
// routing checks and before the abort or commit accounting. The Attempt
// is reused across calls: step must not keep it.
type Step func(a *Attempt) (committed bool, err error)

// Tally is what Replay counts over a trace. Offered = Committed +
// PermanentFailures; Aborts counts the attempts that did not commit and
// Retries those followed by another attempt. Latencies are virtual
// seconds: over every transaction, and (RetryLatency*) over committed
// transactions that aborted at least once.
type Tally struct {
	Offered, Committed, PermanentFailures int
	Local, Distributed                    int
	PermanentByClass                      map[string]int // nil when none
	Attempts, Aborts, Retries             int
	AvailabilityPct                       float64 // 100·committed/offered
	MakespanSec                           float64 // last commit or give-up
	LatencyP50, LatencyP99, LatencyP999   float64
	RetryLatencyP50, RetryLatencyP99      float64
	SLO                                   obs.SLOStatus // zero without a monitor
	Journal                               Journal       // with ReplayConfig.Journal, in commit order
}

// Replay drives every transaction of tr through step: transaction i
// arrives at virtual time i/rate and is routed from its placements;
// each attempt samples a latency spike, degrades a fully-replicated
// read to a reachable node, checks for down participants and in-doubt
// partitions, and runs step. An attempt that does not commit aborts and
// retries after a jittered backoff until the retry budget is spent.
// Replay records the begin, route, fault, commit, abort, backoff and
// give-up flight events; step records the rest. It stops with ctx's
// error, before the next transaction, once ctx is done.
func Replay(ctx context.Context, tr *trace.Trace, placed *eval.TracePlacement, cfg ReplayConfig, step Step) (*Tally, error) {
	inj, rec, k := cfg.Injector, cfg.Recorder, cfg.Injector.K()
	down := cfg.Down
	if down == nil {
		down = func(int, float64) bool { return false }
	}
	t := &Tally{Offered: tr.Len()}
	var allLat, retriedLat obs.HDR // virtual nanoseconds
	observe := func(latency float64) {
		allLat.Observe(int64(latency * 1e9))
		if cfg.Latency != nil {
			cfg.Latency.Observe(int64(latency * 1e9))
		}
	}
	up := make([]int, 0, k)
	var a Attempt // one value for the whole run: step sees it by pointer
	var w Writes  // one routing arena for the whole run

	for i, txn := range tr.All() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		arrival := float64(i) / cfg.ArrivalRateTPS
		place := placed.Txn(i)
		nodes, coord, distributed := Participants(txn, place, k, i)
		a = Attempt{TraceID: obs.TxnID(cfg.Seed, i), Distributed: distributed, Writes: &w}
		rec.Record(a.TraceID, obs.EvBegin, -1, 0, arrival, int64(len(nodes)))
		dist := int64(0)
		if distributed {
			dist = 1
		}
		rec.Record(a.TraceID, obs.EvRoute, coord, 0, arrival, int64(len(nodes))<<8|dist)

		now := arrival
		committed := false
		for attempt := 1; attempt <= cfg.Retry.MaxAttempts; attempt++ {
			t.Attempts++
			now += inj.SampleLatency()
			a.Num, a.Now = attempt, now
			a.Nodes, a.Coord = nodes, coord
			if len(nodes) == 0 {
				// A fully-replicated read degrades to any reachable node;
				// with none, it stays blocked on its round-robin home.
				up = up[:0]
				for n := 0; n < k; n++ {
					if !down(n, now) {
						up = append(up, n)
					}
				}
				if len(up) > 0 {
					a.Coord = up[i%len(up)]
				}
				a.Nodes = []int{a.Coord}
			}
			WriteEffects(&w, txn, place, k, a.Coord)
			a.Blocked = false
			for _, n := range a.Nodes {
				if down(n, now) {
					a.Blocked = true
					rec.Record(a.TraceID, obs.EvFault, n, attempt, now, obs.FaultNodeDown)
					break
				}
			}
			// A partition holding an in-doubt transaction blocks new
			// writes (its keys stay locked until resolution); reads
			// degrade through.
			if !a.Blocked && cfg.InDoubt != nil {
				for _, p := range w.Parts {
					if cfg.InDoubt(p) {
						a.Blocked = true
						rec.Record(a.TraceID, obs.EvFault, p, attempt, now, obs.FaultInDoubtBlock)
						break
					}
				}
			}

			ok, err := step(&a)
			if err != nil {
				return nil, err
			}
			if ok {
				committed = true
				t.Committed++
				if distributed {
					t.Distributed++
				} else {
					t.Local++
				}
				latency := now - arrival
				observe(latency)
				if attempt > 1 {
					retriedLat.Observe(int64(latency * 1e9))
					if cfg.RetryLatency != nil {
						cfg.RetryLatency.Observe(int64(latency * 1e9))
					}
				}
				cfg.SLO.Record(latency, true)
				if cfg.Journal && len(w.Parts) > 0 {
					t.Journal.Add(&w)
				}
				rec.Record(a.TraceID, obs.EvCommit, a.Coord, attempt, now, int64(latency*1e9))
				t.MakespanSec = max(t.MakespanSec, now)
				break
			}
			t.Aborts++
			rec.Record(a.TraceID, obs.EvAbort, a.Coord, attempt, now, 0)
			if attempt == cfg.Retry.MaxAttempts {
				break
			}
			t.Retries++
			backoff := cfg.Retry.Backoff(attempt, inj)
			rec.Record(a.TraceID, obs.EvBackoff, -1, attempt, now, int64(backoff*1e9))
			now += backoff
		}
		if !committed {
			t.PermanentFailures++
			if t.PermanentByClass == nil {
				t.PermanentByClass = map[string]int{}
			}
			t.PermanentByClass[txn.Class]++
			latency := now - arrival
			observe(latency)
			cfg.SLO.Record(latency, false)
			rec.Record(a.TraceID, obs.EvGiveUp, -1, cfg.Retry.MaxAttempts, now, int64(latency*1e9))
			t.MakespanSec = max(t.MakespanSec, now)
		}
	}

	if t.Offered > 0 {
		t.AvailabilityPct = 100 * float64(t.Committed) / float64(t.Offered)
	}
	s := allLat.Snapshot()
	t.LatencyP50, t.LatencyP99, t.LatencyP999 = float64(s.P50)/1e9, float64(s.P99)/1e9, float64(s.P999)/1e9
	s = retriedLat.Snapshot()
	t.RetryLatencyP50, t.RetryLatencyP99 = float64(s.P50)/1e9, float64(s.P99)/1e9
	cfg.SLO.Flush()
	t.SLO = cfg.SLO.Status()
	return t, nil
}
