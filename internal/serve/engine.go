package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/router"
	"repro/internal/sqlparse"
	"repro/internal/trace"
)

// The serving engine: a discrete-event simulation in virtual time.
// Three event kinds drive it — a request arriving (from the load
// generator), a request re-entering admission after a retry backoff,
// and a worker finishing a service attempt. Events are ordered by
// (virtual time, sequence); every random draw (arrival gaps, think
// times, fault samples) comes from one seeded source consumed in event
// order, so the whole run — including the real commits it applies to
// the partition stores — is a pure function of (config, seed).

// vtDeadlineKey carries a request's virtual-time deadline on its
// context, mirroring context.WithDeadline for the simulated clock.
type vtDeadlineKey struct{}

// WithVTDeadline returns a context carrying a virtual-time deadline.
// The engine attaches one to every request; the dispatch, retry, and
// goodput decisions read it back with VTDeadline — the virtual-clock
// analogue of context deadline propagation.
func WithVTDeadline(ctx context.Context, vt float64) context.Context {
	return context.WithValue(ctx, vtDeadlineKey{}, vt)
}

// VTDeadline returns the context's virtual-time deadline, false when
// none is set.
func VTDeadline(ctx context.Context) (float64, bool) {
	vt, ok := ctx.Value(vtDeadlineKey{}).(float64)
	return vt, ok
}

// request is one generated client request's lifecycle state.
type request struct {
	idx     int // arrival index; the trace transaction is idx mod len
	session int
	t       *trace.Txn
	traceID uint64
	ctx     context.Context // carries the virtual-time deadline
	arrival float64
	tries   int // execution attempts consumed (first try included)
	retries int // backoff re-admissions consumed (sheds included)
}

// deadline reads the request's propagated virtual-time deadline.
func (r *request) deadline() float64 {
	vt, ok := VTDeadline(r.ctx)
	if !ok {
		return math.Inf(1)
	}
	return vt
}

// doneInfo is the resolved outcome of one in-flight service attempt.
type doneInfo struct {
	req      *request
	dec      router.Decision
	occ      float64 // worker occupancy, virtual seconds
	ok       bool
	failNode int
	failCode int64 // obs.FaultNodeDown or obs.FaultMsgLoss
}

type evKind int

const (
	evArrival evKind = iota
	evRetry
	evDone
)

type event struct {
	vt   float64
	seq  uint64
	kind evKind
	req  *request
	info *doneInfo
}

// eventHeap orders events by (vt, seq): virtual time first, insertion
// order on ties — the determinism tiebreak.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].vt != h[j].vt {
		return h[i].vt < h[j].vt
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)     { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any       { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peekEmpty() bool { return len(h) == 0 }

// failKind classifies why an attempt could not commit, for the retry
// and final-outcome bookkeeping.
type failKind int

const (
	failShed   failKind = iota // admission refused (token or queue)
	failDenied                 // router fast-fail under an open breaker
	failFault                  // executed attempt hit an injected fault
)

type engine struct {
	cfg    Config
	d      *db.DB
	sol    *partition.Solution
	tr     *trace.Trace
	rt     *router.Router
	asg    *eval.Assigner
	inj    *faults.Injector
	local  *cluster.LocalWAL
	adm    *admission
	brs    []*breaker
	slo    *obs.SLOMonitor
	rec    *obs.Recorder
	rng    *rand.Rand
	capTPS float64

	events eventHeap
	seq    uint64

	queue  []*request
	qhead  int
	busy   int
	budget []int // per-session retry budget

	lastWindows int
	lat         obs.HDR
	res         *Result
	nextIdx     int
	nextTxn     uint64
}

func newEngine(ctx context.Context, d *db.DB, sol *partition.Solution, tr *trace.Trace,
	cfg Config, capTPS float64) (*engine, error) {
	switch cfg.Load.Arrival {
	case ArrivalPoisson, ArrivalBurst, ArrivalClosed:
	default:
		return nil, fmt.Errorf("serve: unknown arrival process %q", cfg.Load.Arrival)
	}
	var analyses []*sqlparse.Analysis
	for _, proc := range cfg.Procedures {
		a, err := sqlparse.Analyze(proc, d.Schema())
		if err != nil {
			return nil, fmt.Errorf("serve: analyze %s: %w", proc.Name, err)
		}
		analyses = append(analyses, a)
	}
	rt, err := router.New(d, sol, analyses)
	if err != nil {
		return nil, err
	}
	asg, err := eval.NewAssigner(d, sol)
	if err != nil {
		return nil, err
	}
	sc := cfg.Scenario
	if sc == nil {
		none, err := faults.Builtin("none", sol.K)
		if err != nil {
			none = &faults.Scenario{Name: "none"}
		}
		sc = none
	}
	inj, err := faults.NewInjector(sc, sol.K, cfg.Seed)
	if err != nil {
		return nil, err
	}
	local, err := cluster.NewLocalWAL(d.Schema(), sol.K, cfg.WALDir, cfg.Recorder)
	if err != nil {
		return nil, err
	}
	e := &engine{
		cfg:    cfg,
		d:      d,
		sol:    sol,
		tr:     tr,
		rt:     rt,
		asg:    asg,
		inj:    inj,
		local:  local,
		adm:    newAdmission(cfg.Admission),
		slo:    obs.NewSLOMonitor(cfg.SLO),
		rec:    cfg.Recorder,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		capTPS: capTPS,
		budget: make([]int, cfg.Load.Sessions),
		res: &Result{
			Scenario:    sc.Name,
			Seed:        cfg.Seed,
			Nodes:       sol.K,
			Workers:     cfg.Workers,
			Arrival:     cfg.Load.Arrival,
			OfferedTPS:  cfg.Load.OfferedTPS,
			CapacityTPS: capTPS,
			DurationSec: cfg.Load.DurationSec,
			DeadlineSec: cfg.DeadlineSec,
			AdmissionOn: cfg.Admission.Enabled,
		},
	}
	for s := range e.budget {
		e.budget[s] = cfg.RetryBudget
	}
	e.brs = make([]*breaker, sol.K)
	for p := 0; p < sol.K; p++ {
		e.brs[p] = newBreaker(p, cfg.Breaker, func(part int, st breakerState, now float64) {
			e.rec.Record(0, obs.EvBreaker, part, 0, now, st.code())
		})
	}
	return e, nil
}

func (e *engine) push(vt float64, kind evKind, req *request, info *doneInfo) {
	e.seq++
	heap.Push(&e.events, event{vt: vt, seq: e.seq, kind: kind, req: req, info: info})
}

// newRequest mints the idx-th request arriving at vt.
func (e *engine) newRequest(idx, session int, vt float64) *request {
	r := &request{
		idx:     idx,
		session: session,
		t:       e.tr.At(idx % e.tr.Len()),
		traceID: obs.TxnID(e.cfg.Seed, idx),
		ctx:     WithVTDeadline(context.Background(), vt+e.cfg.DeadlineSec),
		arrival: vt,
	}
	e.res.Offered++
	cServeRequests.Inc()
	e.rec.Record(r.traceID, obs.EvBegin, -1, 0, vt, int64(session))
	return r
}

// interarrival draws the next open-loop gap at the instantaneous rate
// in effect at virtual time last.
func (e *engine) interarrival(last float64) float64 {
	rate := e.cfg.Load.OfferedTPS
	if e.cfg.Load.Arrival == ArrivalBurst {
		const duty = 0.25
		base := e.cfg.Load.OfferedTPS / (duty*e.cfg.Load.BurstFactor + (1 - duty))
		rate = base
		if math.Mod(last, e.cfg.Load.BurstPeriodSec) < duty*e.cfg.Load.BurstPeriodSec {
			rate = base * e.cfg.Load.BurstFactor
		}
	}
	return e.rng.ExpFloat64() / rate
}

// seedArrivals schedules the first arrival(s).
func (e *engine) seedArrivals() {
	if e.cfg.Load.Arrival == ArrivalClosed {
		for s := 0; s < e.cfg.Load.Sessions; s++ {
			t := e.rng.ExpFloat64() * e.cfg.Load.ThinkTimeSec
			if t <= e.cfg.Load.DurationSec {
				e.push(t, evArrival, e.newRequest(e.nextIdx, s, t), nil)
				e.nextIdx++
			}
		}
		return
	}
	t := e.interarrival(0)
	if t <= e.cfg.Load.DurationSec {
		e.push(t, evArrival, e.newRequest(e.nextIdx, e.nextIdx%e.cfg.Load.Sessions, t), nil)
		e.nextIdx++
	}
}

// nextOpenArrival chains the open-loop generator: called when an
// arrival event fires, it schedules the one after. Closed-loop arrivals
// are paced by their sessions instead (sessionNext).
func (e *engine) nextOpenArrival(now float64) {
	if e.cfg.Load.Arrival == ArrivalClosed {
		return
	}
	t := now + e.interarrival(now)
	if t > e.cfg.Load.DurationSec {
		return
	}
	e.push(t, evArrival, e.newRequest(e.nextIdx, e.nextIdx%e.cfg.Load.Sessions, t), nil)
	e.nextIdx++
}

// sessionNext schedules a closed-loop session's next request after a
// think time (no-op for open-loop runs or past the horizon).
func (e *engine) sessionNext(session int, now float64) {
	if e.cfg.Load.Arrival != ArrivalClosed {
		return
	}
	t := now + e.rng.ExpFloat64()*e.cfg.Load.ThinkTimeSec
	if t > e.cfg.Load.DurationSec {
		return
	}
	e.push(t, evArrival, e.newRequest(e.nextIdx, session, t), nil)
	e.nextIdx++
}

// run drives the event loop to completion and assembles the result.
func (e *engine) run() (*Result, error) {
	heap.Init(&e.events)
	e.seedArrivals()
	for !e.events.peekEmpty() {
		ev := heap.Pop(&e.events).(event)
		now := ev.vt
		var err error
		switch ev.kind {
		case evArrival:
			e.nextOpenArrival(now)
			err = e.admit(ev.req, now)
		case evRetry:
			err = e.admit(ev.req, now)
		case evDone:
			if err = e.resolve(ev.info, now); err == nil {
				err = e.dispatchQueue(now)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return e.finishRun()
}

// admit pushes a request through the protection layer at virtual time
// now: token bucket, then a free worker or the bounded queue.
func (e *engine) admit(req *request, now float64) error {
	if e.cfg.Admission.Enabled {
		if err := e.adm.allow(now); err != nil {
			e.res.ShedToken++
			cServeSheds.Inc()
			e.rec.Record(req.traceID, obs.EvShed, -1, req.tries, now, obs.ShedToken)
			e.retryOrFinal(req, now, failShed)
			return nil
		}
	}
	if e.busy < e.cfg.Workers {
		return e.startService(req, now)
	}
	if !e.cfg.Admission.Enabled || e.qlen() < e.cfg.Admission.QueueDepth {
		e.enqueue(req)
		return nil
	}
	e.res.ShedQueue++
	cServeSheds.Inc()
	e.rec.Record(req.traceID, obs.EvShed, -1, req.tries, now, obs.ShedQueue)
	e.retryOrFinal(req, now, failShed)
	return nil
}

func (e *engine) qlen() int { return len(e.queue) - e.qhead }

func (e *engine) enqueue(req *request) {
	// Compact the drained prefix occasionally so the slice does not grow
	// without bound across the run.
	if e.qhead > 1024 && e.qhead*2 > len(e.queue) {
		e.queue = append(e.queue[:0], e.queue[e.qhead:]...)
		e.qhead = 0
	}
	e.queue = append(e.queue, req)
}

func (e *engine) dequeue() *request {
	req := e.queue[e.qhead]
	e.queue[e.qhead] = nil
	e.qhead++
	return req
}

// dispatchQueue hands freed workers the oldest queued requests,
// dropping any whose propagated deadline already passed — they record
// their full queueing delay as an expiration (that delay IS the
// overload signal the p999 objective sees).
func (e *engine) dispatchQueue(now float64) error {
	for e.busy < e.cfg.Workers && e.qlen() > 0 {
		req := e.dequeue()
		if now > req.deadline() {
			e.res.QueueExpired++
			e.finishExecuted(req, now, outcomeExpired)
			continue
		}
		if err := e.startService(req, now); err != nil {
			return err
		}
	}
	return nil
}

// startService consumes one execution attempt: route under the breaker
// health view, then either fail fast (open breaker) or occupy a worker
// for the attempt's cost and schedule its completion.
func (e *engine) startService(req *request, now float64) error {
	req.tries++
	e.res.Attempts++
	dec, err := e.rt.Route(req.ctx, router.Request{
		Class:    req.t.Class,
		Params:   req.t.Params,
		Health:   breakerHealth{brs: e.brs, now: now},
		TxnID:    req.traceID,
		VT:       now,
		Recorder: e.rec,
	})
	if err != nil {
		if errors.Is(err, router.ErrPartitionDown) {
			// Breaker fast-fail: no worker burned, the request retries
			// against its budget or fails as denied.
			e.res.BreakerFastFails++
			e.retryOrFinal(req, now, failDenied)
			return nil
		}
		// Staleness (or any other routing error) is a configuration bug
		// in a serving run: surface it instead of counting it.
		return fmt.Errorf("serve: route %s: %w", req.t.Class, err)
	}
	for _, p := range dec.Partitions {
		e.brs[p].tryProbe()
	}

	info := &doneInfo{req: req, dec: dec, ok: true, failNode: -1}
	distributed := len(dec.Partitions) > 1
	for _, p := range dec.Partitions {
		if e.inj.Down(p, now) {
			info.ok = false
			info.failNode = p
			info.failCode = obs.FaultNodeDown
			break
		}
	}
	coord := dec.Partitions[0]
	switch {
	case !info.ok:
		// The unreachable participant is only discovered the slow way:
		// the attempt holds its worker for the full RPC timeout.
		info.occ = e.cfg.Cost.RPCTimeoutSec
		e.rec.Record(req.traceID, obs.EvFault, info.failNode, req.tries, now, obs.FaultNodeDown)
	case distributed && e.inj.SampleLoss():
		info.ok = false
		info.failNode = coord
		info.failCode = obs.FaultMsgLoss
		info.occ = e.cfg.Cost.AbortWork / e.cfg.Cost.NodeCapacity
		e.rec.Record(req.traceID, obs.EvFault, coord, req.tries, now, obs.FaultMsgLoss)
	default:
		work := e.cfg.Cost.LocalWork
		if distributed {
			work = e.cfg.Cost.CoordWork + e.cfg.Cost.ParticipantWork*float64(len(dec.Partitions))
		}
		info.occ = work/e.cfg.Cost.NodeCapacity + e.inj.SampleLatency()
	}
	e.busy++
	e.push(now+info.occ, evDone, nil, info)
	return nil
}

// resolve completes one service attempt at its evDone event.
func (e *engine) resolve(info *doneInfo, now float64) error {
	e.busy--
	req := info.req
	if !info.ok {
		e.brs[info.failNode].observe(now, info.occ, false)
		if info.failCode == obs.FaultMsgLoss {
			e.res.MsgLosses++
		} else {
			e.res.FaultTimeouts++
		}
		e.rec.Record(req.traceID, obs.EvAbort, info.failNode, req.tries, now, 0)
		e.retryOrFinal(req, now, failFault)
		return nil
	}
	coord := info.dec.Partitions[0]
	writeParts, opsAt := cluster.WriteEffects(e.asg, req.t, e.sol.K, coord)
	if err := e.commit(req.traceID, now, writeParts, opsAt, coord); err != nil {
		return err
	}
	for _, p := range info.dec.Partitions {
		e.brs[p].observe(now, info.occ, true)
	}
	latency := now - req.arrival
	e.res.Committed++
	cServeCommits.Inc()
	if now <= req.deadline() {
		e.res.GoodCommits++
	}
	if len(info.dec.Partitions) > 1 {
		e.res.Distributed++
	} else {
		e.res.Local++
	}
	switch info.dec.Mode {
	case router.ModeReplica:
		e.res.ReplicaReads++
	case router.ModeDegraded:
		e.res.DegradedOK++
	}
	e.rec.Record(req.traceID, obs.EvCommit, coord, req.tries, now, int64(latency*1e9))
	e.observeExecuted(latency, true)
	e.finish(req, now)
	return nil
}

// retryOrFinal decides a failed (or shed) attempt's fate: a retry is
// allowed while the per-attempt cap, the session's retry *budget*, and
// the propagated deadline all have room; the backoff is the jitter-free
// capped exponential (faults.RetryPolicy.BackoffAt).
func (e *engine) retryOrFinal(req *request, now float64, kind failKind) {
	if req.tries < e.cfg.Retry.MaxAttempts && e.budget[req.session] > 0 {
		backoff := e.cfg.Retry.BackoffAt(req.retries + 1)
		if now+backoff <= req.deadline() {
			req.retries++
			e.budget[req.session]--
			e.res.Retries++
			e.rec.Record(req.traceID, obs.EvBackoff, -1, req.tries, now, int64(backoff*1e9))
			e.push(now+backoff, evRetry, req, nil)
			return
		}
	}
	switch kind {
	case failShed:
		// Shed without ever executing: a refusal, not a latency sample.
		e.res.Shed++
		e.rec.Record(req.traceID, obs.EvGiveUp, -1, req.tries, now, 0)
		e.finish(req, now)
	case failDenied:
		e.res.Denied++
		e.rec.Record(req.traceID, obs.EvGiveUp, -1, req.tries, now, 0)
		e.finish(req, now)
	default: // failFault: the attempt executed, its latency counts
		e.finishExecuted(req, now, outcomeFailed)
	}
}

type executedOutcome int

const (
	outcomeFailed executedOutcome = iota
	outcomeExpired
)

// finishExecuted finalizes a request that consumed real system time
// (fault give-up or deadline expiration): its latency feeds the
// quantiles and the SLO window as a failure.
func (e *engine) finishExecuted(req *request, now float64, oc executedOutcome) {
	if oc == outcomeExpired {
		e.res.Expired++
	} else {
		e.res.Failed++
	}
	latency := now - req.arrival
	e.rec.Record(req.traceID, obs.EvGiveUp, -1, req.tries, now, int64(latency*1e9))
	e.observeExecuted(latency, false)
	e.finish(req, now)
}

// observeExecuted feeds one executed outcome into the latency
// histogram and the SLO monitor, then lets the AIMD guardrail react to
// any window the sample closed.
func (e *engine) observeExecuted(latencySec float64, ok bool) {
	e.lat.Observe(int64(latencySec * 1e9))
	hServeLatency.Observe(int64(latencySec * 1e9))
	e.slo.Record(latencySec, ok)
	if w := e.slo.Status().Windows; w != e.lastWindows {
		e.lastWindows = w
		if e.cfg.Admission.Enabled {
			e.adm.onWindow(e.slo.Healthy())
		}
	}
}

// finish is the common tail of every final outcome: makespan tracking
// and the closed-loop session's next think cycle.
func (e *engine) finish(req *request, now float64) {
	if now > e.res.MakespanSec {
		e.res.MakespanSec = now
	}
	e.sessionNext(req.session, now)
}

// finishRun assembles the report once the event heap drains.
func (e *engine) finishRun() (*Result, error) {
	res := e.res
	if got := res.Committed + res.Shed + res.Denied + res.Failed + res.Expired; got != res.Offered {
		return nil, fmt.Errorf("serve: outcome accounting broken: %d outcomes for %d offered", got, res.Offered)
	}
	e.slo.Flush()
	res.SLO = e.slo.Status()
	snap := e.lat.Snapshot()
	res.LatencyP50 = float64(snap.P50) / 1e9
	res.LatencyP99 = float64(snap.P99) / 1e9
	res.LatencyP999 = float64(snap.P999) / 1e9
	if res.MakespanSec > 0 {
		res.ThroughputTPS = float64(res.Committed) / res.MakespanSec
		res.GoodputTPS = float64(res.GoodCommits) / res.MakespanSec
	}
	initial, final, min, ups, downs := e.adm.snapshot()
	res.AdmitRateInitial = initial
	res.AdmitRateFinal = final
	res.AdmitRateMin = min
	res.RateIncreases = ups
	res.RateDecreases = downs
	res.Breakers = make([]BreakerStats, len(e.brs))
	for p, b := range e.brs {
		res.Breakers[p] = b.stats()
		res.BreakerTrips += res.Breakers[p].Trips
	}
	cServeTrips.Add(int64(res.BreakerTrips))
	res.WALBytes = e.local.WALBytes()
	res.StateDigest = stateDigest(e.local.Stores)
	cServeRuns.Inc()
	obs.Set("serve.goodput_tps", res.GoodputTPS)
	obs.Set("serve.admit_rate_tps", res.AdmitRateFinal)
	return res, nil
}
