package router

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

// Epoch-based solution swap: the runtime half of the drift-adaptation
// loop. A plain Router is immutable once built but bound to one solution;
// live migration needs to move the cluster from one solution to the next
// *while transactions are in flight*. EpochRouter wraps a sequence of
// Routers behind a single atomic pointer:
//
//   - Every routing call loads the current (epoch, router) pair exactly
//     once and finishes against that epoch — a concurrent Swap never
//     tears a decision between two solutions.
//   - Swap installs a fresh router (typically built on a migration
//     plan's hybrid solution) as the next epoch in one atomic store.
//   - When the underlying solution's partition map was mutated in place
//     (the staleness check fires ErrStaleLookup), Route no
//     longer fails: it performs *epoch catch-up* — rebuilding a fresh
//     router over the current placements and installing it as a new
//     epoch — and retries once. ErrStaleLookup surfaces only when the
//     rebuild itself is impossible (e.g. the mutated solution no longer
//     validates against the schema).
//
// EpochRouter is safe for concurrent use. Swap, SwapSolution and
// catch-up serialize on an internal mutex; routing calls are lock-free.

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	cEpochSwaps       = obs.Default.Counter("router.epoch_swaps")
	cEpochCatchups    = obs.Default.Counter("router.epoch_catchups")
	cEpochCatchupFail = obs.Default.Counter("router.epoch_catchup_failures")
	gEpoch            = obs.Default.Gauge("router.epoch")
)

// epochState is one immutable (epoch, router) generation. Routing calls
// load it once and never observe a mix of two generations.
type epochState struct {
	epoch uint64
	rt    *Router
}

// EpochRouter serves routing decisions across atomic solution swaps.
// Construct with NewEpochRouter.
type EpochRouter struct {
	cur atomic.Pointer[epochState]
	// mu serializes epoch installation (Swap, SwapSolution, catch-up);
	// it is never held on the routing fast path.
	mu sync.Mutex
}

// NewEpochRouter wraps rt as epoch 0.
func NewEpochRouter(rt *Router) (*EpochRouter, error) {
	if rt == nil {
		return nil, fmt.Errorf("router: epoch router over nil router")
	}
	e := &EpochRouter{}
	e.cur.Store(&epochState{epoch: 0, rt: rt})
	gEpoch.Set(0)
	return e, nil
}

// Epoch returns the current epoch number.
func (e *EpochRouter) Epoch() uint64 { return e.cur.Load().epoch }

// Current returns the serving router and its epoch.
func (e *EpochRouter) Current() (*Router, uint64) {
	st := e.cur.Load()
	return st.rt, st.epoch
}

// Solution returns the solution the current epoch serves.
func (e *EpochRouter) Solution() *partition.Solution {
	return e.cur.Load().rt.sol
}

// Swap atomically installs rt as the next epoch and returns its number.
// In-flight routing calls that loaded the previous epoch finish against
// it; calls that start after Swap see the new epoch. The new router must
// serve the same cluster size (live migration stays within one cluster).
func (e *EpochRouter) Swap(rt *Router) (uint64, error) {
	if rt == nil {
		return 0, fmt.Errorf("router: swap to nil router")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.cur.Load()
	if rt.sol.K != old.rt.sol.K {
		return 0, fmt.Errorf("router: swap k=%d over k=%d (epoch swap requires one cluster)",
			rt.sol.K, old.rt.sol.K)
	}
	next := &epochState{epoch: old.epoch + 1, rt: rt}
	e.cur.Store(next)
	cEpochSwaps.Inc()
	gEpoch.Set(float64(next.epoch))
	return next.epoch, nil
}

// SwapSolution builds a fresh router for sol over the current epoch's
// database and code analyses, then installs it as the next epoch. This is
// the one-call path the drift loop uses to deploy a migration plan's
// hybrid solution.
func (e *EpochRouter) SwapSolution(sol *partition.Solution) (uint64, error) {
	cur := e.cur.Load()
	rt, err := New(cur.rt.d, sol, analysesOf(cur.rt))
	if err != nil {
		return 0, fmt.Errorf("router: swap to solution %q: %w", sol.Name, err)
	}
	return e.Swap(rt)
}

// routeSafe is the epoch-aware routing core behind Route: the current
// epoch's Router.routeSafe, returning the epoch the decision was made
// under. A stale partition map does not fail the call: it catches up —
// rebuilds the router over the solution's current placements, installs
// it as a new epoch — and retries once. The returned error wraps
// ErrStaleLookup only when catch-up is impossible.
func (e *EpochRouter) routeSafe(class string, params map[string]value.Value, h faults.Health, lag ReplicaLag, budget int64) (Decision, uint64, error) {
	st := e.cur.Load()
	dec, err := st.rt.routeSafe(class, params, h, lag, budget)
	if err == nil || !errors.Is(err, ErrStaleLookup) {
		return dec, st.epoch, err
	}
	// The epoch's solution mutated underneath its lookup tables: catch up
	// to a fresh epoch and retry once.
	fresh, cerr := e.catchUp(st)
	if cerr != nil {
		cEpochCatchupFail.Inc()
		return Decision{}, st.epoch, fmt.Errorf("router: epoch %d catch-up failed (%v): %w",
			st.epoch, cerr, ErrStaleLookup)
	}
	dec, err = fresh.rt.routeSafe(class, params, h, lag, budget)
	return dec, fresh.epoch, err
}

// catchUp advances past a stale epoch: if another goroutine already
// installed a newer epoch, that one is returned; otherwise a fresh router
// is built over the stale epoch's database and (mutated) solution and
// installed as the next epoch.
func (e *EpochRouter) catchUp(stale *epochState) (*epochState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.cur.Load()
	if cur.epoch != stale.epoch {
		return cur, nil // someone else already moved us forward
	}
	rt, err := New(stale.rt.d, stale.rt.sol, analysesOf(stale.rt))
	if err != nil {
		return nil, err
	}
	next := &epochState{epoch: cur.epoch + 1, rt: rt}
	e.cur.Store(next)
	cEpochCatchups.Inc()
	cEpochSwaps.Inc()
	gEpoch.Set(float64(next.epoch))
	return next, nil
}

// analysesOf recovers a router's code analyses as a deterministic slice
// (sorted by class name) so a successor router can be rebuilt from it.
func analysesOf(rt *Router) []*sqlparse.Analysis {
	names := make([]string, 0, len(rt.analyses))
	for n := range rt.analyses {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*sqlparse.Analysis, 0, len(names))
	for _, n := range names {
		out = append(out, rt.analyses[n])
	}
	return out
}
