package router

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

// Failure-aware routing: the runtime half of the chaos work. Route
// consumes node-health state and the solution's placement fingerprints,
// degrades routing instead of silently misrouting, and returns typed
// errors when no safe route exists.

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	cRouteReplica     = obs.Default.Counter("router.route_replica")
	cRouteDegraded    = obs.Default.Counter("router.route_degraded")
	cRouteDownErrs    = obs.Default.Counter("router.route_down_errors")
	cStaleDetected    = obs.Default.Counter("router.stale_detected")
	cRefreshes        = obs.Default.Counter("router.refreshes")
	cClassesRebuilt   = obs.Default.Counter("router.classes_rebuilt")
	cReplicaStaleSkip = obs.Default.Counter("router.replica_stale_skipped")
)

// ReplicaLag is a point-in-time view of replica staleness: how many WAL
// records node's replica copy is behind the authoritative chain. The
// replication layer (internal/repl) exports one per replica group; a
// routing request carrying the view bounds the replica fallback to
// copies inside its staleness budget. A node whose lag is unknown
// (ok=false) is never eligible — an unreachable or rejoining replica
// must not serve bounded-staleness reads.
type ReplicaLag interface {
	Lag(node int) (lag int64, ok bool)
}

// LagMap is a ReplicaLag over an explicit node→lag map — the shape the
// replication harness snapshots and the tests hand-build.
type LagMap map[int]int64

// Lag returns the node's mapped lag.
func (m LagMap) Lag(node int) (int64, bool) {
	lag, ok := m[node]
	return lag, ok
}

// Typed failure-mode errors. Callers match them with errors.Is.
var (
	// ErrPartitionDown means the data a routing decision pins to lives
	// only on unreachable partitions (or a write needs an unreachable
	// participant), so no safe route exists.
	ErrPartitionDown = errors.New("router: partition down")
	// ErrStaleLookup means the solution's partition map changed after the
	// router's lookup tables were built; routing would consult stale
	// placements. Call Refresh to rebuild incrementally.
	ErrStaleLookup = errors.New("router: stale lookup tables")
	// ErrOverload means the serving layer refused the request before any
	// placement was consulted: admission control shed it (token bucket
	// empty, queue full, or a breaker fast-fail). It is transient by
	// construction — the data is fine, the system is busy — so callers
	// treat it differently from ErrPartitionDown: back off and retry
	// against the session's retry budget instead of failing over.
	ErrOverload = errors.New("router: overload, request shed")
)

// ErrKind classifies a routing/serving error into its taxonomy bucket:
// "overload", "partition-down", "stale-lookup", or "" for nil and
// unrecognized errors. Accounting code switches on the kind instead of
// chaining errors.Is calls.
func ErrKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrOverload):
		return "overload"
	case errors.Is(err, ErrPartitionDown):
		return "partition-down"
	case errors.Is(err, ErrStaleLookup):
		return "stale-lookup"
	default:
		return ""
	}
}

// Mode classifies how a routing decision was reached.
type Mode uint8

// The routing decision modes.
const (
	// ModeLocal is the healthy single-partition path.
	ModeLocal Mode = iota
	// ModeMulti is a healthy multi-partition (but not broadcast) route.
	ModeMulti
	// ModeBroadcast sends the invocation to every node.
	ModeBroadcast
	// ModeReplica serves a replicated-read class from a healthy node
	// after its pinned partition went down.
	ModeReplica
	// ModeDegraded dropped unreachable nodes from a read's partition set:
	// the route is safe but may observe partial data until recovery.
	ModeDegraded
)

// String returns the lowercase mode name.
func (m Mode) String() string {
	switch m {
	case ModeLocal:
		return "local"
	case ModeMulti:
		return "multi"
	case ModeBroadcast:
		return "broadcast"
	case ModeReplica:
		return "replica"
	case ModeDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Decision is the outcome of one failure-aware routing request.
type Decision struct {
	// Partitions are the nodes the invocation must execute on, ascending.
	Partitions []int
	// Mode records how the decision was reached.
	Mode Mode
}

// Local reports whether the decision is single-partition.
func (d Decision) Local() bool { return len(d.Partitions) == 1 }

// Stale reports whether the bound solution's partition map changed after
// the router's lookup tables were built: a table was added, removed, or
// given a placement with a different fingerprint.
func (r *Router) Stale() bool {
	if len(r.sol.Tables) != len(r.bound) {
		return true
	}
	for i := range r.bound {
		b := &r.bound[i]
		ts, ok := r.sol.Tables[b.name]
		if !ok || b.changed(ts) {
			return true
		}
	}
	return false
}

// Refresh rebuilds the routing plans invalidated by a partition-map
// change and re-snapshots the solution's tables. Only classes whose
// lookup depends on a changed table — plus broadcast classes, which may
// now have a usable routing attribute — are re-planned; untouched plans
// are kept as built. It returns the rebuilt class names, sorted.
func (r *Router) Refresh() ([]string, error) {
	changed := map[string]bool{}
	present := 0
	for i := range r.bound {
		b := &r.bound[i]
		ts, ok := r.sol.Tables[b.name]
		if ok {
			present++
		}
		if !ok || b.changed(ts) {
			changed[b.name] = true
		}
	}
	if present != len(r.sol.Tables) {
		// Some live table was added after the snapshot.
		bound := make(map[string]bool, len(r.bound))
		for _, b := range r.bound {
			bound[b.name] = true
		}
		for name := range r.sol.Tables {
			if !bound[name] {
				changed[name] = true
			}
		}
	}
	if len(changed) == 0 {
		return nil, nil
	}
	if err := r.sol.Validate(r.d.Schema()); err != nil {
		return nil, err
	}
	var stale []*sqlparse.Analysis
	for class, route := range r.routes {
		a := r.analyses[class]
		if a != nil && needsReplan(route, a, changed) {
			stale = append(stale, a)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].Proc.Name < stale[j].Proc.Name })
	lookups, err := r.buildLookups(stale)
	if err != nil {
		return nil, err
	}
	var rebuilt []string
	for _, a := range stale {
		r.routes[a.Proc.Name] = r.plan(a, lookups)
		rebuilt = append(rebuilt, a.Proc.Name)
	}
	r.bind()
	cRefreshes.Inc()
	cClassesRebuilt.Add(int64(len(rebuilt)))
	return rebuilt, nil
}

// needsReplan reports whether a class's plan may change with the changed
// tables: it broadcasts (a new placement may unlock routing), its lookup
// derives from a changed table, or it touches one (replica-fallback
// eligibility depends on the placement of every table the class reads).
func needsReplan(route *classRoute, a *sqlparse.Analysis, changed map[string]bool) bool {
	if route.broadcast {
		return true
	}
	for dep := range route.deps {
		if changed[dep] {
			return true
		}
	}
	for _, tbl := range a.Tables {
		if changed[tbl] {
			return true
		}
	}
	return false
}

// routeSafe is the failure-aware routing core behind Route. It returns
// ErrStaleLookup when the solution's partition map changed underneath the
// lookup tables (call Refresh), and ErrPartitionDown when the required
// data is only on unreachable nodes. A nil health routes as if every node
// were up. Fallback ladder when the pinned partition set intersects down
// nodes:
//
//  1. replica: a read-only class over replicated tables runs on any
//     healthy node;
//  2. degraded: a read's reachable partitions still serve (partial data);
//  3. broadcast reads shrink to the reachable nodes;
//  4. writes never drop participants — they fail with ErrPartitionDown.
//
// A nil lag view keeps the historical replica fallback (first healthy
// node); a non-nil view bounds it to replicas whose lag is within budget,
// picking deterministically: smallest lag, ties to the lowest node id.
func (r *Router) routeSafe(class string, params map[string]value.Value, h faults.Health, lag ReplicaLag, budget int64) (Decision, error) {
	cRoutes.Inc()
	if h == nil {
		h = faults.AllUp
	}
	if r.Stale() {
		cStaleDetected.Inc()
		return Decision{}, fmt.Errorf("class %s: %w (solution %q changed; call Refresh)",
			class, ErrStaleLookup, r.sol.Name)
	}
	route, known := r.routes[class]
	var target []int
	mode := ModeBroadcast
	if known && !route.broadcast {
		if v, ok := params[route.param]; ok {
			if set, ok := route.lookup[v]; ok {
				target = set.Slice()
				if len(target) == 1 {
					mode = ModeLocal
				} else {
					mode = ModeMulti
				}
			}
		}
	}
	if mode == ModeBroadcast {
		target = r.all()
	}

	// target is this call's own slice, so the reachable subset is
	// filtered into it in place.
	up := target[:0]
	for _, p := range target {
		if !h.Down(p) {
			up = append(up, p)
		}
	}
	if len(up) == len(target) {
		// Healthy fast path: everything reachable.
		return Decision{Partitions: target, Mode: mode}, nil
	}

	// Unknown classes route conservatively: without the code analysis we
	// must assume writes, and writes never drop participants.
	writes := !known || route.writes
	if writes {
		cRouteDownErrs.Inc()
		return Decision{}, fmt.Errorf("class %s (%s route): %d of %d target partitions down: %w",
			class, mode, len(target)-len(up), len(target), ErrPartitionDown)
	}

	// Replica fallback: the class reads only replicated tables, so a
	// healthy node serves it — including when its pinned partition is
	// down. With a lag view the node must additionally hold a copy inside
	// the staleness budget.
	if route.replicaOK {
		if n, ok := r.pickReplica(h, lag, budget); ok {
			cRouteReplica.Inc()
			return Decision{Partitions: []int{n}, Mode: ModeReplica}, nil
		}
		cRouteDownErrs.Inc()
		if lag != nil {
			return Decision{}, fmt.Errorf("class %s: no healthy replica within staleness budget %d: %w",
				class, budget, ErrPartitionDown)
		}
		return Decision{}, fmt.Errorf("class %s: no healthy replica node: %w", class, ErrPartitionDown)
	}

	// Degraded read: serve from the reachable subset of the pinned
	// partitions (partial data until recovery). An empty subset means the
	// data is only on down nodes.
	if len(up) == 0 {
		cRouteDownErrs.Inc()
		return Decision{}, fmt.Errorf("class %s (%s route): all %d target partitions down: %w",
			class, mode, len(target), ErrPartitionDown)
	}
	cRouteDegraded.Inc()
	return Decision{Partitions: up, Mode: ModeDegraded}, nil
}

// pickReplica selects the replica-fallback node under a health view and
// an optional lag view. Without a lag view it keeps the historical rule:
// the first healthy node in ascending order. With one, it returns the
// healthy node with the smallest known lag not exceeding budget (ties to
// the lowest node id); nodes with unknown lag or lag over budget are
// skipped (and counted).
func (r *Router) pickReplica(h faults.Health, lag ReplicaLag, budget int64) (int, bool) {
	if budget < 0 {
		budget = 0
	}
	best, bestLag, found := -1, int64(0), false
	for _, n := range r.all() {
		if h.Down(n) {
			continue
		}
		if lag == nil {
			return n, true
		}
		l, known := lag.Lag(n)
		if !known || l > budget {
			cReplicaStaleSkip.Inc()
			continue
		}
		if !found || l < bestLag {
			best, bestLag, found = n, l, true
		}
	}
	return best, found
}
