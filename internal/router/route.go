package router

import (
	"context"
	"errors"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/value"
)

// Request is one routing request: the transaction class, its invocation
// parameters, and (optionally) the cluster-health view the decision must
// respect. A nil Health routes as if every node were up — the lookup
// table's partition set on a hit, broadcast on unknown classes and
// unseen values — while still surfacing staleness as ErrStaleLookup
// instead of silently routing against outdated lookup tables.
type Request struct {
	// Class is the transaction class to route.
	Class string
	// Params are the invocation's parameters (the routing value is read
	// from the class's routing parameter).
	Params map[string]value.Value
	// Health is the cluster-health view; nil means all nodes up.
	Health faults.Health

	// Replicas, when non-nil, bounds the replica fallback by staleness:
	// ModeReplica only routes to a node whose replication lag (records
	// behind the authoritative chain) is known and at most
	// StalenessBudget. Nil keeps the historical rule — any healthy node
	// qualifies. The replication layer exports the view; see
	// internal/repl.
	Replicas ReplicaLag
	// StalenessBudget is the largest acceptable replica lag, in WAL
	// records, when Replicas is set. Zero admits only fully caught-up
	// replicas.
	StalenessBudget int64

	// TxnID, VT and Recorder opt the request into transaction-level
	// flight-recorder tracing: when Recorder is non-nil, the routing
	// decision (or denial) is recorded against TxnID at virtual time VT.
	// They live on the Request — not the context — because a
	// context.WithValue per routed transaction would allocate on the hot
	// path; leave Recorder nil and tracing costs one branch.
	TxnID    uint64
	VT       float64
	Recorder *obs.Recorder
}

// traceDecision records the routing outcome into the request's flight
// recorder (no-op when the request carries none).
func (req *Request) traceDecision(d Decision, err error) {
	if req.Recorder == nil {
		return
	}
	if err != nil {
		code := int64(0)
		switch {
		case errors.Is(err, ErrPartitionDown):
			code = obs.RouteErrDown
		case errors.Is(err, ErrStaleLookup):
			code = obs.RouteErrStale
		case errors.Is(err, ErrOverload):
			code = obs.RouteErrOverload
		}
		req.Recorder.Record(req.TxnID, obs.EvRouteDenied, -1, 0, req.VT, code)
		return
	}
	node := -1
	if len(d.Partitions) > 0 {
		node = d.Partitions[0]
	}
	req.Recorder.Record(req.TxnID, obs.EvRoute, node, 0, req.VT,
		int64(len(d.Partitions))<<8|int64(d.Mode))
}

// Route is the routing entry point: context-first, config-first
// (Request), with the full failure-aware fallback ladder (see
// routeSafe).
func (r *Router) Route(ctx context.Context, req Request) (Decision, error) {
	_ = ctx // reserved: cancellation; routing is on the hot path
	d, err := r.routeSafe(req.Class, req.Params, req.Health, req.Replicas, req.StalenessBudget)
	req.traceDecision(d, err)
	return d, err
}

// Route is EpochRouter's canonical entry point: Route against the
// current epoch, returning the epoch the decision was made under.
// Stale epochs catch up and retry once (see EpochRouter.routeSafe).
func (e *EpochRouter) Route(ctx context.Context, req Request) (Decision, uint64, error) {
	_ = ctx
	d, epoch, err := e.routeSafe(req.Class, req.Params, req.Health, req.Replicas, req.StalenessBudget)
	req.traceDecision(d, err)
	return d, epoch, err
}
