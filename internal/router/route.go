package router

import (
	"context"
	"fmt"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/value"
)

// Request is one routing request: the transaction class, its invocation
// parameters, and (optionally) the cluster-health view the decision must
// respect. A nil Health routes as if every node were up: the lookup
// table's partition set on a hit, broadcast on unknown classes and
// unseen values.
type Request struct {
	// Class is the transaction class to route.
	Class string
	// Params are the invocation's parameters (the routing value is read
	// from the class's routing parameter).
	Params map[string]value.Value
	// Health is the cluster-health view; nil means all nodes up.
	Health faults.Health

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
// recorder, which must be non-nil. Every error Route returns wraps
// ErrPartitionDown.
func (req *Request) traceDecision(d Decision, err error) {
	if err != nil {
		req.Recorder.Record(req.TxnID, obs.EvRouteDenied, -1, 0, req.VT, obs.RouteErrDown)
		return
	}
	node := -1
	if len(d.Partitions) > 0 {
		node = d.Partitions[0]
	}
	req.Recorder.Record(req.TxnID, obs.EvRoute, node, 0, req.VT,
		int64(len(d.Partitions))<<8|int64(d.Mode))
}

// Route routes one invocation under the request's health view. It
// returns ErrPartitionDown when the required data is only on unreachable
// nodes. When the pinned partition set intersects down nodes, it falls
// back in this order:
//
//  1. replica: a read-only class over replicated tables runs on the
//     first healthy node;
//  2. degraded: a read's reachable partitions still serve (partial data);
//  3. broadcast reads shrink to the reachable nodes;
//  4. writes never drop participants — they fail with ErrPartitionDown.
//
// A request carrying a Recorder has the decision or denial recorded.
func (r *Router) Route(ctx context.Context, req Request) (d Decision, err error) {
	_ = ctx // reserved: cancellation; routing is on the hot path
	if req.Recorder != nil {
		defer func() { req.traceDecision(d, err) }()
	}
	cRoutes.Inc()
	h := req.Health
	if h == nil {
		h = faults.AllUp
	}
	route, known := r.routes[req.Class]
	var target []int
	mode := ModeBroadcast
	if known && !route.broadcast {
		if v, ok := req.Params[route.param]; ok {
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
	if !known || route.writes {
		cRouteDownErrs.Inc()
		return Decision{}, fmt.Errorf("class %s (%s route): %d of %d target partitions down: %w",
			req.Class, mode, len(target)-len(up), len(target), ErrPartitionDown)
	}

	// Replica fallback: the class reads only replicated tables, so a
	// healthy node serves it — including when its pinned partition is
	// down.
	if route.replicaOK {
		for n := 0; n < r.k; n++ {
			if !h.Down(n) {
				cRouteReplica.Inc()
				return Decision{Partitions: append(target[:0], n), Mode: ModeReplica}, nil
			}
		}
		cRouteDownErrs.Inc()
		return Decision{}, fmt.Errorf("class %s: no healthy replica node: %w", req.Class, ErrPartitionDown)
	}

	// Degraded read: serve from the reachable subset of the pinned
	// partitions (partial data until recovery). An empty subset means the
	// data is only on down nodes.
	if len(up) == 0 {
		cRouteDownErrs.Inc()
		return Decision{}, fmt.Errorf("class %s (%s route): all %d target partitions down: %w",
			req.Class, mode, len(target), ErrPartitionDown)
	}
	cRouteDegraded.Inc()
	return Decision{Partitions: up, Mode: ModeDegraded}, nil
}
