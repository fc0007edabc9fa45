package router

import (
	"errors"
	"fmt"

	"repro/internal/obs"
)

// Failure-aware routing: the runtime half of the chaos work. Route
// consumes node-health state, degrades routing instead of silently
// misrouting, and returns typed errors when no safe route exists.

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	cRouteReplica  = obs.Default.Counter("router.route_replica")
	cRouteDegraded = obs.Default.Counter("router.route_degraded")
	cRouteDownErrs = obs.Default.Counter("router.route_down_errors")
)

// ErrPartitionDown means the data a routing decision pins to lives only
// on unreachable partitions (or a write needs an unreachable
// participant), so no safe route exists. Callers match it with
// errors.Is.
var ErrPartitionDown = errors.New("router: partition down")

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
