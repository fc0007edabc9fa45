package core

import (
	"runtime"

	"repro/internal/obs"
)

// Worker-pool metrics (see DESIGN.md, "Metric reference"): the gauges
// report the worker count of the most recent parallel phase and the
// (approximate) depth of its pending-work queue while it drains.
var (
	gPhase2Workers = obs.Default.Gauge("core.phase2_workers")
	gPhase2Queue   = obs.Default.Gauge("core.phase2_queue")
	gPhase3Workers = obs.Default.Gauge("core.phase3_workers")
	gPhase3Queue   = obs.Default.Gauge("core.phase3_queue")
)

// parallelism resolves the effective worker count of a run:
// Options.Parallelism when positive, else runtime.GOMAXPROCS(0).
// (withDefaults pins it, so after New this is always Options.Parallelism;
// the fallback keeps zero-valued Options usable in tests.)
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}
