package eval

import (
	"runtime"
	"time"

	"repro/internal/obs"
)

// Resources records what a partitioner run cost, for the paper's resource
// consumption tables (Tables 1–2).
//
// Substitution note: the paper reports resident RAM (MB) and CPU seconds
// of external processes (Java Schism vs. JECB). Here both algorithms run
// in-process, so RAM is measured as bytes allocated during the run (the
// dominant term for graph-building workloads, and the quantity whose
// *scaling* with database size the tables demonstrate). Wall time and CPU
// time are reported separately: Wall is always measured; CPU is the
// process's user+system CPU delta from the OS (getrusage) where the
// platform provides it, with CPUKnown reporting availability.
type Resources struct {
	AllocBytes uint64
	// Wall is the elapsed wall-clock time of the run.
	Wall time.Duration
	// CPU is the best-effort process CPU time (user+system) consumed
	// during the run; valid only when CPUKnown is true.
	CPU time.Duration
	// CPUKnown reports whether the platform supplied real CPU time.
	CPUKnown bool
}

// AllocMB returns allocated megabytes.
func (r Resources) AllocMB() float64 { return float64(r.AllocBytes) / (1 << 20) }

// CPUSeconds returns CPU seconds when known, falling back to wall time
// (a single-threaded run's wall time is a tight upper bound on its CPU).
func (r Resources) CPUSeconds() float64 {
	if r.CPUKnown {
		return r.CPU.Seconds()
	}
	return r.Wall.Seconds()
}

// Measure runs f, returning its resource consumption and error. Every
// measurement is also recorded in the obs registry: counters
// eval.measure_runs, histograms eval.measure_wall_ns / eval.measure_cpu_ns
// (CPU only when the platform reports it) and eval.measure_alloc_bytes.
func Measure(f func() error) (Resources, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpuBefore, cpuOK := processCPUTime()
	start := time.Now()
	err := f()
	wall := time.Since(start)
	cpuAfter, cpuOK2 := processCPUTime()
	runtime.ReadMemStats(&after)
	res := Resources{
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Wall:       wall,
	}
	if cpuOK && cpuOK2 {
		res.CPU = cpuAfter - cpuBefore
		res.CPUKnown = true
	}
	obs.Inc("eval.measure_runs")
	obs.Observe("eval.measure_wall_ns", float64(wall.Nanoseconds()))
	if res.CPUKnown {
		obs.Observe("eval.measure_cpu_ns", float64(res.CPU.Nanoseconds()))
	}
	obs.Observe("eval.measure_alloc_bytes", float64(res.AllocBytes))
	return res, err
}
