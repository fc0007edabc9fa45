package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the program:
// the benchmark opens it just before a public entry point and closes it
// just after. The runtime columns are runtime.MemStats deltas between the
// two boundaries.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the tracer was created
	EndNs    int64  `json:"end_ns"`
	SelfNs   int64  `json:"self_ns"` // duration minus the children's durations

	GCCycles   uint32 `json:"gc_cycles"`
	GCPauseNs  uint64 `json:"gc_pause_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`

	ms runtime.MemStats // snapshot at the opening boundary
}

func spanSeconds(s *span) float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

func spanMallocs(s *span) float64 { return float64(s.Mallocs) }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call, so untraced runs measure
// the program alone.
type tracer struct {
	on       bool
	workload string
	t0       time.Time
	spans    []*span
	open     []int // stack of open span ids
}

func newTracer(on bool, workload string) *tracer {
	return &tracer{on: on, workload: workload, t0: time.Now()}
}

// start opens a span as a child of the innermost open span and returns its
// id (-1 when tracing is off).
func (t *tracer) start(name string) int {
	if !t.on {
		return -1
	}
	s := &span{ID: len(t.spans), Parent: -1, Name: name, Workload: t.workload}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
	}
	runtime.ReadMemStats(&s.ms)
	s.StartNs = time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, s)
	t.open = append(t.open, s.ID)
	return s.ID
}

// end closes the span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if !t.on {
		return
	}
	s := t.spans[id]
	s.EndNs = time.Since(t.t0).Nanoseconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.GCCycles = ms.NumGC - s.ms.NumGC
	s.GCPauseNs = ms.PauseTotalNs - s.ms.PauseTotalNs
	s.AllocBytes = ms.TotalAlloc - s.ms.TotalAlloc
	s.Mallocs = ms.Mallocs - s.ms.Mallocs
	t.open = t.open[:len(t.open)-1]
}

// medianOf returns the median of f over the spans called name.
func (t *tracer) medianOf(name string, f func(*span) float64) float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name {
			xs = append(xs, f(s))
		}
	}
	return median(xs)
}

// finish computes self times and writes the spans as JSON to path.
func (t *tracer) finish(path string) error {
	for _, s := range t.spans {
		s.SelfNs = s.EndNs - s.StartNs
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].SelfNs -= s.EndNs - s.StartNs
		}
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
