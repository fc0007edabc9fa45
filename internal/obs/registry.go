// Package obs is the repository's dependency-free observability layer:
// a concurrency-safe metrics registry (counters, gauges, log-bucketed
// histograms), hierarchical phase spans threaded through context, and
// exposition as expvar-compatible JSON, Prometheus text, or an opt-in
// debug HTTP server with net/http/pprof.
//
// The paper's entire argument is quantitative — partitioner runtime
// (Tables 1–2), distributed-transaction fractions (Figures 5–9), router
// overhead (§3) — so every pipeline package increments named metrics in
// the Default registry and the CLIs dump them as machine-readable
// artifacts next to each table/figure run.
//
// Metric names are dotted, "package.metric" (e.g. "eval.txns_scored");
// the Prometheus writer rewrites them to underscore form.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64, safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 that can move in both directions, safe for
// concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the number of power-of-two histogram buckets. Bucket i
// counts observations v with upperBound(i-1) < v <= upperBound(i), where
// upperBound(i) = 2^i; the last bucket also absorbs everything larger.
const histBuckets = 40

// Histogram is a log-bucketed (base-2) histogram of non-negative float64
// observations, safe for concurrent use. Bucket boundaries are 1, 2, 4,
// ... 2^39 — wide enough for nanosecond durations up to ~18 minutes or
// byte counts up to half a terabyte.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	minBits atomic.Uint64 // float64 bits + 1; 0 means "no observation yet"
	maxBits atomic.Uint64 // float64 bits (observations are non-negative)
	buckets [histBuckets]atomic.Int64
}

// bucketIndex returns the bucket for v: the smallest i with v <= 2^i.
func bucketIndex(v float64) int {
	if v <= 1 {
		return 0
	}
	i := int(math.Ceil(math.Log2(v)))
	if i < 0 {
		i = 0
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// BucketBound returns bucket i's inclusive upper bound (2^i).
func BucketBound(i int) float64 { return math.Ldexp(1, i) }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	h.count.Add(1)
	h.buckets[bucketIndex(v)].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	// min is stored as float64 bits + 1 so that 0 can mean "unset".
	for {
		old := h.minBits.Load()
		if old != 0 && math.Float64frombits(old-1) <= v {
			break
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(v)+1) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// Buckets lists only non-empty buckets as {upper bound, count}.
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty histogram bucket.
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"n"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   math.Float64frombits(h.sumBits.Load()),
		Max:   math.Float64frombits(h.maxBits.Load()),
	}
	if raw := h.minBits.Load(); raw != 0 {
		s.Min = math.Float64frombits(raw - 1)
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{UpperBound: BucketBound(i), Count: n})
		}
	}
	return s
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use; metric lookups
// take a read lock only, so cached metric handles are unnecessary except
// on the very hottest paths.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	hdrs     map[string]*HDR
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		hdrs:     map[string]*HDR{},
	}
}

// Default is the process-wide registry all pipeline packages write to.
var Default = NewRegistry()

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &Histogram{}
	r.hists[name] = h
	return h
}

// HDR returns the named HDR latency histogram, creating it if needed.
func (r *Registry) HDR(name string) *HDR {
	r.mu.RLock()
	h, ok := r.hdrs[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hdrs[name]; ok {
		return h
	}
	h = &HDR{}
	r.hdrs[name] = h
	return h
}

// Snapshot returns a sorted-key map of every metric's current value:
// int64 for counters, float64 for gauges, HistogramSnapshot for
// histograms. Gauges and counters sharing a name with a histogram are
// all included (names should not collide across kinds; the JSON writer
// suffixes on collision).
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		if _, clash := out[name]; clash {
			name += ".gauge"
		}
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		if _, clash := out[name]; clash {
			name += ".histogram"
		}
		out[name] = h.Snapshot()
	}
	for name, h := range r.hdrs {
		if _, clash := out[name]; clash {
			name += ".hdr"
		}
		out[name] = h.Snapshot()
	}
	return out
}

// --- package-level sugar against the Default registry --------------------

// Add increments the named Default counter by n.
func Add(name string, n int64) { Default.Counter(name).Add(n) }

// Inc increments the named Default counter by one.
func Inc(name string) { Default.Counter(name).Inc() }

// Set stores v in the named Default gauge.
func Set(name string, v float64) { Default.Gauge(name).Set(v) }

// Observe records a sample in the named Default histogram.
func Observe(name string, v float64) { Default.Histogram(name).Observe(v) }
