package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.count")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("x.count") != c {
		t.Fatal("Counter not memoized")
	}
	g := r.Gauge("x.gauge")
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {0.5, 0}, {1, 0}, {1.5, 1}, {2, 1}, {3, 2}, {4, 2},
		{5, 3}, {1024, 10}, {1025, 11}, {math.MaxFloat64, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	h := &Histogram{}
	for _, v := range []float64{1, 3, 3, 100, 0.25} {
		h.Observe(v)
	}
	h.Observe(-1)         // dropped
	h.Observe(math.NaN()) // dropped
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 107.25 {
		t.Fatalf("sum = %g, want 107.25", s.Sum)
	}
	if s.Min != 0.25 || s.Max != 100 {
		t.Fatalf("min/max = %g/%g, want 0.25/100", s.Min, s.Max)
	}
	total := int64(0)
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 5 {
		t.Fatalf("bucket total = %d, want 5", total)
	}
}

func TestEmptyHistogramSnapshot(t *testing.T) {
	s := (&Histogram{}).Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Min != 0 || s.Max != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
}

// TestConcurrentRegistry exercises every metric kind from many
// goroutines; `go test -race ./internal/obs` uses it to prove the
// registry is data-race free.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				r.Counter("shared.count").Inc()
				r.Counter(fmt.Sprintf("own.%d", id)).Add(2)
				r.Gauge("shared.gauge").Set(float64(id))
				r.Histogram("shared.hist").Observe(float64(j % 64))
				if j%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("shared.count").Value(); got != goroutines*perG {
		t.Fatalf("shared counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("shared.gauge").Value(); got < 0 || got >= goroutines || got != float64(int(got)) {
		t.Fatalf("shared gauge = %g, want one goroutine's id", got)
	}
	s := r.Histogram("shared.hist").Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("hist count = %d, want %d", s.Count, goroutines*perG)
	}
	if s.Min != 0 || s.Max != 63 {
		t.Fatalf("hist min/max = %g/%g, want 0/63", s.Min, s.Max)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(7)
	r.Gauge("a.gauge").Set(0.5)
	r.Histogram("c.hist").Observe(10)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if decoded["b.count"].(float64) != 7 {
		t.Fatalf("b.count = %v", decoded["b.count"])
	}
	if decoded["a.gauge"].(float64) != 0.5 {
		t.Fatalf("a.gauge = %v", decoded["a.gauge"])
	}
	hist := decoded["c.hist"].(map[string]any)
	if hist["count"].(float64) != 1 {
		t.Fatalf("c.hist = %v", hist)
	}
	// Deterministic key order: a.gauge before b.count before c.hist.
	txt := buf.String()
	if !(strings.Index(txt, "a.gauge") < strings.Index(txt, "b.count") &&
		strings.Index(txt, "b.count") < strings.Index(txt, "c.hist")) {
		t.Fatalf("keys not sorted:\n%s", txt)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("eval.txns_scored").Add(12)
	r.Gauge("core.best_cost").Set(0.04)
	h := r.Histogram("span.run.ns")
	h.Observe(3)
	h.Observe(1000)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE jecb_eval_txns_scored_total counter",
		"jecb_eval_txns_scored_total 12",
		"# TYPE jecb_core_best_cost gauge",
		"jecb_core_best_cost 0.04",
		"# TYPE jecb_span_run_ns histogram",
		`jecb_span_run_ns_bucket{le="+Inf"} 2`,
		"jecb_span_run_ns_sum 1003",
		"jecb_span_run_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: the le="1024" bucket includes the le="4" one.
	if !strings.Contains(out, `jecb_span_run_ns_bucket{le="1024"} 2`) {
		t.Errorf("cumulative bucket wrong:\n%s", out)
	}
}

func TestDefaultSugar(t *testing.T) {
	name := "obs_test.sugar"
	before := Default.Counter(name).Value()
	Inc(name)
	Add(name, 2)
	if got := Default.Counter(name).Value(); got != before+3 {
		t.Fatalf("sugar counter = %d, want %d", got, before+3)
	}
	Set("obs_test.gauge", 9)
	if Default.Gauge("obs_test.gauge").Value() != 9 {
		t.Fatal("Set failed")
	}
	Observe("obs_test.hist", 5)
	if Default.Histogram("obs_test.hist").Snapshot().Count < 1 {
		t.Fatal("Observe failed")
	}
}
