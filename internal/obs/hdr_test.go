package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestHDRIndexLayout(t *testing.T) {
	// Values below 128 map to their own bin, exactly.
	for v := int64(0); v < hdrSubCount; v++ {
		if got := hdrIndex(v); got != int(v) {
			t.Fatalf("hdrIndex(%d) = %d, want %d", v, got, v)
		}
		if got := hdrUpper(int(v)); got != v {
			t.Fatalf("hdrUpper(%d) = %d, want %d", v, got, v)
		}
	}
	// Indexes are monotone and contiguous over the whole range.
	prev := hdrIndex(0)
	for v := int64(1); v < 1<<20; v++ {
		i := hdrIndex(v)
		if i < prev || i > prev+1 {
			t.Fatalf("hdrIndex not contiguous at %d: %d -> %d", v, prev, i)
		}
		prev = i
	}
	// The largest value fits the array.
	if got := hdrIndex(HDRMax); got != hdrLen-1 {
		t.Fatalf("hdrIndex(HDRMax) = %d, want %d", got, hdrLen-1)
	}
	// Every bin's upper bound lands back in that bin.
	for i := 0; i < hdrLen; i++ {
		if got := hdrIndex(hdrUpper(i)); got != i {
			t.Fatalf("hdrIndex(hdrUpper(%d)) = %d", i, got)
		}
	}
}

func TestHDRUpperBoundError(t *testing.T) {
	// hdrUpper may overestimate a bin member by at most 1/64 relatively.
	for _, v := range []int64{1, 127, 128, 129, 1000, 12345, 1 << 20, 987654321, HDRMax} {
		u := hdrUpper(hdrIndex(v))
		if u < v {
			t.Fatalf("upper(%d) = %d underestimates", v, u)
		}
		if rel := float64(u-v) / float64(v); rel > 1.0/hdrSubHalf {
			t.Fatalf("upper(%d) = %d: relative error %g > %g", v, u, rel, 1.0/hdrSubHalf)
		}
	}
}

func TestHDRObserveAndSnapshot(t *testing.T) {
	h := &HDR{}
	for _, v := range []int64{5, 5, 100, 1000} {
		h.Observe(v)
	}
	h.Observe(-1)         // dropped
	h.Observe(HDRMax + 5) // clamps
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Min != 5 || s.Max != HDRMax {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
	if want := int64(5 + 5 + 100 + 1000 + HDRMax); s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
	if got := s.Quantile(0); got != 5 {
		t.Fatalf("q0 = %d, want min", got)
	}
	if got := s.Quantile(1); got != HDRMax {
		t.Fatalf("q1 = %d, want max", got)
	}
	if got := s.Quantile(0.5); got != 100 {
		t.Fatalf("q0.5 = %d, want 100 (exact low bin)", got)
	}
}

func TestHDREmpty(t *testing.T) {
	s := (&HDR{}).Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Min != 0 || s.Max != 0 ||
		s.P50 != 0 || s.P99 != 0 || s.P999 != 0 || s.Quantile(0.5) != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
}

// TestHDRQuantileErrorBound compares HDR quantiles against exact
// sorted-slice order statistics across distributions: the whole point of
// the log-linear layout is p50/p99/p999 within 1.5625%.
func TestHDRQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() int64{
		"uniform": func() int64 { return rng.Int63n(1_000_000) },
		"exp":     func() int64 { return int64(rng.ExpFloat64() * 50_000) },
		"heavy": func() int64 { // mostly fast, 1% very slow: the p999 case
			if rng.Intn(100) == 0 {
				return 5_000_000 + rng.Int63n(5_000_000)
			}
			return 1000 + rng.Int63n(1000)
		},
		"tiny": func() int64 { return rng.Int63n(100) }, // all-exact bins
	}
	for name, gen := range dists {
		h := &HDR{}
		vals := make([]int64, 50_000)
		for i := range vals {
			v := gen()
			vals[i] = v
			h.Observe(v)
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		s := h.Snapshot()
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			rank := int(math.Ceil(q * float64(len(vals))))
			exact := vals[rank-1]
			got := s.Quantile(q)
			if got < exact {
				// The reported bin upper bound can only be below the exact
				// order statistic if clamped to Max; never otherwise.
				t.Fatalf("%s q%g: got %d < exact %d", name, q, got, exact)
			}
			if exact > 0 {
				if rel := float64(got-exact) / float64(exact); rel > 1.0/hdrSubHalf+1e-12 {
					t.Fatalf("%s q%g: got %d, exact %d, relative error %g", name, q, got, exact, rel)
				}
			}
		}
		if s.P50 != s.Quantile(0.5) || s.P99 != s.Quantile(0.99) || s.P999 != s.Quantile(0.999) {
			t.Fatalf("%s: precomputed quantiles disagree with Quantile", name)
		}
		// Quantiles are monotone in q.
		if !(s.P50 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max) {
			t.Fatalf("%s: quantiles not monotone: %+v", name, s)
		}
	}
}

func TestHDRObserveZeroAlloc(t *testing.T) {
	h := &HDR{}
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(123456) }); allocs != 0 {
		t.Fatalf("Observe allocates %g per op, want 0", allocs)
	}
}

func TestHDRReset(t *testing.T) {
	h := &HDR{}
	h.Observe(10)
	h.Observe(100000)
	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("Reset left state: %+v", s)
	}
	h.Observe(7) // handle stays usable
	if s := h.Snapshot(); s.Count != 1 || s.Min != 7 || s.Max != 7 {
		t.Fatalf("post-Reset observe: %+v", s)
	}
}

// TestHDRConcurrent proves Observe/Snapshot are data-race free under
// `go test -race` and that no samples are lost.
func TestHDRConcurrent(t *testing.T) {
	h := &HDR{}
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				h.Observe(int64(id*perG + j))
				if j%500 == 0 {
					_ = h.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	if s.Min != 0 || s.Max != goroutines*perG-1 {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
}
