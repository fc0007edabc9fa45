package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// HDR is a log-linear ("HDR-style") histogram of non-negative int64
// values with a bounded relative error, safe for concurrent use and
// allocation-free per Observe. It replaces the base-2 Histogram for
// latency metrics: base-2 buckets bound quantiles only to within a
// factor of two, which is useless for p99/p999 claims, while the
// log-linear layout bounds every reported quantile to within
// 1/hdrSubHalf (1.5625%) of the true order statistic — see hdrUpper.
//
// Layout (the classic HdrHistogram scheme): values below hdrSubCount
// (128) are recorded exactly, one bin per value; above that, each
// power-of-two tier [2^i, 2^(i+1)) is split into hdrSubHalf (64) equal
// bins, so a bin's width is at most value/64. Values are clamped to
// hdrMax (2^45-1 — ~9.7 hours in nanoseconds), far above any latency or
// byte count the simulations produce.
//
// The zero value is ready to use.
type HDR struct {
	count  atomic.Int64
	sum    atomic.Int64
	minP1  atomic.Int64 // value+1; 0 means "no observation yet"
	max    atomic.Int64
	counts [hdrLen]atomic.Int64
}

const (
	hdrSubBits  = 7                       // 2^7 = 128 exact low bins
	hdrSubCount = 1 << hdrSubBits         // 128
	hdrSubHalf  = hdrSubCount / 2         // 64 bins per power-of-two tier
	hdrSubMask  = hdrSubCount - 1         // 127
	hdrMaxBits  = 45                      // observations clamp to 2^45-1
	hdrBuckets  = hdrMaxBits - hdrSubBits // 38: highest tier index
	hdrLen      = hdrBuckets*hdrSubHalf + hdrSubCount
)

// HDRMax is the largest trackable value; larger observations clamp.
const HDRMax = int64(1)<<hdrMaxBits - 1

// hdrIndex maps a clamped non-negative value to its bin.
func hdrIndex(v int64) int {
	u := uint64(v)
	b := bits.Len64(u|hdrSubMask) - hdrSubBits // power-of-two tier, 0 for v < 128
	return b*hdrSubHalf + int(u>>uint(b))
}

// hdrUpper returns bin i's inclusive upper bound. Bins below hdrSubCount
// hold exactly one value; above, bin width is 2^tier with the bin's
// lower bound at least hdrSubHalf·2^tier, so the upper bound
// overestimates any member by at most 1/hdrSubHalf (1.5625%).
func hdrUpper(i int) int64 {
	if i < hdrSubCount {
		return int64(i)
	}
	b := i/hdrSubHalf - 1
	sub := i - b*hdrSubHalf
	return (int64(sub)+1)<<uint(b) - 1
}

// Observe records one sample. Negative values are dropped; values above
// HDRMax clamp. Observe performs no allocation — the hot-path contract
// the obs benchmarks pin.
func (h *HDR) Observe(v int64) {
	if v < 0 {
		return
	}
	if v > HDRMax {
		v = HDRMax
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.counts[hdrIndex(v)].Add(1)
	for {
		old := h.minP1.Load()
		if old != 0 && old-1 <= v {
			break
		}
		if h.minP1.CompareAndSwap(old, v+1) {
			break
		}
	}
	for {
		old := h.max.Load()
		if old >= v {
			break
		}
		if h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// Reset zeroes the histogram in place, keeping the handle valid (an SLO
// monitor's window and a breaker's window restart from it).
func (h *HDR) Reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.minP1.Store(0)
	h.max.Store(0)
	for i := range h.counts {
		h.counts[i].Store(0)
	}
}

// hdrBin is one non-empty bin of a snapshot.
type hdrBin struct {
	idx int
	n   int64
}

// HDRSnapshot is a point-in-time copy of an HDR histogram with its
// headline quantiles precomputed. P50/P99/P999 (and Quantile) report a
// bin upper bound: at most 1.5625% above the true order statistic.
type HDRSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P99   int64 `json:"p99"`
	P999  int64 `json:"p999"`

	bins []hdrBin
}

// Snapshot copies the histogram's state and precomputes p50/p99/p999.
func (h *HDR) Snapshot() HDRSnapshot {
	s := HDRSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if p1 := h.minP1.Load(); p1 != 0 {
		s.Min = p1 - 1
	}
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			s.bins = append(s.bins, hdrBin{idx: i, n: n})
		}
	}
	s.P50 = s.Quantile(0.50)
	s.P99 = s.Quantile(0.99)
	s.P999 = s.Quantile(0.999)
	return s
}

// Quantile returns the value at quantile q in [0,1] (nearest-rank over
// the binned counts, reported as the containing bin's upper bound; the
// exact Max for q=1 and the exact Min for q=0). Zero when empty.
func (s HDRSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	cum := int64(0)
	for _, b := range s.bins {
		cum += b.n
		if cum >= rank {
			u := hdrUpper(b.idx)
			// The extreme bins cannot overestimate past the observed range.
			if u > s.Max {
				u = s.Max
			}
			if u < s.Min {
				u = s.Min
			}
			return u
		}
	}
	return s.Max
}
