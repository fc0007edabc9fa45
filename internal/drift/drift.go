// Package drift detects workload drift over sliding trace windows and
// defines the builtin drift scenarios the adaptation experiments replay.
//
// JECB (the paper) computes a partitioning once, from a fixed workload
// trace. A deployed partitioning, however, serves *shifting* traffic: the
// transaction-class mix moves, hot keys rotate, new hotspots are born —
// and a solution that was optimal for yesterday's mix silently degrades
// (SWORD and Operation Partitioning, PAPERS.md, both argue a production
// partitioner must adapt incrementally). This package supplies the
// *detector* half of the adaptation loop: it watches consecutive
// fixed-size windows of the live trace (trace.Trace.Window) and scores
// three complementary drift signals against a reference window —
//
//  1. class-mix divergence: the Jensen–Shannon distance between the
//     reference and current windows' transaction-class distributions;
//  2. root-attribute skew shift: the Jensen–Shannon distance between the
//     reference and current per-partition access-heat distributions under
//     the deployed solution (a rotating hot key range moves heat across
//     partitions even when the class mix is stable);
//  3. rising distributed-transaction fraction: the router-observed
//     fraction of distributed transactions in the current window minus
//     the reference window's (the direct symptom the paper's cost
//     function minimizes).
//
// A window whose combined score crosses the configured thresholds trips a
// Signal; the repartitioning controller (internal/sim drift replay,
// cmd/jecb -drift) reacts by warm-re-running JECB and planning a bounded
// migration (internal/migrate).
package drift

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	gScore      = obs.Default.Gauge("drift.score")
	gMixJS      = obs.Default.Gauge("drift.mix_js")
	gSkewJS     = obs.Default.Gauge("drift.skew_js")
	gDistRise   = obs.Default.Gauge("drift.dist_rise")
	cWindows    = obs.Default.Counter("drift.windows_observed")
	cTriggers   = obs.Default.Counter("drift.triggers")
	cSuppressed = obs.Default.Counter("drift.triggers_suppressed")
)

const (
	// mixThreshold trips the class-mix signal when the Jensen–Shannon
	// distance between the reference and current class distributions
	// exceeds it (JS distance is in [0,1]).
	mixThreshold float64 = 0.15
	// skewThreshold trips the skew signal when the JS distance between
	// the reference and current per-partition heat distributions exceeds
	// it.
	skewThreshold float64 = 0.18
	// distRiseThreshold trips the distributed-fraction signal when the
	// current window's observed distributed fraction exceeds the
	// reference window's by more than this absolute amount.
	distRiseThreshold float64 = 0.10
)

// Config tunes the detector. The zero value asks for the defaults.
type Config struct {
	// CooldownWindows suppresses re-triggering for this many windows
	// after a trigger, giving the repartition/migration time to land
	// (default 2).
	CooldownWindows int
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.CooldownWindows <= 0 {
		c.CooldownWindows = 2
	}
	return c
}

// Observation is one window's worth of detector input: the window's
// transactions plus the runtime measurements the replay loop (or a live
// router) already has in hand.
type Observation struct {
	// Window is the sliding trace window (trace.Trace.Window output).
	Window *trace.Trace
	// DistFrac is the observed fraction of distributed transactions in
	// the window under the deployed solution — the router-side signal.
	DistFrac float64
	// PartitionHeat is the per-partition access-heat vector of the window
	// under the deployed solution (any non-negative load measure; it is
	// normalized internally). A nil slice disables the skew signal for
	// this window.
	PartitionHeat []float64
}

// Signal is the detector's verdict for one window.
type Signal struct {
	// WindowIndex counts observed windows, starting at 0.
	WindowIndex int
	// MixJS and SkewJS are Jensen–Shannon distances in [0,1]; DistRise is
	// the absolute rise of the distributed fraction over the reference.
	MixJS, SkewJS, DistRise float64
	// Score is the combined drift score: the maximum of each signal
	// normalized by its threshold (>= 1 means at least one signal fired).
	Score float64
	// Drifted is set when the window trips at least one threshold and the
	// detector is out of cooldown.
	Drifted bool
	// Reasons names the signals that fired, sorted ("mix", "skew",
	// "dist").
	Reasons []string
}

// String renders a one-line summary.
func (s Signal) String() string {
	state := "steady"
	if s.Drifted {
		state = "DRIFT [" + strings.Join(s.Reasons, "+") + "]"
	}
	return fmt.Sprintf("window %d: score %.2f (mixJS %.3f, skewJS %.3f, distRise %+.3f) %s",
		s.WindowIndex, s.Score, s.MixJS, s.SkewJS, s.DistRise, state)
}

// Detector scores consecutive windows against a reference window. It is
// not safe for concurrent use: one detector watches one replay stream.
type Detector struct {
	cfg Config

	haveRef  bool
	refMix   map[string]float64
	refHeat  []float64
	refDist  float64
	windows  int
	cooldown int
}

// New returns a detector with the given configuration.
func New(cfg Config) *Detector {
	return &Detector{cfg: cfg.WithDefaults()}
}

// SetReference (re)establishes the baseline the following windows are
// compared against. The adaptation loop calls it after a repartition
// lands, so the detector measures drift *since the deployed solution was
// (re)trained* rather than since the beginning of time.
func (d *Detector) SetReference(o Observation) {
	d.refMix = o.Window.Mix()
	d.refHeat = normalize(o.PartitionHeat)
	d.refDist = o.DistFrac
	d.haveRef = true
}

// ClearCooldown lifts an active post-trigger cooldown. The adaptation
// loop calls it when a trigger turned out to deploy nothing (a warm
// accept): no migration is in flight, so there is nothing to shield the
// detector from, and the next window may trigger again.
func (d *Detector) ClearCooldown() { d.cooldown = 0 }

// Observe scores one window. The first window observed without an
// explicit reference becomes the reference and reports a zero signal.
func (d *Detector) Observe(o Observation) Signal {
	sig := Signal{WindowIndex: d.windows}
	d.windows++
	cWindows.Inc()
	if !d.haveRef {
		d.SetReference(o)
		return sig
	}

	sig.MixJS = JSDistance(d.refMix, o.Window.Mix())
	if d.refHeat != nil && o.PartitionHeat != nil {
		sig.SkewJS = jsDistanceSlices(d.refHeat, normalize(o.PartitionHeat))
	}
	sig.DistRise = o.DistFrac - d.refDist

	score := sig.MixJS / mixThreshold
	if s := sig.SkewJS / skewThreshold; s > score {
		score = s
	}
	if s := sig.DistRise / distRiseThreshold; s > score {
		score = s
	}
	sig.Score = score

	if sig.MixJS > mixThreshold {
		sig.Reasons = append(sig.Reasons, "mix")
	}
	if sig.SkewJS > skewThreshold {
		sig.Reasons = append(sig.Reasons, "skew")
	}
	if sig.DistRise > distRiseThreshold {
		sig.Reasons = append(sig.Reasons, "dist")
	}
	sort.Strings(sig.Reasons)

	gScore.Set(sig.Score)
	gMixJS.Set(sig.MixJS)
	gSkewJS.Set(sig.SkewJS)
	gDistRise.Set(sig.DistRise)

	if len(sig.Reasons) == 0 {
		if d.cooldown > 0 {
			d.cooldown--
		}
		return sig
	}
	if d.cooldown > 0 {
		d.cooldown--
		cSuppressed.Inc()
		return sig
	}
	sig.Drifted = true
	d.cooldown = d.cfg.CooldownWindows
	cTriggers.Inc()
	return sig
}

// JSDistance is the Jensen–Shannon distance (the square root of the
// Jensen–Shannon divergence, log base 2, so the result lies in [0,1])
// between two discrete distributions keyed by name. Missing keys count
// as probability zero; non-normalized inputs are normalized first. Two
// empty distributions are at distance 0; an empty versus a non-empty one
// at distance 1.
func JSDistance(p, q map[string]float64) float64 {
	sp, sq := mass(p), mass(q)
	switch {
	case sp == 0 && sq == 0:
		return 0
	case sp == 0 || sq == 0:
		return 1
	}
	div := 0.0
	for _, k := range sortedKeys(p, q) {
		pp := p[k] / sp
		qq := q[k] / sq
		m := (pp + qq) / 2
		div += 0.5*klTerm(pp, m) + 0.5*klTerm(qq, m)
	}
	return jsRoot(div)
}

// jsDistanceSlices is JSDistance over index-aligned normalized slices
// (the per-partition heat vectors). Lengths may differ; the shorter
// slice is zero-padded.
func jsDistanceSlices(p, q []float64) float64 {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	if n == 0 {
		return 0
	}
	div := 0.0
	for i := 0; i < n; i++ {
		var pp, qq float64
		if i < len(p) {
			pp = p[i]
		}
		if i < len(q) {
			qq = q[i]
		}
		m := (pp + qq) / 2
		div += 0.5*klTerm(pp, m) + 0.5*klTerm(qq, m)
	}
	return jsRoot(div)
}

// klTerm is one p·log2(p/m) term of a KL divergence (0 when p is 0).
func klTerm(p, m float64) float64 {
	if p <= 0 || m <= 0 {
		return 0
	}
	return p * math.Log2(p/m)
}

// jsRoot clamps tiny negative float error and takes the square root.
func jsRoot(div float64) float64 {
	if div < 0 {
		div = 0
	}
	if div > 1 {
		div = 1
	}
	return math.Sqrt(div)
}

// mass sums p in key order: float addition is not associative, and map
// order would make the sum, and every score built on it, vary by run.
func mass(p map[string]float64) float64 {
	s := 0.0
	for _, k := range sortedKeys(p) {
		s += p[k]
	}
	return s
}

// sortedKeys returns the union of the maps' keys in ascending order.
func sortedKeys(ms ...map[string]float64) []string {
	var keys []string
	for _, m := range ms {
		for k := range m {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return slices.Compact(keys)
}

// normalize returns heat scaled to sum 1 (nil for nil or zero-mass
// input), copying so callers keep their buffers.
func normalize(heat []float64) []float64 {
	if heat == nil {
		return nil
	}
	s := 0.0
	for _, h := range heat {
		s += h
	}
	if s <= 0 {
		return nil
	}
	out := make([]float64, len(heat))
	for i, h := range heat {
		out[i] = h / s
	}
	return out
}
