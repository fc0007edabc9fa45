package serve

import "sync"

// Admission control: a token bucket refilled in virtual time at an
// AIMD-adjusted rate, in front of the worker queue's depth cap. A shed
// request is a failed attempt the session retries against its retry
// budget (Result.ShedToken and Result.ShedQueue count them).
//
// The AIMD guardrail is the SLO feedback loop: after every completed
// SLOMonitor window the engine calls onWindow — a breached window cuts
// the admitted rate multiplicatively (shedding earlier, draining
// queues), a healthy window creeps it back up additively. The rate is
// clamped to [MinRateTPS, MaxRateTPS] so a pathological stretch cannot
// drive admission to zero or let it run away.

// admission is the token bucket + AIMD rate controller. Safe for
// concurrent use (the -race soak hammers it); the engine drives it
// single-threaded in virtual time.
type admission struct {
	mu  sync.Mutex
	cfg AdmissionConfig

	rate   float64 // current admitted rate, tokens/virtual-second
	tokens float64
	last   float64 // virtual time of the last refill

	initial              float64
	minSeen              float64
	increases, decreases int
}

func newAdmission(cfg AdmissionConfig) *admission {
	return &admission{
		cfg:     cfg,
		rate:    cfg.RateTPS,
		tokens:  cfg.Burst,
		initial: cfg.RateTPS,
		minSeen: cfg.RateTPS,
	}
}

// allow refills the bucket to virtual time now and spends one token,
// reporting whether there was one: an empty bucket sheds.
func (a *admission) allow(now float64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if now > a.last {
		a.tokens += (now - a.last) * a.rate
		if a.tokens > a.cfg.Burst {
			a.tokens = a.cfg.Burst
		}
		a.last = now
	}
	if a.tokens >= 1 {
		a.tokens--
		return true
	}
	return false
}

// onWindow applies the AIMD step for one completed SLO window.
func (a *admission) onWindow(healthy bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if healthy {
		if a.rate < a.cfg.MaxRateTPS {
			a.rate += a.cfg.IncreaseTPS
			if a.rate > a.cfg.MaxRateTPS {
				a.rate = a.cfg.MaxRateTPS
			}
			a.increases++
		}
		return
	}
	a.rate *= a.cfg.DecreaseFactor
	if a.rate < a.cfg.MinRateTPS {
		a.rate = a.cfg.MinRateTPS
	}
	a.decreases++
	if a.rate < a.minSeen {
		a.minSeen = a.rate
	}
}

// snapshot returns (initial, final, min, increases, decreases).
func (a *admission) snapshot() (initial, final, min float64, ups, downs int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.initial, a.rate, a.minSeen, a.increases, a.decreases
}
