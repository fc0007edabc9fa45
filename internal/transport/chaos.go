package transport

import (
	"bytes"
	"context"
	"time"
)

// FaultPolicy is the seeded chaos decorator's configuration: per-frame
// loss and latency-spike probabilities realized from the scenario's
// MsgLossProb / LatencySpikeProb.
//
// Sampling is hash-based, not stream-based: each frame's fate is a
// splitmix64 hash of (Seed, From, To, Txn, Type, Attempt), so the
// decision depends only on the message's identity — never on how
// concurrent sends interleave. That is what keeps a seeded chaos run
// byte-reproducible on top of a real concurrent transport, where a
// shared rand.Rand stream would be consumed in scheduling order.
type FaultPolicy struct {
	// Seed isolates runs: same seed, same per-message fates.
	Seed int64
	// LossProb is the probability one frame is dropped in flight.
	LossProb float64
	// SpikeProb is the probability one frame is delayed by SpikeDelay of
	// real time before delivery (0 delay records the spike but delivers
	// immediately).
	SpikeProb  float64
	SpikeDelay time.Duration
	// Exempt, when non-nil, excludes matching messages from loss and
	// delay (the cluster harness exempts single-partition commit traffic:
	// the fault contract charges message loss to distributed transactions
	// only).
	Exempt func(m Msg) bool
}

// Enabled reports whether the policy can affect any frame.
func (p FaultPolicy) Enabled() bool { return p.LossProb > 0 || p.SpikeProb > 0 }

// Drops deterministically samples whether frame m is lost in flight.
func (p FaultPolicy) Drops(m Msg) bool {
	if p.LossProb <= 0 || (p.Exempt != nil && p.Exempt(m)) {
		return false
	}
	return sample01(p.Seed, saltLoss, m) < p.LossProb
}

// Spikes deterministically samples whether frame m suffers a latency
// spike.
func (p FaultPolicy) Spikes(m Msg) bool {
	if p.SpikeProb <= 0 || (p.Exempt != nil && p.Exempt(m)) {
		return false
	}
	return sample01(p.Seed, saltSpike, m) < p.SpikeProb
}

const (
	saltLoss  = 0x6c6f7373 // "loss"
	saltSpike = 0x73706b65 // "spke"
)

// splitmix64 is the standard 64-bit finalizer (same family as
// obs.TxnID); successive applications over folded-in fields give an
// identity-keyed pseudo-random value.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// sample01 hashes a message identity to a float in [0, 1).
func sample01(seed int64, salt uint64, m Msg) float64 {
	h := splitmix64(uint64(seed) ^ salt)
	h = splitmix64(h ^ uint64(m.From)<<32 ^ uint64(m.To))
	h = splitmix64(h ^ m.Txn)
	h = splitmix64(h ^ uint64(m.Type)<<32 ^ uint64(m.Attempt))
	return float64(h>>11) / (1 << 53)
}

// WithChaos wraps any endpoint with the fault policy. A disabled policy
// returns the endpoint unwrapped.
func WithChaos(ep Transport, p FaultPolicy) Transport {
	if !p.Enabled() {
		return ep
	}
	return &chaosEndpoint{inner: ep, p: p}
}

type chaosEndpoint struct {
	inner Transport
	p     FaultPolicy
}

func (e *chaosEndpoint) ID() int { return e.inner.ID() }

func (e *chaosEndpoint) Send(ctx context.Context, m Msg) error {
	if e.p.Drops(m) {
		cChaosDropped.Inc()
		return nil // lost in flight: the sender cannot tell
	}
	if e.p.Spikes(m) {
		cChaosDelayed.Inc()
		if e.p.SpikeDelay > 0 {
			// The frame outlives this call: it takes its own payload copy,
			// as Send's contract requires.
			inner := e.inner
			m.Payload = bytes.Clone(m.Payload)
			time.AfterFunc(e.p.SpikeDelay, func() {
				// Delivery outlives the caller's deadline by design; a
				// delayed frame is not the sender's problem anymore.
				_ = inner.Send(context.Background(), m)
			})
			return nil
		}
	}
	return e.inner.Send(ctx, m)
}

func (e *chaosEndpoint) Recv(ctx context.Context) (Msg, error) { return e.inner.Recv(ctx) }
func (e *chaosEndpoint) Close() error                          { return e.inner.Close() }
