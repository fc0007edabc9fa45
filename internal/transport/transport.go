// Package transport is the message-passing substrate under the split
// 2PC engine (internal/twopc): length-prefixed, CRC-framed messages
// exchanged between per-node endpoints with per-call deadlines.
//
// Two implementations share the wire codec (msg.go):
//
//   - Bus (bus.go): a deterministic in-proc channel bus. Every Send
//     round-trips the frame codec, a Health view gates delivery (frames
//     to or from a down node are silently dropped, surfacing at the
//     sender as a Recv timeout — the shape a real partition has), and
//     the chaos decorator (chaos.go) composes seeded message loss and
//     latency spikes on top.
//   - TCP (tcp.go): one listener per node, lazily dialed peer
//     connections, write deadlines from the caller's context — the
//     out-of-process deployment path.
//
// Loss, delay and partition are modeled by *dropping real frames*, never
// by returning an error from Send: a sender cannot observe an in-flight
// loss, only the absence of a reply. Timeouts therefore live at Recv,
// where the protocol layer (internal/twopc) decides what a silent peer
// means.
//
// Determinism: the chaos decorator samples each frame's fate from a
// splitmix64 hash over (seed, from, to, txn, type, attempt) — a pure
// function of the message identity, independent of goroutine scheduling
// — so a seeded run drops exactly the same frames no matter how sends
// interleave. Retransmissions must bump Msg.Attempt to be resampled.
package transport

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/obs"
)

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	cMsgsSent      = obs.Default.Counter("transport.msgs_sent")
	cBytesSent     = obs.Default.Counter("transport.bytes_sent")
	cMsgsDelivered = obs.Default.Counter("transport.msgs_delivered")
	cMsgsDropped   = obs.Default.Counter("transport.msgs_dropped")
	cChaosDropped  = obs.Default.Counter("transport.chaos_dropped")
	cChaosDelayed  = obs.Default.Counter("transport.chaos_delayed")
	cRecvTimeouts  = obs.Default.Counter("transport.recv_timeouts")
	cTCPDials      = obs.Default.Counter("transport.tcp_dials")
	cTCPAccepts    = obs.Default.Counter("transport.tcp_accepts")
)

// ErrClosed is returned by Send and Recv on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// Transport is one node's handle on the message substrate. Send is
// best-effort and asynchronous: a nil error means the frame was handed
// to the wire, not that it arrived — loss, a dead peer, and a partition
// all look identical (silence). Recv blocks until a frame arrives, the
// context expires, or the endpoint closes. Implementations must be safe
// for concurrent use.
type Transport interface {
	// ID is the node id this endpoint speaks for.
	ID() int
	// Send frames and ships one message. The context bounds local work
	// (dial, write); delivery is never acknowledged at this layer.
	// m.Payload is not retained once Send returns: every implementation
	// frames or copies it first, so a caller may reuse the payload
	// buffer for its next message.
	Send(ctx context.Context, m Msg) error
	// Recv returns the next inbound message. On deadline it returns the
	// context's error; on a closed endpoint, ErrClosed.
	Recv(ctx context.Context) (Msg, error)
	// Close tears the endpoint down; subsequent sends to it are dropped.
	Close() error
}

// NewChaosEndpoints builds endpoints 0..n-1 over the named wire, each
// wrapped by WithChaos under pol: "bus" returns the in-proc Bus (whose
// health view gates delivery) with its endpoints; "tcp" returns loopback
// listeners that know each other's addresses, and a nil Bus. On error
// every endpoint built so far is closed.
func NewChaosEndpoints(wire string, n int, pol FaultPolicy) (*Bus, []Transport, error) {
	eps := make([]Transport, n)
	switch wire {
	case "bus":
		bus := NewBus()
		for id := range eps {
			ep, err := bus.Endpoint(id)
			if err != nil {
				CloseAll(eps)
				return nil, nil, err
			}
			eps[id] = WithChaos(ep, pol)
		}
		return bus, eps, nil
	case "tcp":
		tcps := make([]*TCPEndpoint, n)
		peers := make(map[int]string, n)
		for id := range eps {
			ep, err := ListenTCP(id, "127.0.0.1:0")
			if err != nil {
				CloseAll(eps)
				return nil, nil, err
			}
			tcps[id], eps[id], peers[id] = ep, WithChaos(ep, pol), ep.Addr()
		}
		for _, ep := range tcps {
			ep.SetPeers(peers)
		}
		return nil, eps, nil
	}
	return nil, nil, fmt.Errorf("transport: unknown transport %q", wire)
}

// CloseAll closes every non-nil endpoint of eps.
func CloseAll(eps []Transport) {
	for _, ep := range eps {
		if ep != nil {
			ep.Close()
		}
	}
}
