package transport

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/faults"
)

// busInboxCap bounds each endpoint's inbox; a full inbox drops frames
// (backpressure looks like loss, exactly as on a congested network).
const busInboxCap = 1024

// Bus is the in-proc transport: every endpoint is a buffered channel,
// every Send round-trips the wire codec, and a swappable faults.Health
// view gates delivery — frames to or from a down node vanish without an
// error, so partitions surface as Recv timeouts at the peer, the same
// shape the TCP transport produces.
type Bus struct {
	mu     sync.Mutex
	eps    map[int]*busEndpoint
	health faults.Health
}

// NewBus creates an empty bus with every node up.
func NewBus() *Bus {
	return &Bus{eps: map[int]*busEndpoint{}, health: faults.AllUp}
}

// SetHealth swaps the delivery-gating health view (nil restores AllUp).
// The durable replay points it at the fault injector's crash windows so
// scripted outages drop real frames.
func (b *Bus) SetHealth(h faults.Health) {
	if h == nil {
		h = faults.AllUp
	}
	b.mu.Lock()
	b.health = h
	b.mu.Unlock()
}

// Endpoint registers node id on the bus. Registering an id twice is an
// error (one inbox per node).
func (b *Bus) Endpoint(id int) (Transport, error) {
	if id < 0 {
		return nil, fmt.Errorf("transport: negative node id %d", id)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.eps[id]; ok {
		return nil, fmt.Errorf("transport: node %d already registered", id)
	}
	ep := &busEndpoint{
		bus:  b,
		id:   id,
		ch:   make(chan []byte, busInboxCap),
		done: make(chan struct{}),
	}
	b.eps[id] = ep
	return ep, nil
}

// busEndpoint's inbox holds frames, not decoded messages: a frame slice
// is a third the size of a Msg, and the inbox is allocated at its full
// capacity up front.
type busEndpoint struct {
	bus  *Bus
	id   int
	ch   chan []byte
	done chan struct{}
	once sync.Once
}

func (e *busEndpoint) ID() int { return e.id }

// Send frames m and delivers the frame to the destination inbox, where
// Recv decodes it: bus traffic round-trips the same wire format the TCP
// transport ships, and the delivered payload is the frame's copy, not
// the caller's buffer. Drops (down node, closed or missing destination,
// full inbox) are silent by design — only a local encode failure errors.
func (e *busEndpoint) Send(ctx context.Context, m Msg) error {
	select {
	case <-e.done:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	frame, err := AppendFrame(nil, m)
	if err != nil {
		return err
	}
	cMsgsSent.Inc()
	cBytesSent.Add(int64(len(frame)))
	b := e.bus
	b.mu.Lock()
	health := b.health
	dst := b.eps[m.To]
	b.mu.Unlock()
	if health.Down(m.From) || health.Down(m.To) || dst == nil {
		cMsgsDropped.Inc()
		return nil
	}
	select {
	case <-dst.done:
		cMsgsDropped.Inc()
	case dst.ch <- frame:
		cMsgsDelivered.Inc()
	default:
		cMsgsDropped.Inc() // inbox full: congestion loss
	}
	return nil
}

func (e *busEndpoint) Recv(ctx context.Context) (Msg, error) {
	select {
	case <-e.done:
		// Checked before draining: a frame that raced past Close into the
		// buffer must not resurrect a closed endpoint.
		return Msg{}, ErrClosed
	default:
	}
	select {
	case f := <-e.ch:
		return decodeDelivered(f)
	default:
	}
	select {
	case f := <-e.ch:
		return decodeDelivered(f)
	case <-ctx.Done():
		cRecvTimeouts.Inc()
		return Msg{}, ctx.Err()
	case <-e.done:
		return Msg{}, ErrClosed
	}
}

// decodeDelivered decodes a frame a bus Send built, which always
// decodes: an error here is a codec bug, reported to the receiver.
func decodeDelivered(frame []byte) (Msg, error) {
	m, _, err := DecodeFrame(frame)
	return m, err
}

func (e *busEndpoint) Close() error {
	e.once.Do(func() { close(e.done) })
	return nil
}
