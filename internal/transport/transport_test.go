package transport

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
)

func mustFrame(t *testing.T, m Msg) []byte {
	t.Helper()
	frame, err := AppendFrame(nil, m)
	if err != nil {
		t.Fatalf("AppendFrame(%s): %v", m, err)
	}
	return frame
}

func TestFrameRoundTrip(t *testing.T) {
	msgs := []Msg{
		{Type: 1, From: 0, To: 1, Txn: 42, Attempt: 3, Payload: []byte("hello")},
		{Type: 255, From: 1000, To: 1001, Txn: 1<<64 - 1, Attempt: 0},
		{Type: 7, From: 0, To: 0, Txn: 0, Attempt: 0, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
	}
	var buf []byte
	for _, m := range msgs {
		buf = append(buf, mustFrame(t, m)...)
	}
	off := 0
	for i, want := range msgs {
		got, n, err := DecodeFrame(buf[off:])
		if err != nil {
			t.Fatalf("msg %d: decode: %v", i, err)
		}
		off += n
		if got.Type != want.Type || got.From != want.From || got.To != want.To ||
			got.Txn != want.Txn || got.Attempt != want.Attempt || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("msg %d: got %+v want %+v", i, got, want)
		}
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	frame := mustFrame(t, Msg{Type: 3, From: 1, To: 2, Txn: 9, Payload: []byte("xyz")})

	// Every proper prefix is torn, never bad.
	for cut := 0; cut < len(frame); cut++ {
		_, _, err := DecodeFrame(frame[:cut])
		if !errors.Is(err, ErrTornFrame) {
			t.Fatalf("prefix of %d bytes: got %v, want ErrTornFrame", cut, err)
		}
	}
	// A flipped body byte is a CRC mismatch.
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0x01
	if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corrupt body: got %v, want ErrBadFrame", err)
	}
	// A zero length prefix is bad, not torn.
	if _, _, err := DecodeFrame(make([]byte, 16)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("zero-length frame: got %v, want ErrBadFrame", err)
	}
	// An oversized declared length is rejected before any allocation.
	huge := append([]byte(nil), frame...)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, _, err := DecodeFrame(huge); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized frame: got %v, want ErrBadFrame", err)
	}
	// AppendFrame refuses bodies beyond MaxFrameSize.
	if _, err := AppendFrame(nil, Msg{Type: 1, Payload: make([]byte, MaxFrameSize)}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized encode: got %v, want ErrBadFrame", err)
	}
}

func TestBusDelivery(t *testing.T) {
	bus := NewBus()
	a, err := bus.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bus.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Endpoint(0); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	ctx := context.Background()
	want := Msg{Type: 5, From: 0, To: 1, Txn: 77, Attempt: 1, Payload: []byte("ping")}
	if err := a.Send(ctx, want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Txn != want.Txn || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("got %+v want %+v", got, want)
	}

	// Recv deadline surfaces as the context error.
	short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if _, err := b.Recv(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("empty recv: got %v, want deadline", err)
	}

	// Closed endpoints drop inbound frames and error on Recv.
	b.Close()
	if err := a.Send(ctx, want); err != nil {
		t.Fatalf("send to closed peer must drop silently, got %v", err)
	}
	if _, err := b.Recv(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv on closed endpoint: got %v, want ErrClosed", err)
	}
}

// TestBusHealthGate pins the ISSUE's "crash windows drop real frames"
// mechanism: a down node's frames vanish in both directions, and flow
// resumes when the window closes.
func TestBusHealthGate(t *testing.T) {
	bus := NewBus()
	a, _ := bus.Endpoint(0)
	b, _ := bus.Endpoint(1)
	ctx := context.Background()
	m := Msg{Type: 2, From: 0, To: 1, Txn: 1}

	bus.SetHealth(faults.NodeSet{1: true})
	if err := a.Send(ctx, m); err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := b.Recv(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("frame to down node delivered: %v", err)
	}
	// Down senders are gated too.
	bus.SetHealth(faults.NodeSet{0: true})
	if err := a.Send(ctx, m); err != nil {
		t.Fatal(err)
	}
	short2, cancel2 := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel2()
	if _, err := b.Recv(short2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("frame from down node delivered: %v", err)
	}

	bus.SetHealth(nil) // window closes
	if err := a.Send(ctx, m); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(ctx); err != nil {
		t.Fatalf("recovered node should receive: %v", err)
	}
}

// TestChaosDeterminism pins the hash-sampling contract: the set of
// dropped frames is a pure function of (seed, message identity), so two
// policies with the same seed agree on every frame, a different seed
// disagrees somewhere, and bumping Attempt resamples the fate.
func TestChaosDeterminism(t *testing.T) {
	p1 := FaultPolicy{Seed: 7, LossProb: 0.3}
	p2 := FaultPolicy{Seed: 7, LossProb: 0.3}
	p3 := FaultPolicy{Seed: 8, LossProb: 0.3}
	drops1, drops3, resampled := 0, 0, false
	for txn := uint64(0); txn < 400; txn++ {
		m := Msg{Type: 1, From: 0, To: 1, Txn: txn, Attempt: 1}
		d := p1.Drops(m)
		if d != p2.Drops(m) {
			t.Fatalf("same-seed policies disagree on txn %d", txn)
		}
		if d {
			drops1++
			retry := m
			retry.Attempt = 2
			if !p1.Drops(retry) {
				resampled = true
			}
		}
		if p3.Drops(m) {
			drops3++
		}
	}
	if drops1 == 0 || drops1 == 400 {
		t.Fatalf("loss prob 0.3 dropped %d/400", drops1)
	}
	if drops1 == drops3 {
		t.Fatalf("different seeds produced identical drop counts %d — suspicious", drops1)
	}
	if !resampled {
		t.Fatal("no dropped frame was redelivered on a bumped attempt")
	}
}

// TestChaosExempt pins the local-commit exemption hook.
func TestChaosExempt(t *testing.T) {
	p := FaultPolicy{Seed: 1, LossProb: 1.0, Exempt: func(m Msg) bool { return m.Type == 9 }}
	if p.Drops(Msg{Type: 9, Txn: 1}) {
		t.Fatal("exempt message dropped")
	}
	if !p.Drops(Msg{Type: 8, Txn: 1}) {
		t.Fatal("non-exempt message survived LossProb=1")
	}
}

func TestChaosOverBus(t *testing.T) {
	bus := NewBus()
	rawA, _ := bus.Endpoint(0)
	b, _ := bus.Endpoint(1)
	a := WithChaos(rawA, FaultPolicy{Seed: 3, LossProb: 0.5})
	ctx := context.Background()
	delivered := 0
	for txn := uint64(0); txn < 200; txn++ {
		if err := a.Send(ctx, Msg{Type: 1, From: 0, To: 1, Txn: txn}); err != nil {
			t.Fatal(err)
		}
	}
	for {
		short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
		_, err := b.Recv(short)
		cancel()
		if err != nil {
			break
		}
		delivered++
	}
	if delivered == 0 || delivered == 200 {
		t.Fatalf("chaos over bus delivered %d/200", delivered)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	a, err := ListenTCP(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	peers := map[int]string{0: a.Addr(), 1: b.Addr()}
	a.SetPeers(peers)
	b.SetPeers(peers)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	want := Msg{Type: 4, From: 0, To: 1, Txn: 11, Attempt: 2, Payload: []byte("over tcp")}
	if err := a.Send(ctx, want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Txn != want.Txn || !bytes.Equal(got.Payload, want.Payload) || got.From != 0 {
		t.Fatalf("got %+v want %+v", got, want)
	}
	// Reply over the reverse direction (fresh dial b→a).
	if err := b.Send(ctx, Msg{Type: 5, From: 1, To: 0, Txn: 11}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recv(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestTCPDeadPeerSilence pins the delivery semantics the 2PC layer
// depends on: a send to a dead peer is silently dropped, and the failure
// surfaces only as the *sender's* Recv timeout waiting for the reply.
func TestTCPDeadPeerSilence(t *testing.T) {
	a, err := ListenTCP(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := map[int]string{0: a.Addr(), 1: b.Addr()}
	a.SetPeers(peers)
	b.Close() // peer dies

	ctx := context.Background()
	if err := a.Send(ctx, Msg{Type: 1, From: 0, To: 1, Txn: 5}); err != nil {
		t.Fatalf("send to dead peer must not error: %v", err)
	}
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := a.Recv(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected reply timeout, got %v", err)
	}
}

// TestTCPPeerRestartResume pins the eviction contract: after a peer
// restarts (new listener, new address), the sender's cached connection to
// the old incarnation is torn down — by the connection monitor noticing
// the hangup — and a later Send re-dials and reaches the new incarnation.
// Without eviction the cached dead connection would swallow frames
// forever.
func TestTCPPeerRestartResume(t *testing.T) {
	a, err := ListenTCP(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeers(map[int]string{1: b.Addr()})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Send(ctx, Msg{Type: 1, From: 0, To: 1, Txn: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(ctx); err != nil {
		t.Fatalf("pre-restart delivery: %v", err)
	}

	// Restart the peer: the old incarnation dies, a fresh one binds a new
	// port, and the address book is updated (as repl's rejoin path does).
	b.Close()
	b2, err := ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	a.SetPeers(map[int]string{1: b2.Addr()})

	// The monitor evicts the dead cached connection asynchronously; a
	// bounded resend loop (what every protocol layer above runs anyway)
	// must get a frame through to the restarted peer.
	got := false
	for attempt := 1; attempt <= 100 && !got; attempt++ {
		if err := a.Send(ctx, Msg{Type: 2, From: 0, To: 1, Txn: uint64(attempt)}); err != nil {
			t.Fatal(err)
		}
		rctx, rcancel := context.WithTimeout(ctx, 50*time.Millisecond)
		if m, err := b2.Recv(rctx); err == nil && m.Type == 2 {
			got = true
		}
		rcancel()
	}
	if !got {
		t.Fatal("no frame reached the restarted peer: dead connection never evicted")
	}
}

func TestNewChaosEndpoints(t *testing.T) {
	for _, wire := range []string{"bus", "tcp"} {
		t.Run(wire, func(t *testing.T) {
			bus, eps, err := NewChaosEndpoints(wire, 3, FaultPolicy{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer CloseAll(eps)
			if (bus != nil) != (wire == "bus") || len(eps) != 3 {
				t.Fatalf("bus %v, %d endpoints", bus, len(eps))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			for id, ep := range eps {
				if ep.ID() != id {
					t.Fatalf("endpoint %d has id %d", id, ep.ID())
				}
				to := (id + 1) % len(eps)
				if err := ep.Send(ctx, Msg{Type: 1, From: id, To: to, Txn: uint64(id)}); err != nil {
					t.Fatal(err)
				}
				m, err := eps[to].Recv(ctx)
				if err != nil || m.From != id || m.Txn != uint64(id) {
					t.Fatalf("%d -> %d: got %s, %v", id, to, m, err)
				}
			}
		})
	}
	if _, _, err := NewChaosEndpoints("carrier-pigeon", 2, FaultPolicy{}); err == nil {
		t.Error("unknown wire must be rejected")
	}
}

// TestSendDoesNotRetainPayload pins Send's contract that m.Payload is not
// retained once Send returns: on the bus and over loopback TCP, plain and
// with every frame latency-spiked (delivered from a timer after Send
// returned), the sender overwrites its payload buffer right after Send,
// and the delivered message must still carry the original bytes.
func TestSendDoesNotRetainPayload(t *testing.T) {
	plain := FaultPolicy{}
	spiked := FaultPolicy{Seed: 1, SpikeProb: 1, SpikeDelay: 5 * time.Millisecond}
	for _, tc := range []struct {
		name, wire string
		pol        FaultPolicy
	}{
		{"bus", "bus", plain},
		{"bus-spiked", "bus", spiked},
		{"tcp", "tcp", plain},
		{"tcp-spiked", "tcp", spiked},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, eps, err := NewChaosEndpoints(tc.wire, 2, tc.pol)
			if err != nil {
				t.Fatal(err)
			}
			defer CloseAll(eps)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			buf := make([]byte, 0, 64)
			for i := 0; i < 8; i++ {
				buf = append(buf[:0], "ship batch "...)
				buf = append(buf, byte('0'+i))
				want := bytes.Clone(buf)
				if err := eps[0].Send(ctx, Msg{Type: 3, From: 0, To: 1, Txn: uint64(i), Payload: buf}); err != nil {
					t.Fatal(err)
				}
				for j := range buf {
					buf[j] = 0xFF
				}
				got, err := eps[1].Recv(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Payload, want) {
					t.Fatalf("message %d delivered %q, sent %q", i, got.Payload, want)
				}
			}
		})
	}
}
