package transport

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// waitGoroutines fails the test unless the goroutine count falls back to
// its pre-test value within a short deadline: a goroutine that saw its
// connection close may still be returning when Close returns.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d running after CloseAll, %d before\n%s", n, before, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPLeavesNoGoroutine checks that a TCP mesh joins or ends every
// goroutine it starts — accept loops, per-connection readers, the
// monitors of dialed connections and spiked deliveries — by CloseAll:
// three endpoints exchange frames both ways, one frame in two from node
// 2 is latency-spiked, and node 1 hangs up on its dialers mid-stream, so
// their monitors evict the dead links and their next sends re-dial.
func TestTCPLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	tcps := make([]*TCPEndpoint, 3)
	peers := map[int]string{}
	for id := range tcps {
		ep, err := ListenTCP(id, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tcps[id], peers[id] = ep, ep.Addr()
	}
	for _, ep := range tcps {
		ep.SetPeers(peers)
	}
	eps := []Transport{tcps[0], tcps[1],
		WithChaos(tcps[2], FaultPolicy{Seed: 1, SpikeProb: 0.5, SpikeDelay: time.Millisecond})}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var txn uint64
	exchange := func(from, to int) {
		t.Helper()
		for i := 0; i < 8; i++ {
			txn++
			if err := eps[from].Send(ctx, Msg{Type: 1, From: from, To: to, Txn: txn, Payload: []byte("frame")}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			if m, err := eps[to].Recv(ctx); err != nil || m.From != from {
				t.Fatalf("%d -> %d: got %s, %v", from, to, m, err)
			}
		}
	}
	mesh := func() {
		t.Helper()
		for from := range eps {
			for to := range eps {
				if from != to {
					exchange(from, to)
				}
			}
		}
	}
	mesh()

	// Node 1 hangs up every connection it accepted: the monitors of nodes
	// 0 and 2 see the hangup and drop their cached links, so that their
	// next sends re-dial.
	tcps[1].mu.Lock()
	for c := range tcps[1].accepted {
		c.Close()
	}
	tcps[1].mu.Unlock()
	for _, id := range []int{0, 2} {
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			tcps[id].mu.Lock()
			_, cached := tcps[id].conns[1]
			tcps[id].mu.Unlock()
			if !cached {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d kept its link to node 1 after the hangup", id)
			}
		}
	}
	mesh()

	CloseAll(eps)
	waitGoroutines(t, before)
}
