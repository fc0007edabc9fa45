package twopc

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/faults"
	"repro/internal/fixture"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/value"
)

// touchWrites routes one touch of a TRADE row to each of parts.
func touchWrites(parts ...int) *cluster.Writes {
	txn := &trace.Txn{}
	place := make([]int32, len(parts))
	for i, p := range parts {
		txn.Accesses = append(txn.Accesses, trace.Access{
			Table: "TRADE", Key: value.MakeKey(value.NewInt(int64(i + 1))), Write: true})
		place[i] = int32(p)
	}
	var w cluster.Writes
	cluster.WriteEffects(&w, txn, place, parts[len(parts)-1]+1, parts[0])
	return &w
}

func singleCol(table, col string) schema.JoinPath {
	sc := fixture.CustInfoSchema()
	t := sc.Table(table)
	if len(t.PrimaryKey) == 1 && t.PrimaryKey[0] == col {
		return schema.NewJoinPath(schema.ColumnSet{Table: table, Columns: []string{col}})
	}
	return schema.NewJoinPath(
		schema.ColumnSet{Table: table, Columns: append([]string(nil), t.PrimaryKey...)},
		schema.ColumnSet{Table: table, Columns: []string{col}},
	)
}

// scatterSolution partitions TRADE and CUSTOMER_ACCOUNT by their own
// ids, so TradeUpdate transactions write across partitions and the
// replay exercises real over-the-wire 2PC rounds.
func scatterSolution(k int) *partition.Solution {
	sol := partition.NewSolution("scatter", k)
	sol.Set(partition.NewByPath("TRADE", singleCol("TRADE", "T_ID"), partition.NewHash(k)))
	sol.Set(partition.NewByPath("CUSTOMER_ACCOUNT", singleCol("CUSTOMER_ACCOUNT", "CA_ID"), partition.NewHash(k)))
	sol.Set(partition.NewReplicated("HOLDING_SUMMARY"))
	return sol
}

func runScenario(t *testing.T, d *db.DB, sol *partition.Solution, tr *trace.Trace, name, transportName string, standby bool, rec *obs.Recorder) *Result {
	t.Helper()
	sc, err := faults.Builtin(name, sol.K)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(obs.WithRecorder(context.Background(), rec), d, sol, tr, Config{
		Scenario:        sc,
		Seed:            1,
		WALDir:          t.TempDir(),
		Transport:       transportName,
		Standby:         standby,
		CheckpointEvery: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunConfigErrors: Run rejects a nil fault scenario and an empty
// log directory. An empty WALDir must fail before any log is touched:
// clearing "" would delete the partition logs of the working directory.
func TestRunConfigErrors(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 50, 2)
	sol := scatterSolution(2)
	sc, err := faults.Builtin("none", 2)
	if err != nil {
		t.Fatal(err)
	}
	// Run from a scratch working directory holding another run's log.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	cwd := t.TempDir()
	if err := os.Chdir(cwd); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
	stray := filepath.Join(cwd, "partition-7.wal")
	if err := os.WriteFile(stray, []byte("another run's log"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"without scenario", Config{Seed: 1, WALDir: t.TempDir()}},
		{"without WAL dir", Config{Scenario: sc, Seed: 1}},
	} {
		if _, err := Run(context.Background(), d, sol, tr, c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := os.Stat(stray); err != nil {
		t.Errorf("a run without a WAL dir touched the working directory's logs: %v", err)
	}
}

// TestOracleCrashScenariosOverBus is the acceptance gate: the full
// durable-chaos suite runs over the in-proc bus — real partition-server
// goroutines, framed messages, hash-sampled loss — and every scenario
// must end with the recovered cluster byte-identical to a fault-free
// re-execution of exactly the committed set.
func TestOracleCrashScenariosOverBus(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 2)
	sol := scatterSolution(2)
	for _, name := range []string{"none", "part-crash", "prep-crash", "coord-crash", "flaky-network"} {
		t.Run(name, func(t *testing.T) {
			r := runScenario(t, d, sol, tr, name, "bus", false, nil)
			if !r.OracleOK {
				t.Fatalf("consistency oracle failed: %s", r)
			}
			if r.Committed+r.PermanentFailures != r.Offered {
				t.Fatalf("offered=%d committed=%d permanent=%d", r.Offered, r.Committed, r.PermanentFailures)
			}
			if r.Committed == 0 {
				t.Fatal("no transaction committed")
			}
			switch name {
			case "part-crash":
				if len(r.CrashedNodes) != 1 || r.CrashedNodes[0] != 1 {
					t.Errorf("crashed nodes = %v, want [1]", r.CrashedNodes)
				}
				if r.TornTails < 1 {
					t.Errorf("participant torn prepare: torn tails = %d, want >= 1", r.TornTails)
				}
			case "prep-crash":
				// No durable decision: presumed abort at recovery, torn
				// COMMIT shows as a torn tail.
				if r.InDoubtAborted < 1 {
					t.Errorf("in-doubt aborted = %d, want >= 1: %s", r.InDoubtAborted, r)
				}
				if r.TornTails < 1 {
					t.Errorf("torn tails = %d, want >= 1", r.TornTails)
				}
				if len(r.InDoubtParts) == 0 {
					t.Errorf("without a standby the survivors must stay in doubt: %s", r)
				}
			case "coord-crash":
				// The decision was durable: recovery resolves the in-doubt
				// survivor to COMMIT.
				if r.InDoubtCommitted < 1 {
					t.Errorf("in-doubt committed = %d, want >= 1: %s", r.InDoubtCommitted, r)
				}
				if len(r.CrashedNodes) != 1 || r.CrashedNodes[0] != 0 {
					t.Errorf("crashed nodes = %v, want [0]", r.CrashedNodes)
				}
			case "flaky-network":
				if r.Failovers != 0 {
					t.Errorf("failovers = %d, want 0", r.Failovers)
				}
			}
		})
	}
}

// TestStandbyFailoverOverBus pins the coordinator-failover protocol:
// after the leader dies with a crashed coordinator partition, the
// standby's lease lapses, it scans for in-doubt transactions, recovers
// each decision from the PREPARE-embedded coordinator id, and the run
// continues with no participant left blocked.
func TestStandbyFailoverOverBus(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 2)
	sol := scatterSolution(2)

	t.Run("coord-crash", func(t *testing.T) {
		r := runScenario(t, d, sol, tr, "coord-crash", "bus", true, nil)
		if !r.OracleOK {
			t.Fatalf("oracle failed: %s", r)
		}
		if r.Failovers != 1 {
			t.Fatalf("failovers = %d, want 1: %s", r.Failovers, r)
		}
		// The decision was durable on the crashed coordinator's log: the
		// standby must resolve the survivor to COMMIT, not presumed abort.
		if r.ResolvedCommits < 1 {
			t.Errorf("resolved commits = %d, want >= 1: %s", r.ResolvedCommits, r)
		}
		if len(r.InDoubtParts) != 0 {
			t.Errorf("standby left partitions in doubt: %v", r.InDoubtParts)
		}
	})
	t.Run("prep-crash", func(t *testing.T) {
		r := runScenario(t, d, sol, tr, "prep-crash", "bus", true, nil)
		if !r.OracleOK {
			t.Fatalf("oracle failed: %s", r)
		}
		if r.Failovers != 1 {
			t.Fatalf("failovers = %d, want 1: %s", r.Failovers, r)
		}
		// Torn decision record: the standby reads the coordinator's WAL,
		// finds no durable COMMIT, and presumed-aborts the survivor.
		if r.ResolvedAborts < 1 {
			t.Errorf("resolved aborts = %d, want >= 1: %s", r.ResolvedAborts, r)
		}
		if len(r.InDoubtParts) != 0 {
			t.Errorf("standby left partitions in doubt: %v", r.InDoubtParts)
		}
	})
}

// TestSameSeedByteIdentical pins the determinism contract over real
// concurrency: two runs with the same seed — including one with a
// coordinator failover — must produce byte-identical JSON reports and
// byte-identical flight-recorder dumps.
func TestSameSeedByteIdentical(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 2)
	sol := scatterSolution(2)
	for _, tc := range []struct {
		name    string
		standby bool
	}{
		{"flaky-network", false},
		{"coord-crash", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var reports [2][]byte
			var dumps [2][]byte
			for i := 0; i < 2; i++ {
				rec := obs.NewRecorder(1 << 16)
				r := runScenario(t, d, sol, tr, tc.name, "bus", tc.standby, rec)
				enc, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				reports[i] = enc
				var buf bytes.Buffer
				if err := rec.DumpJSON(&buf); err != nil {
					t.Fatal(err)
				}
				dumps[i] = buf.Bytes()
			}
			if !bytes.Equal(reports[0], reports[1]) {
				t.Errorf("same-seed reports differ:\n%s\n%s", reports[0], reports[1])
			}
			if !bytes.Equal(dumps[0], dumps[1]) {
				t.Error("same-seed flight dumps differ")
			}
		})
	}
}

// TestTCPLoopback is the TCP smoke: a fault-free trace commits fully
// over real sockets, and a coordinator crash fails over to the standby.
func TestTCPLoopback(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 120, 2)
	sol := scatterSolution(2)

	t.Run("none", func(t *testing.T) {
		r := runScenario(t, d, sol, tr, "none", "tcp", false, nil)
		if !r.OracleOK {
			t.Fatalf("oracle failed: %s", r)
		}
		if r.Committed != r.Offered {
			t.Fatalf("fault-free TCP run committed %d/%d", r.Committed, r.Offered)
		}
	})
	t.Run("coord-crash-failover", func(t *testing.T) {
		r := runScenario(t, d, sol, tr, "coord-crash", "tcp", true, nil)
		if !r.OracleOK {
			t.Fatalf("oracle failed: %s", r)
		}
		if r.Failovers != 1 || r.ResolvedCommits < 1 {
			t.Fatalf("failovers=%d resolved commits=%d: %s", r.Failovers, r.ResolvedCommits, r)
		}
	})
}

// TestTCPTimeoutAbort pins the driver's vote timeout over real sockets:
// a commit round against a live participant succeeds; a round against a
// dead one exhausts its capped-exponential retransmissions and aborts.
func TestTCPTimeoutAbort(t *testing.T) {
	pEp, err := transport.ListenTCP(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dEp, err := transport.ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dEp.Close()
	peers := map[int]string{0: pEp.Addr(), 1: dEp.Addr()}
	pEp.SetPeers(peers)
	dEp.SetPeers(peers)

	p, err := NewParticipant(0, fixture.CustInfoSchema(), t.TempDir(), pEp, ParticipantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := p.Serve(ctx); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	drv := newDriver(1, dEp)
	drv.wire = faults.RetryPolicy{MaxAttempts: 2, BaseBackoffSec: 0.03, MaxBackoffSec: 0.06}
	alive := func(int) bool { return false }
	w := touchWrites(0)
	if out := drv.round2PC(context.Background(), 1, 0, w, alive); !out.committed {
		t.Fatalf("commit round over TCP failed: %+v", out)
	}

	// Kill the participant; the next round must time out and abort.
	cancel()
	wg.Wait()
	pEp.Close()
	start := time.Now()
	out := drv.round2PC(context.Background(), 2, 0, w, alive)
	if out.committed {
		t.Fatal("round against a dead participant committed")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout-abort took %v, want bounded by the retry cap", elapsed)
	}
}

// TestPresumedAbortTermination is the termination-protocol regression:
// a participant that never hears a decision must, within its timeout
// budget, query the PREPARE-embedded coordinator and — on an explicit
// "no decision logged" answer — resolve the transaction by presumed
// abort and accept new work.
func TestPresumedAbortTermination(t *testing.T) {
	bus := transport.NewBus()
	pEp, err := bus.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	coordEp, err := bus.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParticipant(0, fixture.CustInfoSchema(), t.TempDir(), pEp, ParticipantConfig{
		DecisionTimeout: 50 * time.Millisecond,
		QueryRetry:      faults.RetryPolicy{MaxAttempts: 8, BaseBackoffSec: 0.05, MaxBackoffSec: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	aborts := cPresumedAborts.Value()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := p.Serve(ctx); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	send := func(typ uint8, txn uint64, payload []byte) {
		t.Helper()
		if err := coordEp.Send(ctx, transport.Msg{Type: typ, From: 1, To: 0, Txn: txn, Attempt: 1, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(wait time.Duration) (transport.Msg, bool) {
		rctx, rcancel := context.WithTimeout(ctx, wait)
		defer rcancel()
		m, err := coordEp.Recv(rctx)
		return m, err == nil
	}

	start := time.Now()
	send(MsgPrepare, 7, encodePrepare(1, nil))
	m, ok := recv(time.Second)
	if !ok || m.Type != MsgVoteYes {
		t.Fatalf("prepare: got %+v ok=%v, want VoteYes", m, ok)
	}
	// Never send the decision. The participant must come asking.
	m, ok = recv(2 * time.Second)
	if !ok || m.Type != MsgStatusQuery || m.Txn != 7 {
		t.Fatalf("expected a status query, got %+v ok=%v", m, ok)
	}
	send(MsgStatusUnknown, 7, nil)

	// Presumed abort must unblock the participant: a fresh prepare gets a
	// yes vote once txn 7 is resolved.
	deadline := time.Now().Add(2 * time.Second)
	resolved := false
	for txn := uint64(8); time.Now().Before(deadline); txn++ {
		send(MsgPrepare, txn, encodePrepare(1, nil))
		m, ok = recv(time.Second)
		if !ok {
			t.Fatal("no vote for probe prepare")
		}
		if m.Type == MsgVoteYes {
			resolved = true
			// Clean up the probe so shutdown state is simple.
			send(MsgDecideAbort, txn, nil)
			recv(time.Second)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !resolved {
		t.Fatal("participant never resolved the in-doubt transaction by presumed abort")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("termination protocol took %v, want within the timeout budget", elapsed)
	}

	cancel()
	wg.Wait()
	if n := cPresumedAborts.Value() - aborts; n != 1 {
		t.Fatalf("presumed aborts = %d, want 1", n)
	}
}

// TestPayloadCodecs pins the twopc payload wire formats.
func TestPayloadCodecs(t *testing.T) {
	k1 := value.MakeKey(value.NewInt(42))
	ops := []db.Op{
		{Kind: db.OpTouch, Table: "TRADE", Key: k1},
		{Kind: db.OpTouch, Table: "CUSTOMER_ACCOUNT", Key: value.MakeKey(value.NewInt(7))},
	}
	bodies := [][]byte{ops[0].Encode(nil), ops[1].Encode(nil)}
	coord, got, err := decodePrepare(encodePrepare(3, bodies))
	if err != nil || coord != 3 || len(got) != 2 {
		t.Fatalf("prepare round trip: coord=%d bodies=%q err=%v", coord, got, err)
	}
	if op, err := db.New(fixture.CustInfoSchema()).DecodeOp(got[0]); err != nil || op.Key != k1 {
		t.Fatalf("prepare body 0 = %v, %v; want a touch of %x", op, err, k1)
	}
	if op, err := db.New(fixture.CustInfoSchema()).DecodeOp(got[1]); err != nil || op.Table != "CUSTOMER_ACCOUNT" {
		t.Fatalf("prepare body 1 = %v, %v; want CUSTOMER_ACCOUNT", op, err)
	}
	local, err := decodeCommitLocal(nil, encodeCommitLocal(bodies))
	if err != nil || len(local) != 2 || !bytes.Equal(local[1], bodies[1]) {
		t.Fatalf("commit-local round trip: %q err=%v", local, err)
	}
	if _, _, err := decodePrepare(append(encodePrepare(3, bodies), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, _, err := decodePrepare([]byte{}); err == nil {
		t.Fatal("empty prepare accepted")
	}
	if _, err := decodeCommitLocal(nil, []byte{0xFF}); err == nil {
		t.Fatal("truncated op count accepted")
	}
	// A body that is not an op encoding is refused at the frame, before
	// anything is logged.
	if _, err := decodeCommitLocal(nil, encodeCommitLocal([][]byte{{byte(db.OpTouch), 9}})); err == nil {
		t.Fatal("malformed body accepted")
	}
	pairs := []inDoubtPair{{Txn: 9, Coord: 1}, {Txn: 12, Coord: 0}}
	back, err := decodeScanResp(encodeScanResp(pairs))
	if err != nil || len(back) != 2 || back[0] != pairs[0] || back[1] != pairs[1] {
		t.Fatalf("scan round trip: %v err=%v", back, err)
	}
	if _, err := decodeScanResp([]byte{2, 1}); err == nil {
		t.Fatal("short scan payload accepted")
	}
}

// TestStandbyChattyParticipantCannotSuppressFailover pins the lease
// semantics: only a HEARTBEAT from the configured leader renews the
// lease. A participant flooding stray frames — votes, even heartbeats
// from the wrong node — at many times the lease rate must not postpone
// the takeover once the real leader goes silent. (The pre-fix loop
// restarted the lease clock on every received frame, so this test hung
// past the 10-lease deadline.)
func TestStandbyChattyParticipantCannotSuppressFailover(t *testing.T) {
	bus := transport.NewBus()
	sbEp, err := bus.Endpoint(10)
	if err != nil {
		t.Fatal(err)
	}
	chat, err := bus.Endpoint(3)
	if err != nil {
		t.Fatal(err)
	}
	const lease = 120 * time.Millisecond
	sb := NewStandby(10, sbEp, t.TempDir(), nil, lease)
	sb.SetLeader(9)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { sb.Run(ctx); close(done) }()

	floodCtx, stopFlood := context.WithCancel(ctx)
	defer stopFlood()
	go func() {
		tick := time.NewTicker(lease / 10)
		defer tick.Stop()
		for {
			select {
			case <-floodCtx.Done():
				return
			case <-tick.C:
				_ = chat.Send(floodCtx, transport.Msg{Type: MsgVoteYes, From: 3, To: 10, Txn: 1})
				_ = chat.Send(floodCtx, transport.Msg{Type: MsgHeartbeat, From: 3, To: 10})
			}
		}
	}()

	select {
	case <-sb.Done():
		// Failover fired despite the chatter.
	case <-time.After(10 * lease):
		t.Fatal("chatty participant suppressed failover past 10 leases")
	}
	cancel()
	<-done
}
