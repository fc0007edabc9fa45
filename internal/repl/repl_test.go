package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/faults"
	"repro/internal/fixture"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/wal"
)

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
// ids so the replay mixes single-group rounds with cross-group 2PC.
func scatterSolution(k int) *partition.Solution {
	sol := partition.NewSolution("scatter", k)
	sol.Set(partition.NewByPath("TRADE", singleCol("TRADE", "T_ID"), partition.NewHash(k)))
	sol.Set(partition.NewByPath("CUSTOMER_ACCOUNT", singleCol("CUSTOMER_ACCOUNT", "CA_ID"), partition.NewHash(k)))
	sol.Set(partition.NewReplicated("HOLDING_SUMMARY"))
	return sol
}

func runScenario(t *testing.T, d *db.DB, sol *partition.Solution, tr *trace.Trace, name, transportName, rule string, rec *obs.Recorder) *Result {
	t.Helper()
	sc, err := faults.Builtin(name, sol.K)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(obs.WithRecorder(context.Background(), rec), d, sol, tr, Config{
		Scenario:   sc,
		Seed:       1,
		WALDir:     t.TempDir(),
		Transport:  transportName,
		CommitRule: rule,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunConfigErrors: Run rejects a nil fault scenario, an empty log
// directory and an unknown commit rule.
func TestRunConfigErrors(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 50, 2)
	sol := scatterSolution(2)
	sc, err := faults.Builtin("none", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"without scenario", Config{Seed: 1, WALDir: t.TempDir()}},
		{"without WAL dir", Config{Scenario: sc, Seed: 1}},
		{"unknown commit rule", Config{Scenario: sc, Seed: 1, WALDir: t.TempDir(), CommitRule: "majority"}},
	} {
		if _, err := Run(context.Background(), d, sol, tr, c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func checkConverged(t *testing.T, r *Result) {
	t.Helper()
	if !r.OracleOK {
		t.Fatalf("consistency oracle failed: %s", r)
	}
	if r.ConvergedMembers != r.TotalMembers {
		t.Fatalf("members converged %d/%d: %s", r.ConvergedMembers, r.TotalMembers, r)
	}
	if r.Committed+r.PermanentFailures != r.Offered {
		t.Fatalf("offered=%d committed=%d permanent=%d", r.Offered, r.Committed, r.PermanentFailures)
	}
	if r.Committed == 0 {
		t.Fatal("no transaction committed")
	}
}

// TestReplScenariosOverBus is the acceptance gate: the replication chaos
// suite runs over the in-proc bus — real backup-server goroutines, framed
// WAL shipping, hash-sampled loss, lease-lapse promotions — and every
// scenario must end with every member of every group byte-identical to a
// fault-free re-execution of exactly the surviving committed set.
func TestReplScenariosOverBus(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 2)
	sol := scatterSolution(2)
	for _, name := range []string{
		"none", "single-crash", "rolling", "flaky-network", "half-down",
		"part-crash", "prep-crash", "coord-crash",
		"primary-crash-mid-ship", "backup-crash-mid-catchup",
	} {
		t.Run(name, func(t *testing.T) {
			r := runScenario(t, d, sol, tr, name, "bus", RuleAsync, nil)
			checkConverged(t, r)
			switch name {
			case "none":
				if r.Committed != r.Offered {
					t.Errorf("fault-free run committed %d/%d", r.Committed, r.Offered)
				}
				if r.Promotions != 0 || r.LostCommits != 0 {
					t.Errorf("fault-free run promoted %d / lost %d", r.Promotions, r.LostCommits)
				}
				if r.RecordsShipped == 0 {
					t.Error("no records shipped")
				}
			case "single-crash":
				// The window kills group 0's primary; the group stays
				// available through the promotion, so no transaction fails.
				if r.Promotions < 1 {
					t.Errorf("promotions = %d, want >= 1: %s", r.Promotions, r)
				}
				if r.Committed != r.Offered {
					t.Errorf("replica group did not mask the crash: %d/%d", r.Committed, r.Offered)
				}
			case "rolling":
				if r.Promotions < 2 {
					t.Errorf("rolling windows: promotions = %d, want >= 2", r.Promotions)
				}
			case "half-down":
				// The permanent window's dead member rejoins only in the
				// end-of-run anti-entropy epilogue.
				if r.Promotions < 1 {
					t.Errorf("promotions = %d, want >= 1", r.Promotions)
				}
				if r.CatchupRecords == 0 && r.SnapshotRejoins == 0 {
					t.Error("dead member rejoined without anti-entropy")
				}
			case "part-crash", "prep-crash":
				// A participant (resp. coordinator) primary dies before the
				// decision: the round aborts and retries on the promoted
				// backup — nothing acknowledged is lost.
				if r.Promotions < 1 {
					t.Errorf("promotions = %d, want >= 1", r.Promotions)
				}
				if r.Aborts < 1 {
					t.Errorf("aborts = %d, want >= 1", r.Aborts)
				}
				if r.LostCommits != 0 {
					t.Errorf("pre-decision crash lost %d commits", r.LostCommits)
				}
			case "coord-crash":
				// The decision was durable only on the dead primary: under
				// async the client was already acknowledged — a lost commit.
				if r.LostCommits < 1 {
					t.Errorf("async after-decision crash: lost commits = %d, want >= 1: %s", r.LostCommits, r)
				}
			case "primary-crash-mid-ship":
				if r.Promotions < 1 {
					t.Errorf("promotions = %d, want >= 1", r.Promotions)
				}
				if r.LostCommits < 1 {
					t.Errorf("async mid-ship crash: lost commits = %d, want >= 1: %s", r.LostCommits, r)
				}
			case "backup-crash-mid-catchup":
				// A backup dies mid-batch: no promotion (the primary lives),
				// and the rejoin runs anti-entropy — a snapshot install here,
				// because the member fell past the snapshot threshold.
				if r.Promotions != 0 {
					t.Errorf("backup crash promoted %d times", r.Promotions)
				}
				if r.CatchupRecords == 0 && r.SnapshotRejoins == 0 {
					t.Error("dead backup rejoined without anti-entropy")
				}
			}
		})
	}
}

// TestMidCatchupTailRejoin forces the log-tail rejoin path: with the
// snapshot threshold pushed out of reach, the mid-batch-crashed backup
// must resume shipping from its half-applied durable watermark — no
// snapshot, no double-apply, and the member still converges.
func TestMidCatchupTailRejoin(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 2)
	sol := scatterSolution(2)
	sc, err := faults.Builtin("backup-crash-mid-catchup", sol.K)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), d, sol, tr, Config{
		Scenario:    sc,
		Seed:        1,
		WALDir:      t.TempDir(),
		CommitRule:  RuleAsync,
		SnapshotLag: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConverged(t, r)
	if r.SnapshotRejoins != 0 {
		t.Fatalf("snapshot rejoins = %d, want 0 (tail path forced)", r.SnapshotRejoins)
	}
	if r.CatchupRecords == 0 {
		t.Fatal("tail rejoin shipped no catch-up records")
	}
}

// TestQuorumLosesNothing pins the quorum rule's promise: under every
// single-crash scenario — including the ones that force async to lose
// acknowledged commits — quorum-ack ends with zero lost commits, because
// the commit point waits for a majority that must intersect the
// promotion winner.
func TestQuorumLosesNothing(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 2)
	sol := scatterSolution(2)
	for _, name := range []string{
		"single-crash", "coord-crash", "primary-crash-mid-ship", "backup-crash-mid-catchup",
	} {
		t.Run(name, func(t *testing.T) {
			r := runScenario(t, d, sol, tr, name, "bus", RuleQuorum, nil)
			checkConverged(t, r)
			if r.LostCommits != 0 {
				t.Fatalf("quorum rule lost %d commits: %s", r.LostCommits, r)
			}
		})
	}

	// The async counterparts DO lose acknowledged commits on the same
	// trace and seed — the contrast the experiment table reports.
	for _, name := range []string{"coord-crash", "primary-crash-mid-ship"} {
		t.Run("async-loses/"+name, func(t *testing.T) {
			r := runScenario(t, d, sol, tr, name, "bus", RuleAsync, nil)
			if r.LostCommits < 1 {
				t.Fatalf("async rule lost nothing under %s: %s", name, r)
			}
		})
	}
}

// TestSameSeedByteIdentical pins the determinism contract over real
// concurrency: two runs with the same seed — including one with a
// promotion — must produce byte-identical JSON reports and byte-identical
// flight-recorder dumps.
func TestSameSeedByteIdentical(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 2)
	sol := scatterSolution(2)
	for _, tc := range []struct {
		name string
		rule string
	}{
		{"single-crash", RuleAsync},
		{"flaky-network", RuleQuorum},
	} {
		t.Run(tc.name+"/"+tc.rule, func(t *testing.T) {
			var reports [2][]byte
			var dumps [2][]byte
			for i := 0; i < 2; i++ {
				rec := obs.NewRecorder(1 << 16)
				r := runScenario(t, d, sol, tr, tc.name, "bus", tc.rule, rec)
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

// TestTCPLoopback is the TCP smoke: a fault-free replicated trace commits
// fully over real sockets, and a primary crash promotes under quorum with
// nothing lost.
func TestTCPLoopback(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 120, 2)
	sol := scatterSolution(2)

	t.Run("none", func(t *testing.T) {
		r := runScenario(t, d, sol, tr, "none", "tcp", RuleAsync, nil)
		checkConverged(t, r)
		if r.Committed != r.Offered {
			t.Fatalf("fault-free TCP run committed %d/%d", r.Committed, r.Offered)
		}
	})
	t.Run("single-crash-quorum", func(t *testing.T) {
		r := runScenario(t, d, sol, tr, "single-crash", "tcp", RuleQuorum, nil)
		checkConverged(t, r)
		if r.Promotions < 1 {
			t.Fatalf("promotions = %d, want >= 1: %s", r.Promotions, r)
		}
		if r.LostCommits != 0 {
			t.Fatalf("quorum over TCP lost %d commits", r.LostCommits)
		}
	})
}

// chainRecords builds n committed single-op transactions (3 records each).
func chainRecords(n int) []wal.Record {
	var recs []wal.Record
	for i := 0; i < n; i++ {
		txn := uint64(i + 1)
		op := db.Op{Kind: db.OpTouch, Table: "TRADE", Key: value.MakeKey(value.NewInt(int64(i)))}
		recs = append(recs,
			wal.Record{Type: wal.RecBegin, Txn: txn},
			wal.Record{Type: wal.RecWrite, Txn: txn, Payload: op.Encode(nil)},
			wal.Record{Type: wal.RecCommit, Txn: txn},
		)
	}
	return recs
}

// encodeAppendTo appends the MsgAppend payload that ships recs from
// chain sequence base to dst.
func encodeAppendTo(dst []byte, epoch int, base int64, recs []wal.Record) []byte {
	dst = appendAppendHead(dst, epoch, base, len(recs))
	for i := range recs {
		dst = appendRecord(dst, &recs[i])
	}
	return dst
}

// encodeAppend returns a MsgAppend payload in a fresh buffer.
func encodeAppend(epoch int, base int64, recs []wal.Record) []byte {
	return encodeAppendTo(nil, epoch, base, recs)
}

// decodeAppend splits a MsgAppend payload into a fresh record slice.
func decodeAppend(data []byte) (epoch int, base int64, recs []wal.Record, err error) {
	return decodeAppendInto(nil, data)
}

// busPair wires a backup server (member 1 of group 0, logging in dir) and
// a raw driver endpoint on one bus.
func busPair(t *testing.T, dir string) (*backup, transport.Transport, func()) {
	t.Helper()
	bus := transport.NewBus()
	bEp, err := bus.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	dEp, err := bus.Endpoint(9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBackup(0, 1, 2, fixture.CustInfoSchema(), dir, bEp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.serve(ctx)
	}()
	return b, dEp, func() {
		cancel()
		wg.Wait()
	}
}

func sendRecv(t *testing.T, ep transport.Transport, to int, typ uint8, payload []byte) transport.Msg {
	t.Helper()
	if err := ep.Send(context.Background(), transport.Msg{Type: typ, From: 9, To: to, Attempt: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	m, err := ep.Recv(ctx)
	if err != nil {
		t.Fatalf("no reply: %v", err)
	}
	return m
}

// TestBackupApplyAckGap pins the append protocol: in-order batches ack
// the advanced watermark, a batch from the future nacks with the current
// watermark (anti-entropy is built into the ship path), and overlapping
// batches skip already-applied records instead of double-applying them.
func TestBackupApplyAckGap(t *testing.T) {
	b, dEp, stop := busPair(t, t.TempDir())
	defer stop()
	recs := chainRecords(2) // 6 records

	ackSeq := func(m transport.Msg) int64 {
		t.Helper()
		if m.Type != MsgAppendAck {
			t.Fatalf("got type %d, want append ack", m.Type)
		}
		_, seq, err := decodeSeq(m.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}

	if got := ackSeq(sendRecv(t, dEp, 1, MsgAppend, encodeAppend(0, 0, recs[:3]))); got != 3 {
		t.Fatalf("in-order batch acked %d, want 3", got)
	}
	// A gap: base 5 is beyond the watermark — the backup must answer with
	// what it has, not apply out of order.
	if got := ackSeq(sendRecv(t, dEp, 1, MsgAppend, encodeAppend(0, 5, recs[5:]))); got != 3 {
		t.Fatalf("gapped batch acked %d, want nack at 3", got)
	}
	// Overlap: base 1 resends records 1..5; 1 and 2 are duplicates.
	if got := ackSeq(sendRecv(t, dEp, 1, MsgAppend, encodeAppend(0, 1, recs[1:]))); got != 6 {
		t.Fatalf("overlapping batch acked %d, want 6", got)
	}
	if got := ackSeq(sendRecv(t, dEp, 1, MsgAppend, encodeAppend(0, 6, nil))); got != 6 {
		t.Fatalf("empty batch acked %d, want 6", got)
	}
	stop()
	// The backup acks once records are logged; its store applies them
	// when read, so materialize it before counting commits.
	st, err := b.store()
	if err != nil {
		t.Fatal(err)
	}
	want := wal.Replay(fixture.CustInfoSchema(), recs, 0, nil)
	if b.seq != 6 || len(want.Committed) != 2 || !reflect.DeepEqual(st.TableDigests(), want.DB.TableDigests()) {
		t.Fatalf("backup logged=%d, store digests %v; want 6 records and the digests of replaying them (%v)",
			b.seq, st.TableDigests(), want.DB.TableDigests())
	}
}

// TestSnapshotInstall pins the snapshot rejoin path: the offer resets the
// chain at its base (a CHECKPOINT record in the log, so recovery needs no
// new cases), stale offers are refused, and the tail appends from there.
func TestSnapshotInstall(t *testing.T) {
	dir := t.TempDir()
	b, dEp, stop := busPair(t, dir)
	defer stop()
	d := fixture.CustInfoDB()

	m := sendRecv(t, dEp, 1, MsgSnapshotOffer, encodeSnapshot(1, 10, d.EncodeSnapshot()))
	if m.Type != MsgAppendAck {
		t.Fatalf("snapshot offer answered with type %d", m.Type)
	}
	if _, seq, _ := decodeSeq(m.Payload); seq != 10 {
		t.Fatalf("snapshot acked %d, want base 10", seq)
	}
	// A stale offer (behind the watermark) must not rewind the chain.
	m = sendRecv(t, dEp, 1, MsgWatermarkQuery, nil)
	if err := dEp.Send(context.Background(), transport.Msg{Type: MsgSnapshotOffer, From: 9, To: 1, Attempt: 1,
		Payload: encodeSnapshot(1, 4, d.EncodeSnapshot())}); err != nil {
		t.Fatal(err)
	}
	m = sendRecv(t, dEp, 1, MsgWatermarkQuery, nil)
	if m.Type != MsgWatermarkResp {
		t.Fatalf("watermark query answered with type %d", m.Type)
	}
	if _, seq, _ := decodeSeq(m.Payload); seq != 10 {
		t.Fatalf("stale snapshot moved the watermark to %d", seq)
	}
	// The tail ships from the snapshot base.
	m = sendRecv(t, dEp, 1, MsgAppend, encodeAppend(1, 10, chainRecords(1)))
	if _, seq, _ := decodeSeq(m.Payload); seq != 13 {
		t.Fatalf("post-snapshot batch acked %d, want 13", seq)
	}
	stop()
	if b.base != 10 || b.seq != 13 {
		t.Fatalf("backup base=%d logged=%d, want 10/13", b.base, b.seq)
	}
	// The log must recover to the snapshot + tail on its own.
	rc, err := wal.RecoverFile(fixture.CustInfoSchema(), MemberLogPath(dir, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !rc.CheckpointSeen {
		t.Fatal("snapshot install did not leave a checkpoint record")
	}
}

// TestDetectorPromotion pins the failure-detector protocol end to end: a
// heartbeat-starved lease lapses, the detector watermark-queries the
// candidates, promotes the most-caught-up live one, and the promoted
// backup's serve loop exits with its state intact for adoption.
func TestDetectorPromotion(t *testing.T) {
	bus := transport.NewBus()
	eps := make(map[int]transport.Transport)
	for _, id := range []int{1, 2, 7, 9} {
		ep, err := bus.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		eps[id] = ep
	}
	dir := t.TempDir()
	sc := fixture.CustInfoSchema()
	b1, err := newBackup(0, 1, 2, sc, dir, eps[1])
	if err != nil {
		t.Fatal(err)
	}
	b2, err := newBackup(0, 2, 2, sc, dir, eps[2])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, b := range []*backup{b1, b2} {
		wg.Add(1)
		go func(b *backup) {
			defer wg.Done()
			b.serve(ctx)
		}(b)
	}
	// Member 2 is the most caught up: 2 transactions vs member 1's one.
	if m := sendRecv(t, eps[9], 1, MsgAppend, encodeAppend(0, 0, chainRecords(1))); m.Type != MsgAppendAck {
		t.Fatalf("seed append to member 1: %+v", m)
	}
	if m := sendRecv(t, eps[9], 2, MsgAppend, encodeAppend(0, 0, chainRecords(2))); m.Type != MsgAppendAck {
		t.Fatalf("seed append to member 2: %+v", m)
	}

	wire := faults.RetryPolicy{MaxAttempts: 2, BaseBackoffSec: 0.01, MaxBackoffSec: 0.02}
	dt := newDetector(7, eps[7], 9, []int{1, 2}, 0, 80*time.Millisecond, wire, 10*time.Millisecond)
	wg.Add(1)
	go func() {
		defer wg.Done()
		dt.run(ctx)
	}()
	// One heartbeat renews; then silence lapses the lease.
	_ = eps[9].Send(ctx, transport.Msg{Type: MsgReplHeartbeat, From: 9, To: 7})

	select {
	case prom := <-dt.done():
		if prom.Member != 2 || prom.Watermark != 6 || prom.Epoch != 1 {
			t.Fatalf("promotion = %+v, want member 2 at watermark 6 epoch 1", prom)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lease never lapsed")
	}
	select {
	case <-b2.done:
		if !b2.promoted || b2.epoch != 1 {
			t.Fatalf("winner promoted=%v epoch=%d, want true/1", b2.promoted, b2.epoch)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("promoted backup never exited serve")
	}
	cancel()
	wg.Wait()
}

// TestPayloadCodecs pins the repl payload wire formats.
func TestPayloadCodecs(t *testing.T) {
	recs := chainRecords(2)
	epoch, base, got, err := decodeAppend(encodeAppend(3, 17, recs))
	if err != nil || epoch != 3 || base != 17 || len(got) != 6 {
		t.Fatalf("append round trip: epoch=%d base=%d n=%d err=%v", epoch, base, len(got), err)
	}
	for i, r := range got {
		if r.Type != recs[i].Type || r.Txn != recs[i].Txn || !bytes.Equal(r.Payload, recs[i].Payload) {
			t.Fatalf("record %d differs: %+v vs %+v", i, r, recs[i])
		}
	}
	// Decoding into a reused batch appends to it, as a backup does.
	_, _, again, err := decodeAppendInto(got[:0], encodeAppend(3, 17, recs))
	if err != nil || !reflect.DeepEqual(again, got) || &again[0] != &got[0] {
		t.Fatalf("decode into a reused batch: %+v, %v; want %+v in place", again, err, got)
	}
	if _, _, _, err := decodeAppend(append(encodeAppend(3, 17, recs), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	enc := encodeAppend(3, 17, recs)
	if _, _, _, err := decodeAppend(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncated append accepted")
	}
	if _, _, _, err := decodeAppend(nil); err == nil {
		t.Fatal("empty append accepted")
	}

	e, s, err := decodeSeq(encodeSeq(4, 99))
	if err != nil || e != 4 || s != 99 {
		t.Fatalf("seq round trip: epoch=%d seq=%d err=%v", e, s, err)
	}
	if _, _, err := decodeSeq(append(encodeSeq(4, 99), 7)); err == nil {
		t.Fatal("trailing seq bytes accepted")
	}
	if _, _, err := decodeSeq(nil); err == nil {
		t.Fatal("empty seq accepted")
	}

	snap := []byte{1, 2, 3}
	e, b, body, err := decodeSnapshot(encodeSnapshot(5, 42, snap))
	if err != nil || e != 5 || b != 42 || !bytes.Equal(body, snap) {
		t.Fatalf("snapshot round trip: epoch=%d base=%d body=%v err=%v", e, b, body, err)
	}
}

// TestRouterLagIntegration pins the lag report of a replicated run:
// Lags has one entry per live backup, member id to records behind its
// primary, and every entry is 0 after a fault-free run.
func TestRouterLagIntegration(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 120, 2)
	sol := scatterSolution(2)
	r := runScenario(t, d, sol, tr, "none", "bus", RuleAsync, nil)
	if len(r.Lags) != sol.K*r.Replicas {
		t.Fatalf("lag map has %d entries, want %d", len(r.Lags), sol.K*r.Replicas)
	}
	for id, lag := range r.Lags {
		if lag != 0 {
			t.Errorf("member %d lag = %d after a fault-free run, want 0", id, lag)
		}
	}
}
