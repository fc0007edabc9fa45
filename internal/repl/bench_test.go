package repl

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/faults"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/workloads"
	"repro/internal/workloads/tpcc"
)

// tpccWindow loads a small TPC-C (4 warehouses, 1,200 txns), partitions
// the training half at K=8 and returns the first 600 test transactions
// as the commit window.
func tpccWindow(b testing.TB) (*db.DB, *partition.Solution, *trace.Trace) {
	b.Helper()
	bm := tpcc.New()
	d, err := bm.Load(workloads.Config{Scale: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	full := workloads.GenerateTrace(bm, d, 1200, 2)
	train, test := full.TrainTest(0.5, rand.New(rand.NewSource(3)))
	sol, _, err := core.Partition(context.Background(), core.Input{
		DB: d, Procedures: workloads.Procedures(bm), Train: train, Test: test,
	}, core.Options{K: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return d, sol, test.Head(600)
}

// quorumWindow replays the window through the replica-group engine —
// two backups per group, quorum commit rule, the in-process bus, no
// faults — including the end-of-run recovery and oracle, and returns
// the commit count.
func quorumWindow(tb testing.TB, d *db.DB, sol *partition.Solution, window *trace.Trace, sc *faults.Scenario, dir string) int {
	res, err := Run(context.Background(), d, sol, window, Config{
		Scenario: sc, Seed: 1, WALDir: dir, Replicas: 2, CommitRule: RuleQuorum,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if !res.OracleOK || res.Committed != res.Offered {
		tb.Fatalf("window did not commit cleanly: %s", res)
	}
	return res.Committed
}

// BenchmarkReplQuorumWindow replays a TPC-C commit window through the
// quorum engine (quorumWindow). Set-up (load, trace, partitioning) is
// outside the timed loop. Beside B/op it reports B/commit, the bytes
// allocated per committed transaction, which compares across window
// sizes.
func BenchmarkReplQuorumWindow(b *testing.B) {
	d, sol, window := tpccWindow(b)
	sc, err := faults.Builtin("none", sol.K)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	commits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commits += quorumWindow(b, d, sol, window, sc, dir)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(commits), "B/commit")
}

// TestQuorumBytesPerCommit pins what the quorum engine allocates per
// committed transaction: the TotalAlloc delta of one quorumWindow run on
// the BenchmarkReplQuorumWindow fixture, after a warm-up run, over its
// commits. The engine used to allocate about 18.0 KB per commit here
// (10.82 MB for 600 commits, 2 vCPUs): the chain history grew by
// copying, every ship built its payload twice and framed it twice more,
// each backup decoded into a fresh batch, every bus inbox held decoded
// messages, and the journal and recovery grew their slices by doubling.
// It allocated about 9.5 KB until the oracle stopped reading every
// member log whole, and allocates about 8.8 KB now; the budget is 1.25
// times that.
func TestQuorumBytesPerCommit(t *testing.T) {
	const budget = 1.25 * 8.8 * 1024
	d, sol, window := tpccWindow(t)
	sc, err := faults.Builtin("none", sol.K)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	quorumWindow(t, d, sol, window, sc, dir)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	commits := quorumWindow(t, d, sol, window, sc, dir)
	runtime.ReadMemStats(&after)
	perCommit := float64(after.TotalAlloc-before.TotalAlloc) / float64(commits)
	t.Logf("%.0f B/commit over %d commits (budget %.0f)", perCommit, commits, budget)
	if perCommit > budget {
		t.Errorf("quorum replay allocates %.0f B/commit, budget is %.0f", perCommit, budget)
	}
}

// newOrderRecords returns the chain records of one TPC-C NewOrder as a
// single-group commit logs them: BEGIN, the DISTRICT update, the ORDERS
// and NEW_ORDER inserts, a STOCK update and an ORDER_LINE insert for
// each of three order lines (the generator's mean), and COMMIT.
func newOrderRecords(txn uint64, oid int64) []wal.Record {
	iv := value.NewInt
	ops := []db.Op{
		{Kind: db.OpUpdate, Table: "DISTRICT", Key: value.MakeKey(iv(1), iv(2)),
			Cols: []string{"D_NEXT_O_ID"}, Vals: []value.Value{iv(oid + 1)}},
		{Kind: db.OpInsert, Table: "ORDERS", Row: value.Tuple{iv(1), iv(2), iv(oid), iv(7), iv(0), iv(3)}},
		{Kind: db.OpInsert, Table: "NEW_ORDER", Row: value.Tuple{iv(1), iv(2), iv(oid)}},
	}
	for l := int64(0); l < 3; l++ {
		ops = append(ops,
			db.Op{Kind: db.OpUpdate, Table: "STOCK", Key: value.MakeKey(iv(1), iv(40+l)),
				Cols: []string{"S_QUANTITY"}, Vals: []value.Value{iv(50 - l)}},
			db.Op{Kind: db.OpInsert, Table: "ORDER_LINE",
				Row: value.Tuple{iv(1), iv(2), iv(oid), iv(l), iv(40 + l), iv(1), iv(l + 1)}})
	}
	recs := []wal.Record{{Type: wal.RecBegin, Txn: txn}}
	for _, op := range ops {
		recs = append(recs, wal.Record{Type: wal.RecWrite, Txn: txn, Payload: op.Encode(nil)})
	}
	return append(recs, wal.Record{Type: wal.RecCommit, Txn: txn})
}

// BenchmarkShipAck times one ship/ack round trip of the replication
// path on one goroutine: a NewOrder-sized batch goes encodeAppend → bus
// → the backup's handleAppend → its ack → the driver's handleAck. Every
// 1,024 round trips, with the timer stopped, the backup restarts from a
// snapshot holding the DISTRICT and STOCK rows the batches update, so
// its log and history stay small and every batch commits.
func BenchmarkShipAck(b *testing.B) {
	const block = 1024
	sc := tpcc.Schema()
	seed := db.New(sc)
	seed.Table("DISTRICT").MustInsert(value.NewInt(1), value.NewInt(2), value.NewString("d"), value.NewFloat(0), value.NewInt(1))
	for l := int64(0); l < 3; l++ {
		seed.Table("STOCK").MustInsert(value.NewInt(1), value.NewInt(40+l), value.NewInt(90))
	}
	snap := encodeSnapshot(0, 0, seed.EncodeSnapshot())
	batches := make([][]wal.Record, block)
	for i := range batches {
		batches[i] = newOrderRecords(uint64(i+1), int64(i+1))
	}

	bus := transport.NewBus()
	bEp, err := bus.Endpoint(1)
	if err != nil {
		b.Fatal(err)
	}
	dEp, err := bus.Endpoint(2)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	bk, err := newBackup(0, 1, 1, sc, dir, bEp)
	if err != nil {
		b.Fatal(err)
	}
	defer bk.log.Close()
	pr := &primary{acked: map[int]int64{1: 0}}
	h := &harness{k: 1, cfg: Config{Replicas: 1}, eps: []transport.Transport{nil, bEp, dEp},
		driverID: 2, groups: []*group{{pr: pr}}, res: &Result{}}
	ctx := context.Background()
	restart := func() {
		if err := bk.reset(MemberLogPath(dir, 0, 1)); err != nil {
			b.Fatal(err)
		}
		if err := bk.handleSnapshot(ctx, transport.Msg{Type: MsgSnapshotOffer, From: 2, To: 1, Payload: snap}); err != nil {
			b.Fatal(err)
		}
		if _, err := dEp.Recv(ctx); err != nil {
			b.Fatal(err)
		}
		pr.acked[1] = 0
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%block == 0 {
			b.StopTimer()
			restart()
			b.StartTimer()
		}
		recs := batches[i%block]
		base := pr.acked[1]
		h.ship = encodeAppendTo(h.ship[:0], 0, base, recs)
		h.send(ctx, 1, MsgAppend, 0, h.ship)
		m, err := bEp.Recv(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bk.handleAppend(ctx, m); err != nil {
			b.Fatal(err)
		}
		ack, err := dEp.Recv(ctx)
		if err != nil {
			b.Fatal(err)
		}
		h.handleAck(ack)
		if pr.acked[1] != base+int64(len(recs)) {
			b.Fatalf("round trip %d acked %d, want %d", i, pr.acked[1], base+int64(len(recs)))
		}
	}
}

// reset discards the backup's chain, as a restart from an empty disk
// would: its log file, at path, is recreated and the store empties until
// a snapshot offer arrives.
func (b *backup) reset(path string) error {
	b.log.Close()
	log, err := wal.Create(path)
	if err != nil {
		return err
	}
	b.chain = newChain(b.sc, log)
	return nil
}
