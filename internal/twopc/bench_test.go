package twopc

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/faults"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/value"
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

// BenchmarkTwoPCWindow replays a TPC-C commit window through the
// networked 2PC engine — participant servers over the in-process bus, no
// faults — including the end-of-run recovery and oracle. Set-up (load,
// trace, partitioning) is outside the timed loop. Beside B/op it reports
// B/commit, the bytes allocated per committed transaction, which
// compares across window sizes.
func BenchmarkTwoPCWindow(b *testing.B) {
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
		res, err := Run(context.Background(), d, sol, window, Config{Scenario: sc, Seed: 1, WALDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if !res.OracleOK || res.Committed != res.Offered {
			b.Fatalf("window did not commit cleanly: %s", res)
		}
		commits += res.Committed
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(commits), "B/commit")
}

// newOrderWrites routes the writes of one distributed TPC-C NewOrder:
// the DISTRICT update, the ORDERS and NEW_ORDER inserts, and three order
// lines' STOCK and ORDER_LINE writes, all on partition 0 except the
// STOCK row of the one line supplied by a remote warehouse, which
// partition 1 owns.
func newOrderWrites() *cluster.Writes {
	iv := value.NewInt
	acc := func(table string, p int32, vs ...value.Value) (trace.Access, int32) {
		return trace.Access{Table: table, Key: value.MakeKey(vs...), Write: true}, p
	}
	var txn trace.Txn
	var place []int32
	add := func(a trace.Access, p int32) {
		txn.Accesses = append(txn.Accesses, a)
		place = append(place, p)
	}
	add(acc("DISTRICT", 0, iv(1), iv(2)))
	add(acc("ORDERS", 0, iv(1), iv(2), iv(3001)))
	add(acc("NEW_ORDER", 0, iv(1), iv(2), iv(3001)))
	for l := int64(0); l < 3; l++ {
		supply, p := int64(1), int32(0)
		if l == 2 {
			supply, p = 2, 1
		}
		add(acc("STOCK", p, iv(supply), iv(40+l)))
		add(acc("ORDER_LINE", 0, iv(1), iv(2), iv(3001), iv(l)))
	}
	var w cluster.Writes
	cluster.WriteEffects(&w, &txn, place, 2, 0)
	return &w
}

// BenchmarkTwoPCRound times one distributed NewOrder through 2PC over
// the in-process bus: prepare to both participants, their logged votes,
// the commit decision to the coordinator partition and then the other,
// and both acks — participants apply, log and checkpoint (every 64
// commits) as in a replay.
func BenchmarkTwoPCRound(b *testing.B) {
	bus := transport.NewBus()
	sc := tpcc.Schema()
	dir := b.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		ep, err := bus.Endpoint(id)
		if err != nil {
			b.Fatal(err)
		}
		p, err := NewParticipant(id, sc, dir, ep, ParticipantConfig{})
		if err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Serve(ctx); err != nil {
				b.Error(err)
			}
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
	}()
	dEp, err := bus.Endpoint(2)
	if err != nil {
		b.Fatal(err)
	}
	drv := newDriver(2, dEp)
	w := newOrderWrites()
	alive := func(int) bool { return false }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := drv.round2PC(ctx, uint64(i+1), 0, w, alive); !out.committed {
			b.Fatalf("round %d did not commit: %+v", i, out)
		}
	}
}
