package cluster_test

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/fixture"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workloads"
	_ "repro/internal/workloads/all"
)

// refParticipants and refWriteEffects are the routing rules placed one
// access at a time through Assigner.PlaceKey in v, the reference the
// window pass must reproduce.
func refParticipants(v *db.View, a *eval.Assigner, t *trace.Txn, k, txnIndex int) (nodes []int, coord int, distributed bool) {
	var parts partition.Set
	writesReplicated, allPlaced := false, true
	for _, acc := range t.Accesses {
		p, ok := a.PlaceKey(v, acc)
		switch {
		case !ok:
			allPlaced = false
		case p == partition.Replicated:
			writesReplicated = writesReplicated || acc.Write
		default:
			parts.Add(p)
		}
	}
	coord = txnIndex % k
	if m := parts.Min(); m >= 0 {
		coord = m
	}
	switch {
	case writesReplicated || !allPlaced:
		return cluster.PartitionIDs(k), coord, true
	case parts.Empty():
		return nil, coord, false
	case parts.Len() == 1:
		return []int{coord}, coord, false
	default:
		return parts.AppendTo(nil), coord, true
	}
}

func refWriteEffects(v *db.View, a *eval.Assigner, t *trace.Txn, k, coord int) ([]int, map[int][]db.Op) {
	opsAt := map[int][]db.Op{}
	add := func(p int, acc trace.Access) {
		opsAt[p] = append(opsAt[p], db.Op{Kind: db.OpTouch, Table: acc.Table, Key: acc.Key})
	}
	for _, acc := range t.Accesses {
		if !acc.Write {
			continue
		}
		p, ok := a.PlaceKey(v, acc)
		switch {
		case !ok:
			add(coord, acc)
		case p == partition.Replicated:
			for n := 0; n < k; n++ {
				add(n, acc)
			}
		default:
			add(p, acc)
		}
	}
	parts := make([]int, 0, len(opsAt))
	for p := range opsAt {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	return parts, opsAt
}

// opsOf decodes routed write bodies back into ops, per partition.
func opsOf(t *testing.T, w *cluster.Writes) map[int][]db.Op {
	t.Helper()
	opsAt := map[int][]db.Op{}
	d := db.New(fixture.CustInfoSchema())
	for i, p := range w.Parts {
		for _, body := range w.Of(i) {
			op, err := d.DecodeOp(body)
			if err != nil {
				t.Fatalf("partition %d: body %x: %v", p, body, err)
			}
			opsAt[p] = append(opsAt[p], op)
		}
	}
	return opsAt
}

// checkRoutes compares the window pass at each worker count against the
// reference for every transaction of tr and returns how many
// transactions were distributed and how many wrote.
func checkRoutes(t *testing.T, d *db.DB, a *eval.Assigner, tr *trace.Trace, k int, workers ...int) (dist, writes int) {
	t.Helper()
	v := d.View()
	defer v.Close()
	var effects cluster.Writes
	for _, w := range workers {
		placed := a.PlaceTrace(tr, w)
		defer placed.Stop()
		for i, txn := range tr.All() {
			place := placed.Txn(i)
			if len(place) != len(txn.Accesses) {
				t.Fatalf("workers=%d txn %d: %d placements for %d accesses", w, i, len(place), len(txn.Accesses))
			}
			nodes, coord, distributed := cluster.Participants(txn, place, k, i)
			wantNodes, wantCoord, wantDist := refParticipants(v, a, txn, k, i)
			if !reflect.DeepEqual(nodes, wantNodes) || coord != wantCoord || distributed != wantDist {
				t.Fatalf("workers=%d txn %d: Participants = %v, %d, %v; want %v, %d, %v",
					w, i, nodes, coord, distributed, wantNodes, wantCoord, wantDist)
			}
			cluster.WriteEffects(&effects, txn, place, k, coord)
			parts, opsAt := append([]int{}, effects.Parts...), opsOf(t, &effects)
			wantParts, wantOps := refWriteEffects(v, a, txn, k, coord)
			if !reflect.DeepEqual(parts, wantParts) || !reflect.DeepEqual(opsAt, wantOps) {
				t.Fatalf("workers=%d txn %d: WriteEffects = %v %v; want %v %v",
					w, i, parts, opsAt, wantParts, wantOps)
			}
			if w == workers[0] {
				if distributed {
					dist++
				}
				if len(parts) > 0 {
					writes++
				}
			}
		}
	}
	return dist, writes
}

// TestRouteMatchesPlaceKey checks the window routing pass (PlaceTrace,
// then Participants and WriteEffects on each transaction's placements)
// against per-access PlaceKey routing on the test half of every
// benchmark under its K=8 JECB solution, at one worker, at GOMAXPROCS and
// at eight (seven shards of the 1,000-transaction test half), and on the
// hand-built sentinel cases.
func TestRouteMatchesPlaceKey(t *testing.T) {
	const k = 8
	names := workloads.Names()
	if len(names) != 6 {
		t.Fatalf("registry holds %d benchmarks, want 6: %v", len(names), names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			b, _ := workloads.Get(name)
			scale := map[string]int{"tpcc": 2, "tatp": 50}[name]
			if scale == 0 {
				scale = 30
			}
			d, err := b.Load(workloads.Config{Scale: scale, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			full := workloads.GenerateTrace(b, d, 2000, 2)
			train, test := full.TrainTest(0.5, rand.New(rand.NewSource(3)))
			sol, _, err := core.Partition(context.Background(), core.Input{
				DB: d, Procedures: workloads.Procedures(b), Train: train, Test: test,
			}, core.Options{K: k, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			a, err := eval.NewAssigner(d, sol)
			if err != nil {
				t.Fatal(err)
			}
			dist, writes := checkRoutes(t, d, a, test, k, 1, runtime.GOMAXPROCS(0), 8)
			if writes == 0 {
				t.Fatalf("%s: no test transaction writes", name)
			}
			t.Logf("%s: %d txns, %d distributed, %d writing", name, test.Len(), dist, writes)
		})
	}
	t.Run("sentinels", routeSentinelCases)
}

// routeSentinelCases hand-builds the three routing rules a placement
// sentinel triggers: an unplaceable write executes at the coordinator, a
// replicated write goes to all K partitions, and a fully replicated read
// pins no node.
func routeSentinelCases(t *testing.T) {
	const k = 4
	d := fixture.CustInfoDB()
	sol := partition.NewSolution("sentinels", k)
	sol.Set(partition.NewByPath("TRADE", fixture.TradePath(), partition.NewHash(k)))
	sol.Set(partition.NewReplicated("CUSTOMER_ACCOUNT"))
	// HOLDING_SUMMARY is left uncovered: its tuples cannot be placed.
	a, err := eval.NewAssigner(d, sol)
	if err != nil {
		t.Fatal(err)
	}
	trade := trace.Access{Table: "TRADE", Key: value.MakeKey(value.NewInt(1)), Write: true}
	v := d.View()
	tradeP, ok := a.PlaceKey(v, trade)
	v.Close()
	if !ok || tradeP < 0 {
		t.Fatalf("TRADE 1 unplaced: %d %v", tradeP, ok)
	}
	unplaced := trace.Access{Table: "HOLDING_SUMMARY", Key: value.MakeKey(value.NewString("ADLAE"), value.NewInt(1)), Write: true}
	replicated := trace.Access{Table: "CUSTOMER_ACCOUNT", Key: value.MakeKey(value.NewInt(1)), Write: true}
	read := replicated
	read.Write = false

	cases := []struct {
		name      string
		acc       []trace.Access
		nodes     []int
		coord     int
		dist      bool
		parts     []int
		coordGets int // ops the coordinator receives
	}{
		{"unplaceable write", []trace.Access{trade, unplaced}, cluster.PartitionIDs(k), tradeP, true, []int{tradeP}, 2},
		{"replicated write", []trace.Access{replicated}, cluster.PartitionIDs(k), 5 % k, true, cluster.PartitionIDs(k), 1},
		{"fully replicated read", []trace.Access{read}, nil, 5 % k, false, []int{}, 0},
	}
	txns := make([]trace.Txn, len(cases))
	for i, c := range cases {
		txns[i] = trace.Txn{ID: i, Class: c.name, Accesses: c.acc}
	}
	tr := trace.FromTxns(txns)
	placed := a.PlaceTrace(tr, 1)
	defer placed.Stop()
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			place := placed.Txn(i)
			nodes, coord, dist := cluster.Participants(tr.At(i), place, k, 5)
			if !reflect.DeepEqual(nodes, c.nodes) || coord != c.coord || dist != c.dist {
				t.Fatalf("Participants = %v, %d, %v; want %v, %d, %v", nodes, coord, dist, c.nodes, c.coord, c.dist)
			}
			var w cluster.Writes
			cluster.WriteEffects(&w, tr.At(i), place, k, coord)
			parts, opsAt := append([]int{}, w.Parts...), opsOf(t, &w)
			if !reflect.DeepEqual(parts, c.parts) {
				t.Fatalf("write partitions = %v, want %v", parts, c.parts)
			}
			if got := len(opsAt[coord]); got != c.coordGets {
				t.Fatalf("coordinator %d got %d ops, want %d: %v", coord, got, c.coordGets, opsAt)
			}
			for _, p := range parts {
				for _, op := range opsAt[p] {
					if op.Kind != db.OpTouch {
						t.Fatalf("partition %d: op %s, want touch", p, op)
					}
				}
			}
		})
	}
	checkRoutes(t, d, a, tr, k, 1, 2)
}
