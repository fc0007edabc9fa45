package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/joingraph"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workloads"
)

// preprocess loads one benchmark at its small test scale, generates and
// splits a solveGoldenTxns trace as smallSolve does, and runs phase 1 on
// the training half in a view that stays open until the test ends.
func preprocess(t *testing.T, name string) (*Partitioner, *preprocessed) {
	t.Helper()
	b, _ := workloads.Get(name)
	d, err := b.Load(workloads.Config{Scale: smallScale(name), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := workloads.GenerateTrace(b, d, solveGoldenTxns, 2)
	train, test := full.TrainTest(0.5, rand.New(rand.NewSource(3)))
	p, err := New(Input{DB: d, Procedures: workloads.Procedures(b), Train: train, Test: test},
		Options{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	v := d.View()
	t.Cleanup(v.Close)
	pre, err := p.phase1(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	return p, pre
}

// TestClassStreamsMatchSplit checks the class streams phase 1 indexes
// against the training trace split by class on all six benchmarks: each
// stream holds the training trace's own transactions (no copies), equal
// to the split's in the same order, and each access keeps the code and table id it
// resolves to in the class's own trace.
func TestClassStreamsMatchSplit(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			p, pre := preprocess(t, name)
			d, train := p.in.DB, p.in.Train
			split := byClass(train)
			if len(pre.Streams) != len(split) {
				t.Fatalf("%d class streams, the split has %d classes", len(pre.Streams), len(split))
			}
			owned := map[*trace.Txn]bool{}
			for i := range train.Len() {
				owned[train.At(i)] = true
			}
			for class, want := range split {
				got := pre.Streams[class]
				if got.Len() != want.Len() {
					t.Fatalf("%s: %d transactions, the split has %d", class, got.Len(), want.Len())
				}
				ref := resolved(t, d, want)
				for i := range got.Len() {
					if !owned[got.At(i)] {
						t.Fatalf("%s: transaction %d is not the training trace's own", class, i)
					}
					if !reflect.DeepEqual(*got.At(i), *want.At(i)) {
						t.Fatalf("%s: transaction %d differs from the split's", class, i)
					}
					if !slices.Equal(got.txnTables(i), ref.txnTables(i)) {
						t.Fatalf("%s: transaction %d: table ids differ", class, i)
					}
					refCodes := ref.txnCodes(i)
					if n := len(got.At(i).Accesses); len(got.txnCodes(i)) != n || len(got.txnTables(i)) != n {
						t.Fatalf("%s: transaction %d: %d codes and %d table ids for %d accesses",
							class, i, len(got.txnCodes(i)), len(got.txnTables(i)), n)
					}
					for a, code := range got.txnCodes(i) {
						tbl := d.Table(got.At(i).Accesses[a].Table)
						if code >= slotMissing || refCodes[a] >= slotMissing {
							if code != refCodes[a] {
								t.Fatalf("%s: transaction %d access %d: code %d, want %d", class, i, a, code, refCodes[a])
							}
						} else if !reflect.DeepEqual(got.row(tbl, code), ref.row(tbl, refCodes[a])) {
							t.Fatalf("%s: transaction %d access %d: deleted rows differ", class, i, a)
						}
					}
				}
			}
		})
	}
}

// TestTestStreamsLazy checks that phase 2 indexes the test trace per
// class only when a class falls back to min-cut: never on TPC-C, and on
// TPC-E, whose fallback classes read it, to the same transactions as
// the test trace split by class, in the same order.
func TestTestStreamsLazy(t *testing.T) {
	for _, name := range []string{"tpcc", "tpce"} {
		t.Run(name, func(t *testing.T) {
			p, pre := preprocess(t, name)
			fallbacks := cMinCutFall.Value()
			if _, err := p.phase2(context.Background(), pre); err != nil {
				t.Fatal(err)
			}
			fallbacks = cMinCutFall.Value() - fallbacks
			if name == "tpcc" {
				if fallbacks != 0 || pre.testIdx != nil {
					t.Fatalf("%d min-cut fallbacks, test streams built: %v", fallbacks, pre.testIdx != nil)
				}
				return
			}
			if fallbacks == 0 || pre.testIdx == nil {
				t.Fatalf("%d min-cut fallbacks, test streams built: %v", fallbacks, pre.testIdx != nil)
			}
			test := p.in.Test
			for class, want := range byClass(test) {
				idx := pre.testStream(class)
				if len(idx) != want.Len() {
					t.Fatalf("%s: %d test transactions, the split has %d", class, len(idx), want.Len())
				}
				for i, j := range idx {
					if !reflect.DeepEqual(*test.At(int(j)), *want.At(i)) {
						t.Fatalf("%s: test transaction %d differs from the split's", class, i)
					}
				}
			}
		})
	}
}

// classLocalCost is the reference mapperCosts must reproduce exactly:
// eval.Evaluate of the class-local solution, every table of the tree
// partitioned by its path under m and every other table the stream
// touches replicated.
func classLocalCost(t *testing.T, d *db.DB, k int, tree *joingraph.Tree, m partition.Mapper, stream *trace.Trace) float64 {
	t.Helper()
	sol := partition.NewSolution("class-local", k)
	for tbl, path := range tree.Paths {
		sol.Set(partition.NewByPath(tbl, path, m))
	}
	for _, txn := range stream.All() {
		for _, acc := range txn.Accesses {
			if sol.Table(acc.Table) == nil {
				sol.Set(partition.NewReplicated(acc.Table))
			}
		}
	}
	a, err := eval.NewAssigner(d, sol)
	if err != nil {
		t.Fatal(err)
	}
	return a.Evaluate(stream, 1).Cost()
}

// TestMapperCostsMatchEvaluate checks the min-cut fallback's one-pass
// costing on TPC-E's four min-cut classes: for every join tree and each
// of the lookup, hash and range mappers, mapperCosts on the class's test
// stream equals eval.Evaluate of the class-local solution, exactly. Each
// class's first test transaction also reads a missing key of every
// partitioned table, which dangles under every tree covering the table.
func TestMapperCostsMatchEvaluate(t *testing.T) {
	p, pre := preprocess(t, "tpce")
	classes := []string{"Broker-Volume", "Market-Feed", "Trade-Lookup Frame1", "Trade-Update Frame1"}
	txns := make([]trace.Txn, 0, pre.Test.Len())
	for _, txn := range pre.Test.All() {
		txns = append(txns, txn.Clone())
	}
	for _, class := range classes {
		i := slices.IndexFunc(txns, func(txn trace.Txn) bool { return txn.Class == class })
		if i < 0 {
			t.Fatalf("%s: no test transaction", class)
		}
		for _, tbl := range pre.PartitionedTables {
			txns[i].Accesses = append(txns[i].Accesses,
				trace.Access{Table: tbl, Key: value.MakeKey(value.NewString("no such row"))})
		}
	}
	pre.Test = trace.FromTxns(txns)
	d, test := p.in.DB, byClass(pre.Test)
	for _, class := range classes {
		stream, ok := pre.Streams[class]
		if !ok || test[class] == nil {
			t.Fatalf("%s: no training or test stream", class)
		}
		g := joingraph.Build(pre.Analyses[class], d.Schema(), pre.Replicated)
		trees := g.Trees(maxTreesPerRoot)
		if len(trees) == 0 {
			t.Fatalf("%s: no join tree", class)
		}
		for _, tree := range trees {
			navs, err := p.compileTree(tree, nil)
			if err != nil {
				t.Fatal(err)
			}
			sets, err := p.rootValueSets(context.Background(), navs, stream)
			if err != nil {
				t.Fatal(err)
			}
			lookup, vals, err := p.minCutMapping(class, tree, sets)
			if err != nil || lookup == nil {
				t.Fatalf("%s %s: min-cut mapping %v, %v", class, tree.Root, lookup, err)
			}
			mappers := []partition.Mapper{lookup, partition.NewHash(4), partition.NewRangeFromValues(4, vals)}
			costs, err := p.mapperCosts(navs, stream.v, pre.Test, pre.testStream(class), mappers...)
			if err != nil {
				t.Fatal(err)
			}
			for m, mapper := range mappers {
				if want := classLocalCost(t, d, 4, tree, mapper, test[class]); costs[m] != want {
					t.Errorf("%s %s %s: cost %v, Evaluate %v", class, tree.Root, mapper.Name(), costs[m], want)
				}
			}
		}
	}
}

// byClass groups tr's transactions by class, keeping their order.
func byClass(tr *trace.Trace) map[string]*trace.Trace {
	out := map[string]*trace.Trace{}
	for _, txn := range tr.All() {
		if out[txn.Class] == nil {
			out[txn.Class] = &trace.Trace{}
		}
		out[txn.Class].Append(*txn)
	}
	return out
}
