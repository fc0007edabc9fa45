package router

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/sqlparse"
	"repro/internal/workloads"
	_ "repro/internal/workloads/all"
)

// TestRouterOnTPCE is the full runtime story over the paper's centerpiece
// benchmark: JECB partitions TPC-E, the router builds lookup tables from
// each class's parameter filters, and single-partition classes route to
// exactly the partition their tuples live on.
func TestRouterOnTPCE(t *testing.T) {
	b, _ := workloads.Get("tpce")
	d, err := b.Load(workloads.Config{Scale: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := workloads.GenerateTrace(b, d, 4000, 2)
	train, test := full.TrainTest(0.5, rand.New(rand.NewSource(3)))
	sol, _, err := core.Partition(context.Background(), core.Input{
		DB: d, Procedures: workloads.Procedures(b), Train: train, Test: test,
	}, core.Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	var analyses []*sqlparse.Analysis
	for _, proc := range workloads.Procedures(b) {
		a, err := sqlparse.Analyze(proc, d.Schema())
		if err != nil {
			t.Fatal(err)
		}
		analyses = append(analyses, a)
	}
	rt, err := New(d, sol, analyses)
	if err != nil {
		t.Fatal(err)
	}

	// Classes the solution makes completely local must not broadcast.
	for _, class := range []string{"Customer-Position", "Market-Watch", "Trade-Status"} {
		if rt.RoutingParam(class) == "" {
			t.Errorf("%s must have a routing attribute", class)
		}
	}

	// Soundness: for every single-partition transaction in the test
	// trace, the routed partition set must contain the partition its
	// tuples actually live on.
	assigner, err := eval.NewAssigner(d, sol)
	if err != nil {
		t.Fatal(err)
	}
	checked, sound, singleRouted := 0, 0, 0
	v := d.View()
	defer v.Close()
	for _, txn := range test.All() {
		s := assigner.Span(v, txn)
		if s.Distributed() || s.Parts.Len() != 1 {
			continue // routing soundness only meaningful for local txns
		}
		actual := s.Parts.Min()
		routed := routeParts(t, rt, txn.Class, txn.Params)
		checked++
		if len(routed) == 1 {
			singleRouted++
		}
		for _, p := range routed {
			if p == actual {
				sound++
				break
			}
		}
	}
	if checked == 0 {
		t.Fatal("no local transactions to check")
	}
	if sound != checked {
		t.Errorf("routing unsound: %d/%d local transactions routed away from their data", checked-sound, checked)
	}
	// Most local transactions should route to a single partition rather
	// than broadcasting.
	if float64(singleRouted) < 0.6*float64(checked) {
		t.Errorf("only %d/%d local transactions single-routed", singleRouted, checked)
	}
}
