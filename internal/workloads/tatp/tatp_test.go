package tatp

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/schism"
	"repro/internal/sqlparse"
	"repro/internal/workloads"
)

func TestSchemaAndGenerate(t *testing.T) {
	s := Schema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	d, err := Generate(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Table("SUBSCRIBER").Len() != 100 {
		t.Errorf("subscribers = %d", d.Table("SUBSCRIBER").Len())
	}
	if d.Table("ACCESS_INFO").Len() < 100 {
		t.Errorf("access info = %d", d.Table("ACCESS_INFO").Len())
	}
	if _, err := Generate(0, 1); err == nil {
		t.Error("zero subscribers must error")
	}
	for _, c := range New().Classes() {
		if _, err := sqlparse.Analyze(c.Proc, s); err != nil {
			t.Errorf("%s: %v", c.Proc.Name, err)
		}
	}
}

// TestJECBFindsSubscriberPartitioning: the paper's TATP result — JECB
// partitions everything by subscriber id with zero distributed
// transactions.
func TestJECBFindsSubscriberPartitioning(t *testing.T) {
	b := New()
	d, err := b.Load(workloads.Config{Scale: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := workloads.GenerateTrace(b, d, 2500, 2)
	train, test := full.TrainTest(0.4, rand.New(rand.NewSource(3)))
	sol, _, err := core.Partition(context.Background(), core.Input{
		DB: d, Procedures: workloads.Procedures(b), Train: train, Test: test,
	}, core.Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	r, err := eval.Evaluate(d, sol, test)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost() != 0 {
		t.Errorf("cost = %.4f, want 0", r.Cost())
	}
	sidClass := map[string]bool{"S_ID": true, "AI_S_ID": true, "SF_S_ID": true, "CF_S_ID": true}
	for _, tbl := range []string{"SUBSCRIBER", "SPECIAL_FACILITY", "CALL_FORWARDING"} {
		ts := sol.Table(tbl)
		if ts == nil || ts.Replicate {
			t.Errorf("%s: %v, want subscriber partitioning", tbl, ts)
			continue
		}
		attr, _ := ts.Attribute()
		if !sidClass[attr.Column] {
			t.Errorf("%s partitioned by %v, want subscriber id", tbl, attr)
		}
	}
}

// TestSchismCoverageGap reproduces the §7.4 comparison shape: at low
// coverage Schism's per-value rules miss many subscribers while JECB is
// exact.
func TestSchismCoverageGap(t *testing.T) {
	b := New()
	d, err := b.Load(workloads.Config{Scale: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := workloads.GenerateTrace(b, d, 3000, 2)
	// Tiny training set relative to 1000 subscribers.
	train := full.Head(400)
	testTrace := full.Window(400, full.Len())
	schismSol, _, err := schism.Partition(schism.Input{DB: d, Train: train}, schism.Options{K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	jecbSol, _, err := core.Partition(context.Background(), core.Input{
		DB: d, Procedures: workloads.Procedures(b), Train: train,
	}, core.Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := eval.Evaluate(d, schismSol, testTrace)
	if err != nil {
		t.Fatal(err)
	}
	rj, err := eval.Evaluate(d, jecbSol, testTrace)
	if err != nil {
		t.Fatal(err)
	}
	if rj.Cost() != 0 {
		t.Errorf("JECB cost = %.4f, want 0", rj.Cost())
	}
	if rs.Cost() <= rj.Cost() {
		t.Errorf("Schism (%.4f) should be worse than JECB (%.4f) at low coverage", rs.Cost(), rj.Cost())
	}
}
