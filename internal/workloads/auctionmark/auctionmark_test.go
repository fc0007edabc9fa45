package auctionmark

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
	if d.Table("USERACCT").Len() != 100 {
		t.Errorf("users = %d", d.Table("USERACCT").Len())
	}
	if d.Table("ITEM").Len() != 100*ItemsPerUser {
		t.Errorf("items = %d", d.Table("ITEM").Len())
	}
	if _, err := Generate(0, 1); err == nil {
		t.Error("zero users must error")
	}
	for _, c := range New().Classes() {
		if _, err := sqlparse.Analyze(c.Proc, s); err != nil {
			t.Errorf("%s: %v", c.Proc.Name, err)
		}
	}
}

// TestJECBOnAuctionMark: the m-to-n bids keep the workload from being
// completely partitionable, but the user-rooted majority still co-locates
// — JECB's cost should sit well below full scatter and the NewBid class
// should carry most of the residue.
func TestJECBOnAuctionMark(t *testing.T) {
	b := New()
	d, err := b.Load(workloads.Config{Scale: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := workloads.GenerateTrace(b, d, 2500, 2)
	train, test := full.TrainTest(0.4, rand.New(rand.NewSource(3)))
	sol, rep, err := core.Partition(context.Background(), core.Input{
		DB: d, Procedures: workloads.Procedures(b), Train: train, Test: test,
	}, core.Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	r, err := eval.Evaluate(d, sol, test)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost() > 0.45 {
		t.Errorf("JECB cost = %.3f, want moderate (m-to-n residue only)", r.Cost())
	}
	if r.Cost() == 0 {
		t.Error("AuctionMark must not be completely partitionable (m-to-n bids)")
	}
	// NewBid should be the dominant distributed class.
	if nb := r.ByClass["NewBid"]; nb == nil || nb.Cost() < 0.5 {
		t.Errorf("NewBid class cost = %v, want high", r.ByClass["NewBid"])
	}
	if gi := r.ByClass["GetUserInfo"]; gi != nil && gi.Cost() > 0.1 {
		t.Errorf("GetUserInfo cost = %.3f, want ~0", gi.Cost())
	}
	_ = rep
}

// TestJECBBeatsSchismAtLowCoverage mirrors Figure 7's AuctionMark bars.
func TestJECBBeatsSchismAtLowCoverage(t *testing.T) {
	b := New()
	d, err := b.Load(workloads.Config{Scale: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := workloads.GenerateTrace(b, d, 3000, 2)
	train := full.Head(300) // ~10% coverage of a 400-user database
	test := full.Window(300, full.Len())
	js, _, err := core.Partition(context.Background(), core.Input{
		DB: d, Procedures: workloads.Procedures(b), Train: train,
	}, core.Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	ss, _, err := schism.Partition(schism.Input{DB: d, Train: train}, schism.Options{K: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rj, err := eval.Evaluate(d, js, test)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := eval.Evaluate(d, ss, test)
	if err != nil {
		t.Fatal(err)
	}
	if rj.Cost() >= rs.Cost() {
		t.Errorf("JECB (%.3f) should beat Schism (%.3f) at low coverage", rj.Cost(), rs.Cost())
	}
}
