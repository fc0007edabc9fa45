package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/faults"
	"repro/internal/fixture"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/value"
)

func chaosFixture(t *testing.T) (*ChaosConfig, *trace.Trace) {
	t.Helper()
	return &ChaosConfig{}, fixture.MixedTrace(fixture.CustInfoDB(), 400, 2)
}

// TestChaosDeterministicReplay: same chaos seed + scenario ⇒ byte-identical
// results across two runs; different seeds ⇒ differing abort schedules.
func TestChaosDeterministicReplay(t *testing.T) {
	d := fixture.CustInfoDB()
	_, tr := chaosFixture(t)
	// A scattering solution keeps plenty of distributed transactions in
	// play, so message-loss sampling actually gates commits.
	sol := partition.NewSolution("scatter", 2)
	sol.Set(partition.NewByPath("TRADE", singleCol("TRADE", "T_ID"), partition.NewHash(2)))
	sol.Set(partition.NewByPath("CUSTOMER_ACCOUNT", singleCol("CUSTOMER_ACCOUNT", "CA_ID"), partition.NewHash(2)))
	sol.Set(partition.NewReplicated("HOLDING_SUMMARY"))
	sc, err := faults.Builtin("flaky-network", 2)
	if err != nil {
		t.Fatal(err)
	}
	runJSON := func(seed int64) []byte {
		r, err := RunChaos(context.Background(), d, sol, tr, ChaosConfig{Scenario: sc, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := runJSON(1), runJSON(1)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	var ra, rc ChaosResult
	json.Unmarshal(a, &ra)
	json.Unmarshal(runJSON(99), &rc)
	if ra.Aborts == rc.Aborts && ra.RetryLatencyP99 == rc.RetryLatencyP99 &&
		ra.EffectiveTPS == rc.EffectiveTPS {
		t.Error("different seeds must produce differing abort schedules")
	}
}

// TestChaosCrashForcesRetries: a crash window on a participating node
// aborts in-window transactions, which retry and (mostly) commit after
// recovery; retries are charged as extra work.
func TestChaosCrashForcesRetries(t *testing.T) {
	d := fixture.CustInfoDB()
	_, tr := chaosFixture(t)
	sol := custInfoSolution(2)
	sc := &faults.Scenario{
		Name:    "mid-crash",
		Crashes: []faults.Window{{Node: 0, Start: 2, End: 4}},
	}
	r, err := RunChaos(context.Background(), d, sol, tr, ChaosConfig{Scenario: sc, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Aborts == 0 || r.Retries == 0 {
		t.Fatalf("crash window must force aborts and retries: %+v", r)
	}
	if r.Committed+r.PermanentFailures != r.Offered {
		t.Fatalf("offered=%d committed=%d permanent=%d", r.Offered, r.Committed, r.PermanentFailures)
	}
	if r.RetryLatencyP99 <= 0 || r.RetryLatencyP99 < r.RetryLatencyP50 {
		t.Errorf("retry latency p50=%v p99=%v", r.RetryLatencyP50, r.RetryLatencyP99)
	}
	if r.AvailabilityPct <= 0 || r.AvailabilityPct > 100 {
		t.Errorf("availability = %v", r.AvailabilityPct)
	}
	if r.NodeDownSec[0] <= 0 || r.NodeDownSec[1] != 0 {
		t.Errorf("NodeDownSec = %v", r.NodeDownSec)
	}
	// Retried work is extra: total chaos work exceeds the failure-free run.
	base, err := runPlain(d, sol, tr)
	if err != nil {
		t.Fatal(err)
	}
	baseTotal, chaosTotal := 0.0, 0.0
	for _, w := range base.NodeWork {
		baseTotal += w
	}
	for _, w := range r.NodeWork {
		chaosTotal += w
	}
	if chaosTotal <= baseTotal-1e-9 && r.PermanentFailures == 0 {
		t.Errorf("aborted attempts must charge extra work: chaos %.1f vs base %.1f",
			chaosTotal, baseTotal)
	}
	// Effective throughput degrades against the failure-free baseline.
	if r.EffectiveTPS >= r.BaselineTPS {
		t.Errorf("effective %.0f tps must degrade from baseline %.0f", r.EffectiveTPS, r.BaselineTPS)
	}
	if r.DegradationPct <= 0 {
		t.Errorf("degradation = %v", r.DegradationPct)
	}
}

// TestChaosNoFaultsMatchesBaselineShape: the "none" scenario commits
// everything with zero aborts.
func TestChaosNoFaultsMatchesBaselineShape(t *testing.T) {
	d := fixture.CustInfoDB()
	_, tr := chaosFixture(t)
	sol := custInfoSolution(2)
	sc, _ := faults.Builtin("none", 2)
	r, err := RunChaos(context.Background(), d, sol, tr, ChaosConfig{Scenario: sc, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Aborts != 0 || r.Retries != 0 || r.PermanentFailures != 0 {
		t.Fatalf("none scenario must be clean: %+v", r)
	}
	if r.Committed != tr.Len() || r.AvailabilityPct != 100 {
		t.Fatalf("availability: %+v", r)
	}
	if r.Local+r.Distributed != r.Committed {
		t.Errorf("classification mismatch: %+v", r)
	}
	if r.Local == 0 {
		t.Error("CustInfo trace under its JECB solution must have local txns")
	}
}

// TestChaosPermanentFailure: a permanently-down node makes its
// single-partition transactions exhaust the retry budget and surface as
// permanent failures, reported by class.
func TestChaosPermanentFailure(t *testing.T) {
	d := fixture.CustInfoDB()
	_, tr := chaosFixture(t)
	sol := custInfoSolution(2)
	sc := &faults.Scenario{
		Name:    "perma",
		Crashes: []faults.Window{{Node: 0, Start: 0}}, // never recovers
	}
	r, err := RunChaos(context.Background(), d, sol, tr, ChaosConfig{Scenario: sc, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.PermanentFailures == 0 {
		t.Fatal("node 0 down forever must permanently fail its transactions")
	}
	if len(r.PermanentByClass) == 0 {
		t.Error("permanent failures must be reported per class")
	}
	total := 0
	for _, n := range r.PermanentByClass {
		total += n
	}
	if total != r.PermanentFailures {
		t.Errorf("per-class sum %d != total %d", total, r.PermanentFailures)
	}
	if r.AvailabilityPct >= 100 {
		t.Errorf("availability = %v", r.AvailabilityPct)
	}
}

// TestChaosReplicatedReadDegradesToUpNode: fully-replicated reads are
// served by any reachable node, so a single crash never blocks them.
func TestChaosReplicatedReadDegradesToUpNode(t *testing.T) {
	d := fixture.CustInfoDB()
	sol := partition.NewSolution("rep", 2)
	for _, tbl := range []string{"TRADE", "HOLDING_SUMMARY", "CUSTOMER_ACCOUNT"} {
		sol.Set(partition.NewReplicated(tbl))
	}
	col := trace.NewCollector()
	for i := 0; i < 50; i++ {
		col.Begin("R", nil)
		col.Read("TRADE", value.MakeKey(value.NewInt(int64(i%4+1))))
		col.Commit()
	}
	tr := col.Trace()
	sc := &faults.Scenario{
		Name:    "one-down",
		Crashes: []faults.Window{{Node: 0, Start: 0}},
	}
	r, err := RunChaos(context.Background(), d, sol, tr, ChaosConfig{Scenario: sc, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed != tr.Len() || r.PermanentFailures != 0 {
		t.Fatalf("replicated reads must fail over to the up node: %+v", r)
	}
	if r.NodeWork[0] != 0 {
		t.Errorf("down node must do no work, got %v", r.NodeWork[0])
	}
	if r.NodeWork[1] == 0 {
		t.Error("up node must absorb the replicated reads")
	}
}

// TestChaosScatteringDegradesWorse: the paper's runtime claim under
// failure — a scattering (distributed-heavy) solution is exposed to every
// node's outages, so a crash degrades it more than the co-locating
// solution on the same trace.
func TestChaosScatteringDegradesWorse(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 2)
	good := custInfoSolution(4)
	bad := partition.NewSolution("bad", 4)
	bad.Set(partition.NewByPath("TRADE", singleCol("TRADE", "T_ID"), partition.NewHash(4)))
	bad.Set(partition.NewByPath("CUSTOMER_ACCOUNT", singleCol("CUSTOMER_ACCOUNT", "CA_ID"), partition.NewHash(4)))
	bad.Set(partition.NewReplicated("HOLDING_SUMMARY"))
	sc, _ := faults.Builtin("single-crash", 4)
	rg, err := RunChaos(context.Background(), d, good, tr, ChaosConfig{Scenario: sc, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunChaos(context.Background(), d, bad, tr, ChaosConfig{Scenario: sc, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Aborts <= rg.Aborts {
		t.Errorf("scattering solution must abort more under a crash: bad %d vs good %d",
			rb.Aborts, rg.Aborts)
	}
	if rb.EffectiveTPS >= rg.EffectiveTPS {
		t.Errorf("scattering must degrade harder: bad %.0f tps vs good %.0f tps",
			rb.EffectiveTPS, rg.EffectiveTPS)
	}
}

// TestSpeedupMath pins the satellite fix: the single-node baseline is
// nodeCapacity/localWork independent of trace length, and the
// zero-bottleneck path reports TPS 0 with Speedup 1 for a non-empty
// trace (0 for an empty one).
func TestSpeedupMath(t *testing.T) {
	d := fixture.CustInfoDB()
	// k=1: all work on one node, speedup exactly 1 regardless of length.
	for _, n := range []int{50, 400} {
		tr := fixture.MixedTrace(d, n, 3)
		r, err := runPlain(d, custInfoSolution(1), tr)
		if err != nil {
			t.Fatal(err)
		}
		if r.Speedup < 0.999 || r.Speedup > 1.001 {
			t.Errorf("n=%d: single-node speedup = %v, want 1", n, r.Speedup)
		}
		// The explicit simplification: TPS/speedup ratio is the single-node
		// baseline nodeCapacity/localWork.
		if base := r.ThroughputTPS / r.Speedup; base < nodeCapacity/localWork-1e-6 ||
			base > nodeCapacity/localWork+1e-6 {
			t.Errorf("n=%d: baseline = %v, want %v", n, base, nodeCapacity/localWork)
		}
	}
	// Empty trace: zero everything.
	r, err := runPlain(d, custInfoSolution(2), &trace.Trace{})
	if err != nil {
		t.Fatal(err)
	}
	if r.ThroughputTPS != 0 || r.Speedup != 0 {
		t.Errorf("empty trace: tps=%v speedup=%v", r.ThroughputTPS, r.Speedup)
	}
	// Zero-bottleneck path: a non-empty trace of zero-cost transactions
	// (no node accumulated work) reports ThroughputTPS = 0 and Speedup = 1;
	// an empty trace reports both as 0. Every transaction costs positive
	// work, so pin the branch via finalize.
	zero := &Result{Nodes: 2, NodeWork: []float64{0, 0}}
	finalize(zero, 5)
	if zero.ThroughputTPS != 0 || zero.Speedup != 1 {
		t.Errorf("zero-cost non-empty trace: tps=%v speedup=%v, want 0 and 1",
			zero.ThroughputTPS, zero.Speedup)
	}
	empty := &Result{Nodes: 2, NodeWork: []float64{0, 0}}
	finalize(empty, 0)
	if empty.ThroughputTPS != 0 || empty.Speedup != 0 {
		t.Errorf("empty trace: tps=%v speedup=%v, want 0 and 0",
			empty.ThroughputTPS, empty.Speedup)
	}
}
