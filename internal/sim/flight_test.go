package sim

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/faults"
	"repro/internal/fixture"
	"repro/internal/obs"
)

// TestFlightTraceCompleteness is the tentpole trace-completeness gate:
// after a chaos run with the flight recorder attached, EVERY transaction
// must have a complete causal event chain — begin, then the routing
// decision, then a terminal decision event (commit or give-up) — and the
// per-transaction event stream must be internally ordered.
func TestFlightTraceCompleteness(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 2)
	sol := scatterSolution(2)
	sc, err := faults.Builtin("flaky-network", 2)
	if err != nil {
		t.Fatal(err)
	}
	const seed = int64(7)
	rec := obs.NewRecorder(1 << 17) // ample: nothing may be overwritten
	ctx := obs.WithRecorder(context.Background(), rec)
	r, err := RunChaos(ctx, d, sol, tr, ChaosConfig{Scenario: sc, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recorder overflowed (%d dropped); grow the test capacity", rec.Dropped())
	}

	byTxn := map[uint64][]obs.Event{}
	for _, e := range rec.Events() {
		byTxn[e.Txn] = append(byTxn[e.Txn], e)
	}
	commits, giveUps := 0, 0
	for i := 0; i < tr.Len(); i++ {
		id := obs.TxnID(seed, i)
		evs := byTxn[id]
		if len(evs) < 3 {
			t.Fatalf("txn %d: only %d events, want >= 3 (begin, route, decision)", i, len(evs))
		}
		if evs[0].Kind != obs.EvBegin {
			t.Fatalf("txn %d: first event %s, want begin", i, evs[0].Kind)
		}
		if evs[1].Kind != obs.EvRoute {
			t.Fatalf("txn %d: second event %s, want route", i, evs[1].Kind)
		}
		last := evs[len(evs)-1]
		switch last.Kind {
		case obs.EvCommit:
			commits++
		case obs.EvGiveUp:
			giveUps++
		default:
			t.Fatalf("txn %d: terminal event %s, want commit or give-up", i, last.Kind)
		}
		// Virtual time never runs backwards within a transaction.
		for j := 1; j < len(evs); j++ {
			if evs[j].VT < evs[j-1].VT {
				t.Fatalf("txn %d: VT regressed %g -> %g", i, evs[j-1].VT, evs[j].VT)
			}
		}
	}
	if commits != r.Committed || giveUps != r.PermanentFailures {
		t.Fatalf("event chain counts commit=%d giveup=%d, result says %d/%d",
			commits, giveUps, r.Committed, r.PermanentFailures)
	}
	// Every abort is followed by either a backoff (retry) or terminal
	// give-up, so the recorded abort count matches the result.
	aborts := 0
	for _, e := range rec.Events() {
		if e.Kind == obs.EvAbort {
			aborts++
		}
	}
	if aborts != r.Aborts {
		t.Fatalf("recorded aborts = %d, result = %d", aborts, r.Aborts)
	}
}

// TestFlightDumpByteIdentical pins the flight recorder's determinism
// contract end to end through the DURABLE replay (2PC + WAL appends +
// crash points): two same-seed runs dump byte-identical JSON, and the
// dump carries the 2PC/WAL event vocabulary.
func TestFlightDumpByteIdentical(t *testing.T) {
	run := func() []byte {
		d := fixture.CustInfoDB()
		tr := fixture.MixedTrace(d, 300, 2)
		sc, err := faults.Builtin("coord-crash", 2)
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder(1 << 17)
		res, err := RunDurable(obs.WithRecorder(context.Background(), rec), d, scatterSolution(2), tr, DurableConfig{
			ChaosConfig:     ChaosConfig{Scenario: sc, Seed: 3},
			WALDir:          t.TempDir(),
			CheckpointEvery: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OracleOK {
			t.Fatalf("oracle failed: %s", res)
		}
		var buf bytes.Buffer
		if err := rec.DumpJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed flight dumps differ")
	}
	for _, want := range []string{
		`"kind":"begin"`, `"kind":"route"`, `"kind":"prepare"`,
		`"kind":"commit"`, `"kind":"wal-append"`, `"kind":"crash"`,
		`"kind":"recover"`,
	} {
		if !bytes.Contains(a, []byte(want)) {
			t.Errorf("durable flight dump missing %s", want)
		}
	}
}

// TestChaosLatencyAndSLO checks the HDR-backed latency quantiles and the
// SLO evaluation surface in ChaosResult.
func TestChaosLatencyAndSLO(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 2)
	sol := scatterSolution(2)
	sc, err := faults.Builtin("flaky-network", 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunChaos(context.Background(), d, sol, tr, ChaosConfig{Scenario: sc, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// p50 may legitimately be zero (uncontended local txns complete in
	// zero virtual time); the tail must be positive and monotone.
	if r.LatencyP999 <= 0 || r.LatencyP99 < r.LatencyP50 || r.LatencyP999 < r.LatencyP99 {
		t.Fatalf("latency quantiles not monotone: p50=%g p99=%g p999=%g",
			r.LatencyP50, r.LatencyP99, r.LatencyP999)
	}
	if r.SLO.Windows == 0 {
		t.Fatalf("SLO evaluated no windows: %+v", r.SLO)
	}
	if r.SLO.TargetP99Sec != 0.5 || r.SLO.TargetAvailabilityPct != 99 {
		t.Fatalf("SLO defaults not applied: %+v", r.SLO)
	}
	// A sub-percent-availability scenario must trip the guardrail.
	tight := ChaosConfig{Scenario: sc, Seed: 1, SLO: obs.SLOConfig{TargetP99Sec: 1e-9, WindowTxns: 64}}
	r2, err := RunChaos(context.Background(), d, sol, tr, tight)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.SLO.GuardrailTripped || r2.SLO.Breaches == 0 {
		t.Fatalf("impossible p99 target did not trip the guardrail: %+v", r2.SLO)
	}
}

// TestDriftSLOProxy checks the drift replay's service-time proxy SLO.
func TestDriftSLOProxy(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 2)
	r, err := runDrift(context.Background(), d, custInfoSolution(2), tr, DriftConfig{WindowSize: 100}, modeStatic, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.LatencyP50 <= 0 || r.LatencyP99 < r.LatencyP50 {
		t.Fatalf("drift latency proxy quantiles: p50=%g p99=%g", r.LatencyP50, r.LatencyP99)
	}
	if r.SLO.Windows == 0 {
		t.Fatalf("drift SLO evaluated no windows: %+v", r.SLO)
	}
}
