package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/fixture"
	"repro/internal/partition"
	"repro/internal/wal"
)

// scatterSolution partitions TRADE and CUSTOMER_ACCOUNT by their own ids,
// so TradeUpdate transactions write across partitions and the durable
// replay exercises real 2PC rounds.
func scatterSolution(k int) *partition.Solution {
	sol := partition.NewSolution("scatter", k)
	sol.Set(partition.NewByPath("TRADE", singleCol("TRADE", "T_ID"), partition.NewHash(k)))
	sol.Set(partition.NewByPath("CUSTOMER_ACCOUNT", singleCol("CUSTOMER_ACCOUNT", "CA_ID"), partition.NewHash(k)))
	sol.Set(partition.NewReplicated("HOLDING_SUMMARY"))
	return sol
}

// TestDurableOracleAllBuiltins is the acceptance gate: for every builtin
// chaos scenario at a fixed seed — including the coordinator crash
// between prepare and commit — the recovered cluster state must be
// byte-identical (per-table digests) to a fault-free re-execution of
// exactly the committed set.
func TestDurableOracleAllBuiltins(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 2)
	sol := scatterSolution(2)
	for _, name := range faults.BuiltinNames() {
		t.Run(name, func(t *testing.T) {
			sc, err := faults.Builtin(name, 2)
			if err != nil {
				t.Fatal(err)
			}
			r, err := RunDurable(context.Background(), d, sol, tr, DurableConfig{
				ChaosConfig: ChaosConfig{Scenario: sc, Seed: 1}, WALDir: t.TempDir(), CheckpointEvery: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !r.OracleOK {
				t.Fatalf("consistency oracle failed: %s", r)
			}
			if r.Committed+r.PermanentFailures != r.Offered {
				t.Fatalf("offered=%d committed=%d permanent=%d", r.Offered, r.Committed, r.PermanentFailures)
			}
			if r.Committed == 0 {
				t.Fatal("no transaction committed")
			}
			switch name {
			case "coord-crash":
				// The decision was durable: the in-doubt participant must
				// resolve to COMMIT at recovery.
				if r.InDoubtCommitted < 1 {
					t.Errorf("coordinator crash after decision: in-doubt committed = %d, want >= 1: %s",
						r.InDoubtCommitted, r)
				}
				if len(r.CrashedNodes) != 1 || r.CrashedNodes[0] != 0 {
					t.Errorf("crashed nodes = %v", r.CrashedNodes)
				}
			case "prep-crash":
				// No durable decision: presumed abort, and the torn COMMIT
				// record shows up as a torn tail.
				if r.InDoubtAborted < 1 {
					t.Errorf("coordinator crash before decision: in-doubt aborted = %d, want >= 1: %s",
						r.InDoubtAborted, r)
				}
				if r.TornTails < 1 {
					t.Errorf("torn tails = %d, want >= 1", r.TornTails)
				}
			case "part-crash":
				if r.TornTails < 1 {
					t.Errorf("participant torn prepare: torn tails = %d, want >= 1", r.TornTails)
				}
				if len(r.CrashedNodes) != 1 || r.CrashedNodes[0] != 1 {
					t.Errorf("crashed nodes = %v", r.CrashedNodes)
				}
			case "none":
				if r.PermanentFailures != 0 || r.Aborts != 0 || r.TornTails != 0 {
					t.Errorf("clean scenario not clean: %s", r)
				}
				if r.Checkpoints == 0 {
					t.Error("no checkpoints written at cadence 16")
				}
			}
			if !strings.Contains(r.String(), "CONSISTENT") {
				t.Errorf("String() = %q", r.String())
			}
		})
	}
}

// TestDurableDeterministicReplay: same seed ⇒ byte-identical JSON
// (including recovered digests); different seeds diverge.
func TestDurableDeterministicReplay(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 2)
	sol := scatterSolution(2)
	sc, err := faults.Builtin("flaky-network", 2)
	if err != nil {
		t.Fatal(err)
	}
	runJSON := func(seed int64) []byte {
		r, err := RunDurable(context.Background(), d, sol, tr, DurableConfig{
			ChaosConfig: ChaosConfig{Scenario: sc, Seed: seed}, WALDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !r.OracleOK {
			t.Fatalf("oracle failed: %s", r)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := runJSON(7), runJSON(7)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if bytes.Equal(a, runJSON(8)) {
		t.Error("different seeds must produce different runs")
	}
}

// TestDurableAbortsLeaveNoTrace is the abort-path regression: with every
// coordination message lost, every distributed write transaction aborts
// through the full logged prepare/abort round, and the recovered state
// must carry only the local commits — digest-identical to a fault-free
// replay of exactly that committed set.
func TestDurableAbortsLeaveNoTrace(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 300, 3)
	sol := scatterSolution(2)
	sc := &faults.Scenario{Name: "all-lost", MsgLossProb: 1}
	r, err := RunDurable(context.Background(), d, sol, tr, DurableConfig{
		ChaosConfig: ChaosConfig{Scenario: sc, Seed: 1}, WALDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Aborts == 0 || r.PermanentFailures == 0 {
		t.Fatalf("loss=1 must abort every distributed attempt: %s", r)
	}
	if r.Distributed != 0 {
		t.Errorf("distributed commits under total loss: %d", r.Distributed)
	}
	if r.Committed == 0 {
		t.Fatal("local transactions must still commit")
	}
	if !r.OracleOK {
		t.Fatalf("aborted transactions left observable writes: %s", r)
	}
}

// TestDurableCheckpointRecoveryEquivalence: an aggressive checkpoint
// cadence must not change the recovered state — checkpoint + suffix
// replays to the same digests as full-log replay.
func TestDurableCheckpointRecoveryEquivalence(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 2)
	sol := scatterSolution(2)
	sc, err := faults.Builtin("single-crash", 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(every int) *DurableResult {
		r, err := RunDurable(context.Background(), d, sol, tr, DurableConfig{
			ChaosConfig: ChaosConfig{Scenario: sc, Seed: 3}, WALDir: t.TempDir(), CheckpointEvery: every,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !r.OracleOK {
			t.Fatalf("oracle failed at cadence %d: %s", every, r)
		}
		return r
	}
	sparse, dense := run(1<<30), run(2)
	if dense.Checkpoints == 0 || sparse.Checkpoints != 0 {
		t.Fatalf("checkpoints: dense=%d sparse=%d", dense.Checkpoints, sparse.Checkpoints)
	}
	for name, dg := range sparse.TableDigests {
		if dense.TableDigests[name] != dg {
			t.Errorf("table %s digest differs across checkpoint cadence: %s vs %s",
				name, dense.TableDigests[name], dg)
		}
	}
}

// TestDurableLogsSurviveForPostMortem: the WALs a durable run leaves
// behind are independently recoverable — a second standalone RecoverDir
// finds a clean, fully-resolved cluster with the same digests the run
// reported.
func TestDurableLogsSurviveForPostMortem(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 2)
	sol := scatterSolution(2)
	sc, err := faults.Builtin("coord-crash", 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r, err := RunDurable(context.Background(), d, sol, tr, DurableConfig{
		ChaosConfig: ChaosConfig{Scenario: sc, Seed: 1}, WALDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := wal.RecoverDir(d.Schema(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if cr.InDoubtCommitted != 0 || cr.InDoubtAborted != 0 || cr.TornTails != 0 {
		t.Errorf("run-end recovery was not durable: %+v", cr)
	}
	for name, dg := range cr.TableDigests() {
		if got := r.TableDigests[name]; got != hex16(dg) {
			t.Errorf("table %s: post-mortem digest %016x, run reported %s", name, dg, got)
		}
	}
}

func hex16(v uint64) string {
	const digits = "0123456789abcdef"
	b := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b)
}

// TestReplayConfigErrors: the chaos and durable replays reject a nil
// fault scenario, and the durable replay an empty log directory (which
// would put the partition logs in the working directory).
func TestReplayConfigErrors(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 50, 2)
	sol := scatterSolution(2)
	sc, err := faults.Builtin("none", 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"chaos without scenario", func() error {
			_, err := RunChaos(ctx, d, sol, tr, ChaosConfig{Seed: 1})
			return err
		}},
		{"durable without scenario", func() error {
			_, err := RunDurable(ctx, d, sol, tr, DurableConfig{ChaosConfig: ChaosConfig{Seed: 1}, WALDir: t.TempDir()})
			return err
		}},
		{"durable without WAL dir", func() error {
			_, err := RunDurable(ctx, d, sol, tr, DurableConfig{ChaosConfig: ChaosConfig{Scenario: sc, Seed: 1}})
			return err
		}},
	} {
		if c.run() == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}
