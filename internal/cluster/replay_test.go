package cluster_test

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/workloads/synthetic"
)

// replaySetup places a small synthetic trace under the golden solution.
func replaySetup(t *testing.T) (*trace.Trace, *eval.TracePlacement, *faults.Injector) {
	t.Helper()
	b := synthetic.New()
	d, err := b.Load(workloads.Config{Scale: goldenScale, Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	tr := workloads.GenerateTrace(b, d, 200, goldenSeed+1)
	a, err := eval.NewAssigner(d, groupSolution(goldenK))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := faults.Builtin("none", goldenK)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(sc, goldenK, goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	placed := a.PlaceTrace(tr, runtime.GOMAXPROCS(0))
	t.Cleanup(placed.Stop)
	return tr, placed, inj
}

func countEvents(rec *obs.Recorder) map[obs.EventKind]int {
	n := map[obs.EventKind]int{}
	for _, e := range rec.Events() {
		n[e.Kind]++
	}
	return n
}

func TestReplayCommitsEveryFirstAttempt(t *testing.T) {
	tr, placed, inj := replaySetup(t)
	rec := obs.NewRecorder(goldenRecCap)
	writes := 0
	tally, err := cluster.Replay(context.Background(), tr, placed, cluster.ReplayConfig{
		ArrivalRateTPS: 100, Retry: faults.RetryPolicy{}.WithDefaults(), Injector: inj,
		Recorder: rec, Journal: true,
	}, func(a *cluster.Attempt) (bool, error) {
		if a.Blocked || a.Num != 1 {
			t.Fatalf("attempt %d blocked=%v in a fault-free replay", a.Num, a.Blocked)
		}
		if len(a.Writes.Parts) > 0 {
			writes++
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Len()
	if tally.Offered != n || tally.Committed != n || tally.Attempts != n ||
		tally.Aborts != 0 || tally.Retries != 0 || tally.PermanentFailures != 0 {
		t.Fatalf("tally = %+v, want %d first-attempt commits", tally, n)
	}
	if tally.Local+tally.Distributed != n || tally.Distributed == 0 || tally.Local == 0 {
		t.Errorf("local %d + distributed %d, want both kinds summing to %d", tally.Local, tally.Distributed, n)
	}
	if tally.AvailabilityPct != 100 || tally.PermanentByClass != nil {
		t.Errorf("availability %.1f%%, permanent by class %v", tally.AvailabilityPct, tally.PermanentByClass)
	}
	if tally.Journal.Len() != writes {
		t.Errorf("journal holds %d commits, want the %d that wrote", tally.Journal.Len(), writes)
	}
	// Arrivals are i/rate apart and commits take no virtual time.
	if want := float64(n-1) / 100; tally.MakespanSec != want {
		t.Errorf("makespan = %v, want %v", tally.MakespanSec, want)
	}
	ev := countEvents(rec)
	if ev[obs.EvBegin] != n || ev[obs.EvRoute] != n || ev[obs.EvCommit] != n || ev[obs.EvAbort] != 0 {
		t.Errorf("flight events = %v", ev)
	}
}

func TestReplayGivesUpAfterRetryBudget(t *testing.T) {
	tr, placed, inj := replaySetup(t)
	rec := obs.NewRecorder(goldenRecCap)
	retry := faults.RetryPolicy{MaxAttempts: 3}.WithDefaults()
	tally, err := cluster.Replay(context.Background(), tr, placed, cluster.ReplayConfig{
		ArrivalRateTPS: 100, Retry: retry, Injector: inj, Recorder: rec, Journal: true,
	}, func(*cluster.Attempt) (bool, error) { return false, nil })
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Len()
	if tally.Committed != 0 || tally.PermanentFailures != n || tally.Attempts != 3*n ||
		tally.Aborts != 3*n || tally.Retries != 2*n || tally.Journal.Len() != 0 {
		t.Fatalf("tally = %+v, want %d give-ups after 3 attempts each", tally, n)
	}
	byClass := 0
	for _, c := range tally.PermanentByClass {
		byClass += c
	}
	if byClass != n || tally.AvailabilityPct != 0 {
		t.Errorf("permanent by class sums to %d, availability %.1f%%", byClass, tally.AvailabilityPct)
	}
	// Every give-up waited out two backoffs.
	if floor := 2 * retry.BaseBackoffSec * (1 - retry.JitterFrac); tally.LatencyP50 < floor {
		t.Errorf("p50 latency %v below two backoffs (%v)", tally.LatencyP50, floor)
	}
	ev := countEvents(rec)
	if ev[obs.EvAbort] != 3*n || ev[obs.EvBackoff] != 2*n || ev[obs.EvGiveUp] != n || ev[obs.EvCommit] != 0 {
		t.Errorf("flight events = %v", ev)
	}
}

func TestReplayBlocksDownAndInDoubtPartitions(t *testing.T) {
	tr, placed, inj := replaySetup(t)
	rec := obs.NewRecorder(goldenRecCap)
	blocked := 0
	tally, err := cluster.Replay(context.Background(), tr, placed, cluster.ReplayConfig{
		ArrivalRateTPS: 100, Retry: faults.RetryPolicy{MaxAttempts: 1}.WithDefaults(), Injector: inj,
		Down:     func(n int, _ float64) bool { return n == 0 },
		InDoubt:  func(p int) bool { return p == 1 },
		Recorder: rec,
	}, func(a *cluster.Attempt) (bool, error) {
		down := cluster.Has(a.Nodes, 0)
		inDoubt := !down && cluster.Has(a.Writes.Parts, 1)
		if a.Blocked != (down || inDoubt) {
			t.Fatalf("nodes %v writes %v: blocked = %v", a.Nodes, a.Writes.Parts, a.Blocked)
		}
		if a.Blocked {
			blocked++
		}
		return !a.Blocked, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if blocked == 0 || tally.PermanentFailures != blocked || tally.Committed != tr.Len()-blocked {
		t.Fatalf("%d blocked attempts, tally = %+v", blocked, tally)
	}
	if ev := countEvents(rec); ev[obs.EvFault] != blocked {
		t.Errorf("%d fault events, want one per blocked attempt (%d)", ev[obs.EvFault], blocked)
	}
}

func TestReplayStopsOnStepError(t *testing.T) {
	tr, placed, inj := replaySetup(t)
	boom := errors.New("boom")
	calls := 0
	_, err := cluster.Replay(context.Background(), tr, placed, cluster.ReplayConfig{
		ArrivalRateTPS: 100, Retry: faults.RetryPolicy{}.WithDefaults(), Injector: inj,
	}, func(*cluster.Attempt) (bool, error) {
		calls++
		return true, boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("err = %v after %d steps, want boom after 1", err, calls)
	}
}

func TestArrivalRate(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{800, 100}, {4, 0.5}, {0, 1}} {
		if got := cluster.ArrivalRate(c.n); got != c.want {
			t.Errorf("ArrivalRate(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
