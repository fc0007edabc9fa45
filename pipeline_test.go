// End-to-end pipeline tests: the full deployability story on TPC-E —
// partition with JECB, serialize the solution to JSON, reload it, verify
// the reloaded solution evaluates identically, and route live invocations
// with it — and every solve stage run behind queued writers, which checks
// that each reads the database only through its db.View.
package repro_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/partition"
	"repro/internal/router"
	"repro/internal/sqlparse"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workloads"
	_ "repro/internal/workloads/all"
)

func TestFullPipelineRoundTrip(t *testing.T) {
	b, _ := workloads.Get("tpce")
	d, err := b.Load(workloads.Config{Scale: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := workloads.GenerateTrace(b, d, 4000, 2)
	train, test := full.TrainTest(0.5, rand.New(rand.NewSource(3)))

	// 1. Partition.
	sol, _, err := core.Partition(context.Background(), core.Input{
		DB: d, Procedures: workloads.Procedures(b), Train: train, Test: test,
	}, core.Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := eval.Evaluate(d, sol, test)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Ship: serialize and reload, as cmd/jecb -out + a routing tier
	// would.
	data, err := json.Marshal(sol)
	if err != nil {
		t.Fatal(err)
	}
	var reloaded partition.Solution
	if err := json.Unmarshal(data, &reloaded); err != nil {
		t.Fatal(err)
	}
	if err := reloaded.Validate(d.Schema()); err != nil {
		t.Fatalf("reloaded solution invalid: %v", err)
	}

	// 3. The reloaded solution evaluates identically.
	again, err := eval.Evaluate(d, &reloaded, test)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Cost() != again.Cost() || orig.Distributed != again.Distributed {
		t.Errorf("reloaded solution differs: %.4f/%d vs %.4f/%d",
			orig.Cost(), orig.Distributed, again.Cost(), again.Distributed)
	}

	// 4. Route live invocations with the reloaded solution.
	var analyses []*sqlparse.Analysis
	for _, proc := range workloads.Procedures(b) {
		a, err := sqlparse.Analyze(proc, d.Schema())
		if err != nil {
			t.Fatal(err)
		}
		analyses = append(analyses, a)
	}
	rt, err := router.New(d, &reloaded, analyses)
	if err != nil {
		t.Fatal(err)
	}
	single := 0
	ctx := context.Background()
	for _, txn := range test.All() {
		dec, err := rt.Route(ctx, router.Request{Class: txn.Class, Params: txn.Params})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Local() {
			single++
		}
	}
	// Most of the workload is single-partition under the C_ID solution
	// (Figure 8), and the router must realize a large share of that.
	if float64(single) < 0.5*float64(test.Len()) {
		t.Errorf("only %d/%d invocations single-routed", single, test.Len())
	}
}

// stageBound is how long a stage may take before the test calls it
// blocked; every stage here takes well under a second, also under the
// race detector.
const stageBound = 30 * time.Second

// queueWriters opens a view of d and starts one writer per table, each
// touching a key no trace accesses; they queue behind the view. The
// returned function closes the view and waits for the writers. In
// between, a stage's own views nest in the open one and take no lock,
// while any read lock a stage takes waits behind its table's writer.
func queueWriters(d *db.DB) (release func()) {
	v := d.View()
	var started, wrote sync.WaitGroup
	key := value.MakeKey(value.NewString("queued-writer"))
	for _, tm := range d.Schema().Tables() {
		t := d.Table(tm.Name)
		started.Add(1)
		wrote.Add(1)
		go func() {
			defer wrote.Done()
			started.Done()
			t.Touch(key)
		}()
	}
	started.Wait()
	// A writer that has not reached its lock by now lets a locking read
	// through: the check can miss, but it cannot fail a stage that reads
	// only through its view.
	time.Sleep(50 * time.Millisecond)
	return func() {
		v.Close()
		wrote.Wait()
	}
}

// underQueuedWriters runs stage with writers queued on every table of d
// and fails the test when it does not finish within stageBound.
func underQueuedWriters(t *testing.T, d *db.DB, name string, stage func() error) {
	t.Helper()
	release := queueWriters(d)
	done := make(chan error, 1)
	go func() { done <- stage() }()
	select {
	case err := <-done:
		release()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	case <-time.After(stageBound):
		// The stage's own view keeps the writers out, and the writers
		// keep its read lock out: the stage and the writers stay blocked
		// for the rest of the run.
		t.Fatalf("%s blocked behind a queued writer for %v: it takes a table's read lock inside its view", name, stageBound)
	}
}

// TestSolveStagesReadThroughViews checks that the solve stages read the
// database only through their views (db.View). No stage may take a
// table's read lock inside its view: that lock waits behind a queued
// writer, which waits for the view. Every stage runs here with a writer
// queued on every table behind an open view, so a locking read anywhere
// in a stage blocks it for good.
func TestSolveStagesReadThroughViews(t *testing.T) {
	for _, c := range []struct {
		bench       string
		scale, txns int
	}{
		{"tpcc", 2, 600},
		// TPC-E's min-cut fallbacks run eval.Assigner.Evaluate inside
		// phase 2, a view nested in the partitioner's.
		{"tpce", 40, 800},
	} {
		t.Run(c.bench, func(t *testing.T) {
			b, _ := workloads.Get(c.bench)
			d, err := b.Load(workloads.Config{Scale: c.scale, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			full := workloads.GenerateTrace(b, d, c.txns, 2)
			train, test := full.TrainTest(0.5, rand.New(rand.NewSource(3)))
			in := core.Input{DB: d, Procedures: workloads.Procedures(b), Train: train, Test: test}

			var sol *partition.Solution
			underQueuedWriters(t, d, "core.Partition", func() (err error) {
				sol, _, err = core.Partition(context.Background(), in, core.Options{K: 4, Parallelism: 2})
				return err
			})
			underQueuedWriters(t, d, "eval.Evaluate", func() error {
				_, err := eval.Evaluate(d, sol, test)
				return err
			})
			a, err := eval.NewAssigner(d, sol)
			if err != nil {
				t.Fatal(err)
			}
			underQueuedWriters(t, d, "Assigner.EvaluateColumnar", func() error {
				a.EvaluateColumnar(trace.Columnarize(test))
				return nil
			})
			underQueuedWriters(t, d, "Assigner.PlaceTrace", func() error {
				p := a.PlaceTrace(test, 2)
				defer p.Stop()
				for i := 0; i < test.Len(); i++ {
					p.Txn(i)
				}
				return nil
			})
			var analyses []*sqlparse.Analysis
			for _, proc := range in.Procedures {
				an, err := sqlparse.Analyze(proc, d.Schema())
				if err != nil {
					t.Fatal(err)
				}
				analyses = append(analyses, an)
			}
			underQueuedWriters(t, d, "router.New", func() error {
				_, err := router.New(d, sol, analyses)
				return err
			})
		})
	}
}
