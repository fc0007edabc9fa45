package experiments

import (
	"encoding/json"
	"fmt"
	"testing"
)

// TestDriftAdaptiveBeatsStatic pins the acceptance bar of the drift
// work: on every builtin scenario the adaptive controller's post-drift
// distributed fraction is strictly below the static baseline's, the
// oracle is no worse than static, and the movement budget is respected.
// The second input is the reduced scale with a tight movement budget.
func TestDriftAdaptiveBeatsStatic(t *testing.T) {
	for _, in := range []struct {
		scale, txns, window, budget int
		seed                        int64
	}{
		{200, 4000, 500, 5000, 7},
		{120, 2000, 400, 900, 1},
	} {
		t.Run(fmt.Sprintf("scale=%d,budget=%d", in.scale, in.budget), func(t *testing.T) {
			checkDriftBeatsStatic(t, in.scale, in.txns, in.window, in.budget, in.seed)
		})
	}
}

func checkDriftBeatsStatic(t *testing.T, scale, txns, window, budget int, seed int64) {
	rows, err := Drift(nil, 4, scale, txns, window, budget, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, row := range rows {
		st, ad, or := row.Static, row.Adaptive, row.Oracle
		t.Logf("%-14s static %.1f%% adaptive %.1f%% oracle %.1f%% (moved %d, deferred %d, %d swaps)",
			row.Scenario, 100*st.PostDistFrac, 100*ad.PostDistFrac, 100*or.PostDistFrac,
			ad.MovedTuples, ad.DeferredTuples, ad.Swaps)
		if ad.PostDistFrac >= st.PostDistFrac {
			t.Errorf("%s: adaptive post-drift %.3f must be strictly below static %.3f",
				row.Scenario, ad.PostDistFrac, st.PostDistFrac)
		}
		if or.PostDistFrac > st.PostDistFrac {
			t.Errorf("%s: oracle post-drift %.3f must not exceed static %.3f",
				row.Scenario, or.PostDistFrac, st.PostDistFrac)
		}
		if ad.MovedTuples > budget {
			t.Errorf("%s: moved %d tuples over budget %d", row.Scenario, ad.MovedTuples, budget)
		}
		if st.Repartitions != 0 || st.Swaps != 0 {
			t.Errorf("%s: static must not adapt (%d repartitions, %d swaps)",
				row.Scenario, st.Repartitions, st.Swaps)
		}
		if ad.Swaps == 0 {
			t.Errorf("%s: adaptive performed no swap", row.Scenario)
		}
		if or.Repartitions != 1 || or.Swaps != 1 {
			t.Errorf("%s: oracle must swap exactly once (%d/%d)",
				row.Scenario, or.Repartitions, or.Swaps)
		}
	}
}

// TestDriftDeterministic: two same-seed runs marshal byte-identically —
// the contract the CI drift job enforces end-to-end.
func TestDriftDeterministic(t *testing.T) {
	run := func() []byte {
		rows, err := Drift([]string{"mix-flip"}, 4, 120, 2000, 400, 4000, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatal("same-seed drift runs differ")
	}
}

// TestDriftBudgetClamp: a tiny budget defers movement rather than
// exceeding it, and the run still completes.
func TestDriftBudgetClamp(t *testing.T) {
	rows, err := Drift([]string{"mix-flip"}, 4, 120, 2000, 400, 300, 11)
	if err != nil {
		t.Fatal(err)
	}
	ad := rows[0].Adaptive
	if ad.MovedTuples > 300 {
		t.Errorf("moved %d tuples over budget 300", ad.MovedTuples)
	}
	if ad.MovedTuples > 0 && ad.DeferredTuples == 0 {
		t.Log("note: full migration fit the tiny budget")
	}
}
