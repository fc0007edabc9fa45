package faults

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWindowHealthTimeline(t *testing.T) {
	sc := &Scenario{
		Name: "tl",
		Crashes: []Window{
			{Node: 0, Start: 1, End: 3},
			{Node: 1, Start: 2}, // permanent
		},
	}
	in, err := NewInjector(sc, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		node int
		t    float64
		down bool
	}{
		{0, 0.5, false}, {0, 1, true}, {0, 2.9, true}, {0, 3, false},
		{1, 1.9, false}, {1, 2, true}, {1, 1e9, true},
		{2, 2, false}, {3, 2, false},
	}
	for _, c := range cases {
		if got := in.Down(c.node, c.t); got != c.down {
			t.Errorf("Down(%d, %v) = %v, want %v", c.node, c.t, got, c.down)
		}
	}
	down := in.DownNodeSeconds(10)
	if down[0] != 2 || down[1] != 8 || down[2] != 0 {
		t.Errorf("DownNodeSeconds = %v", down)
	}
	// Health snapshot adapter.
	if h := in.At(2.5); !h.Down(0) || !h.Down(1) || h.Down(2) {
		t.Error("At(2.5) snapshot wrong")
	}
	if AllUp.Down(0) {
		t.Error("AllUp must report all nodes up")
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []*Scenario{
		{Crashes: []Window{{Node: -1, Start: 0}}},
		{Crashes: []Window{{Node: 9, Start: 0}}},
		{Crashes: []Window{{Node: 0, Start: -1}}},
		{Crashes: []Window{{Node: 0, Start: 2, End: 1}}},
		{Crashes: []Window{{Node: 0, Start: math.NaN()}}},
		{Crashes: []Window{{Node: 0, Start: 0, End: math.Inf(1)}}},
		{MsgLossProb: 1.5},
		{MsgLossProb: -0.1},
		{LatencySpikeProb: 2},
		{LatencySpikeSec: -1},
		{LatencySpikeSec: math.Inf(1)},
	}
	for i, sc := range bad {
		if err := sc.Validate(4); !errors.Is(err, ErrScenario) {
			t.Errorf("case %d: Validate = %v, want ErrScenario", i, err)
		}
		if _, err := NewInjector(sc, 4, 1); !errors.Is(err, ErrScenario) {
			t.Errorf("case %d: NewInjector must reject invalid scenario", i)
		}
	}
	var nilSc *Scenario
	if err := nilSc.Validate(0); !errors.Is(err, ErrScenario) {
		t.Error("nil scenario must be invalid")
	}
	ok := &Scenario{
		Crashes:          []Window{{Node: 3, Start: 0, End: 1}},
		MsgLossProb:      0.5,
		LatencySpikeProb: 1,
		LatencySpikeSec:  0.1,
	}
	if err := ok.Validate(4); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
	// k <= 0 skips the node-range check only.
	if err := ok.Validate(0); err != nil {
		t.Errorf("k=0 validation: %v", err)
	}
}

func TestBuiltins(t *testing.T) {
	for _, name := range BuiltinNames() {
		sc, err := Builtin(name, 8)
		if err != nil {
			t.Fatalf("Builtin(%q): %v", name, err)
		}
		if err := sc.Validate(8); err != nil {
			t.Errorf("builtin %q invalid: %v", name, err)
		}
		if !strings.Contains(sc.String(), name) {
			t.Errorf("String() = %q, want scenario name", sc.String())
		}
	}
	if _, err := Builtin("nope", 8); !errors.Is(err, ErrScenario) {
		t.Error("unknown builtin must wrap ErrScenario")
	}
	if _, err := Builtin("none", 0); !errors.Is(err, ErrScenario) {
		t.Error("k=0 must be rejected")
	}
	// rolling covers every node; half-down kills the upper half for good.
	rolling, _ := Builtin("rolling", 4)
	if len(rolling.Crashes) != 4 {
		t.Errorf("rolling crashes = %d", len(rolling.Crashes))
	}
	half, _ := Builtin("half-down", 4)
	in, _ := NewInjector(half, 4, 1)
	up := 0
	for n := 0; n < 4; n++ {
		if !in.Down(n, 100) {
			up++
		}
	}
	if up != 2 {
		t.Errorf("half-down: %d nodes up at t=100, want 2", up)
	}
}

func TestSamplingDeterminism(t *testing.T) {
	sc, _ := Builtin("flaky-network", 4)
	draw := func(seed int64) []bool {
		in, err := NewInjector(sc, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.SampleLoss()
			in.SampleLatency()
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := draw(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical loss schedules")
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{}.WithDefaults()
	if p.MaxAttempts != 6 || p.BaseBackoffSec != 0.010 || p.MaxBackoffSec != 1.0 || p.JitterFrac != 0.2 {
		t.Errorf("defaults = %+v", p)
	}
	// Negative jitter clamps to zero (deterministic backoff).
	if q := (RetryPolicy{JitterFrac: -1}).WithDefaults(); q.JitterFrac != 0 {
		t.Errorf("JitterFrac = %v", q.JitterFrac)
	}
	in, _ := NewInjector(&Scenario{Name: "none"}, 2, 1)
	nojit := RetryPolicy{BaseBackoffSec: 0.01, MaxBackoffSec: 0.1, JitterFrac: -1, MaxAttempts: 9}.WithDefaults()
	prev := 0.0
	for r := 1; r <= 8; r++ {
		b := nojit.Backoff(r, in)
		if b < prev {
			t.Errorf("backoff not monotone at retry %d: %v < %v", r, b, prev)
		}
		if b > nojit.MaxBackoffSec {
			t.Errorf("backoff %v exceeds cap", b)
		}
		prev = b
	}
	if got := nojit.Backoff(1, in); got != 0.01 {
		t.Errorf("Backoff(1) = %v", got)
	}
	if got := nojit.Backoff(0, in); got != 0.01 {
		t.Errorf("Backoff(0) must clamp to first retry, got %v", got)
	}
	if got := nojit.Backoff(20, in); got != 0.1 {
		t.Errorf("Backoff(20) = %v, want cap", got)
	}
	// Jittered backoff stays within ±frac.
	jit := RetryPolicy{BaseBackoffSec: 0.01, JitterFrac: 0.5}.WithDefaults()
	for i := 0; i < 50; i++ {
		b := jit.Backoff(1, in)
		if b < 0.005-1e-12 || b > 0.015+1e-12 {
			t.Fatalf("jittered backoff %v outside [0.005, 0.015]", b)
		}
	}
}

func TestParseScenario(t *testing.T) {
	good := `{"name":"x","crashes":[{"node":1,"start":0.5,"end":2}],"msg_loss_prob":0.01}`
	sc, err := ParseScenario([]byte(good), 4)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "x" || len(sc.Crashes) != 1 || sc.Crashes[0].Node != 1 {
		t.Errorf("parsed = %+v", sc)
	}
	// Round trip.
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := ParseScenario(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sc2.Crashes[0] != sc.Crashes[0] || sc2.MsgLossProb != sc.MsgLossProb {
		t.Errorf("round trip = %+v", sc2)
	}
	bad := []string{
		``,
		`{`,
		`not json`,
		`{"crashes":[{"node":0,"start":5,"end":1}]}`,
		`{"msg_loss_prob":7}`,
		`{"unknown_field":1}`,
		`{"name":"a"} trailing`,
		`{"crashes":[{"node":99,"start":0}]}`,
	}
	for _, s := range bad {
		if _, err := ParseScenario([]byte(s), 4); !errors.Is(err, ErrScenario) {
			t.Errorf("ParseScenario(%q) = %v, want ErrScenario", s, err)
		}
	}
	// Unnamed scenarios get a default label.
	sc3, err := ParseScenario([]byte(`{}`), 4)
	if err != nil || sc3.Name != "unnamed" {
		t.Errorf("empty scenario: %+v, %v", sc3, err)
	}
}

func TestLoadScenario(t *testing.T) {
	// Builtin name resolves directly.
	sc, err := LoadScenario("rolling", 4)
	if err != nil || sc.Name != "rolling" {
		t.Fatalf("LoadScenario(rolling) = %v, %v", sc, err)
	}
	// Default when empty.
	sc, err = LoadScenario("", 4)
	if err != nil || sc.Name != "single-crash" {
		t.Fatalf("LoadScenario(\"\") = %v, %v", sc, err)
	}
	// File path.
	dir := t.TempDir()
	path := filepath.Join(dir, "sc.json")
	if err := os.WriteFile(path, []byte(`{"name":"from-file","crashes":[{"node":0,"start":1,"end":2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err = LoadScenario(path, 4)
	if err != nil || sc.Name != "from-file" {
		t.Fatalf("LoadScenario(file) = %v, %v", sc, err)
	}
	// Malformed file reports a typed error.
	badPath := filepath.Join(dir, "bad.json")
	os.WriteFile(badPath, []byte(`{"msg_loss_prob":9}`), 0o644)
	if _, err := LoadScenario(badPath, 4); !errors.Is(err, ErrScenario) {
		t.Errorf("bad file = %v, want ErrScenario", err)
	}
	// Neither builtin nor file.
	if _, err := LoadScenario("no-such-thing", 4); !errors.Is(err, ErrScenario) {
		t.Errorf("missing = %v, want ErrScenario", err)
	}
}

// FuzzParseScenario: arbitrary bytes must never panic the scenario
// decoder (satellite: no panic reachable from malformed scenario input).
func FuzzParseScenario(f *testing.F) {
	f.Add([]byte(`{"name":"x","crashes":[{"node":1,"start":0.5,"end":2}]}`))
	f.Add([]byte(`{"msg_loss_prob":0.5,"latency_spike_prob":0.1,"latency_spike_sec":0.01}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"crashes":[{"node":-1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data, 8)
		if err != nil {
			if !errors.Is(err, ErrScenario) {
				t.Fatalf("non-typed error: %v", err)
			}
			return
		}
		// Accepted scenarios must be injectable.
		if _, err := NewInjector(sc, 8, 1); err != nil {
			t.Fatalf("validated scenario rejected by injector: %v", err)
		}
	})
}

func TestCrashPointValidation(t *testing.T) {
	bad := []*Scenario{
		{CrashPoints: []CrashPoint{{Node: -1, Phase: PhaseBeforePrepare, Seq: 1}}},
		{CrashPoints: []CrashPoint{{Node: 9, Phase: PhaseBeforeCommit, Seq: 1}}},
		{CrashPoints: []CrashPoint{{Node: 0, Phase: "mid-flight", Seq: 1}}},
		{CrashPoints: []CrashPoint{{Node: 0, Phase: PhaseAfterDecision, Seq: 0}}},
	}
	for i, sc := range bad {
		if err := sc.Validate(4); !errors.Is(err, ErrScenario) {
			t.Errorf("case %d: Validate = %v, want ErrScenario", i, err)
		}
	}
	ok := &Scenario{CrashPoints: []CrashPoint{
		{Node: 3, Phase: PhaseBeforePrepare, Seq: 1},
		{Node: 0, Phase: PhaseAfterDecision, Seq: 7},
	}}
	if err := ok.Validate(4); err != nil {
		t.Errorf("valid crash points rejected: %v", err)
	}
	if got := CrashPhases(); len(got) != 5 {
		t.Errorf("CrashPhases = %v", got)
	}
}

// TestPhaseCode pins the flight-dump codes: 1–5 in CrashPhases order, 0
// for anything else.
func TestPhaseCode(t *testing.T) {
	want := map[string]int64{
		PhaseBeforePrepare: 1, PhaseBeforeCommit: 2, PhaseAfterDecision: 3,
		PhasePrimaryMidShip: 4, PhaseBackupMidCatchup: 5, "": 0, "mid-flight": 0,
	}
	for phase, code := range want {
		if got := PhaseCode(phase); got != code {
			t.Errorf("PhaseCode(%q) = %d, want %d", phase, got, code)
		}
	}
	phases := CrashPhases()
	phases[0] = "mutated"
	if PhaseCode(PhaseBeforePrepare) != 1 || CrashPhases()[0] != PhaseBeforePrepare {
		t.Error("CrashPhases result aliases the phase table")
	}
}

func TestCrashBuiltinsScriptPoints(t *testing.T) {
	for name, phase := range map[string]string{
		"part-crash":               PhaseBeforePrepare,
		"prep-crash":               PhaseBeforeCommit,
		"coord-crash":              PhaseAfterDecision,
		"primary-crash-mid-ship":   PhasePrimaryMidShip,
		"backup-crash-mid-catchup": PhaseBackupMidCatchup,
	} {
		sc, err := Builtin(name, 4)
		if err != nil {
			t.Fatalf("Builtin(%q): %v", name, err)
		}
		if len(sc.CrashPoints) != 1 || sc.CrashPoints[0].Phase != phase {
			t.Errorf("%s crash points = %+v, want one %s", name, sc.CrashPoints, phase)
		}
	}
	// part-crash targets a non-coordinator node when the cluster has one,
	// and stays in range on a single-node cluster.
	sc, _ := Builtin("part-crash", 1)
	if sc.CrashPoints[0].Node != 0 {
		t.Errorf("part-crash on k=1 targets node %d", sc.CrashPoints[0].Node)
	}
}

func TestNodeSetAndAllUp(t *testing.T) {
	s := NodeSet{1: true, 3: true}
	if s.Down(0) || !s.Down(1) || s.Down(2) || !s.Down(3) {
		t.Errorf("NodeSet membership wrong: %v", s)
	}
	if AllUp.Down(0) {
		t.Error("AllUp reports a node down")
	}
}
