package drift

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/db"
	"repro/internal/workloads"
	"repro/internal/workloads/synthetic"
)

func scenarioDB(t *testing.T) *db.DB {
	t.Helper()
	d, err := synthetic.New().Load(workloads.Config{Scale: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuiltinNamesSortedAndResolvable(t *testing.T) {
	names := BuiltinNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("BuiltinNames not sorted: %v", names)
	}
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		sc, err := BuiltinScenario(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if sc.Name != n || sc.DriftFrac <= 0 || sc.DriftFrac >= 1 {
			t.Errorf("%s: scenario = %+v", n, sc)
		}
	}
	if _, err := BuiltinScenario("nope"); err == nil {
		t.Error("unknown scenario must error")
	}
}

// TestGenerateTraceDeterministic: same seed, same trace; different seed,
// different draws.
func TestGenerateTraceDeterministic(t *testing.T) {
	d := scenarioDB(t)
	sc, err := BuiltinScenario("mix-flip")
	if err != nil {
		t.Fatal(err)
	}
	tr1, at1 := sc.GenerateTrace(d, 400, 5)
	tr2, at2 := sc.GenerateTrace(d, 400, 5)
	if at1 != at2 || at1 != 200 {
		t.Errorf("driftAt = %d/%d, want 200", at1, at2)
	}
	if !reflect.DeepEqual(tr1.Mix(), tr2.Mix()) {
		t.Errorf("same-seed mixes differ: %v vs %v", tr1.Mix(), tr2.Mix())
	}
	if tr1.Len() != 400 {
		t.Errorf("len = %d", tr1.Len())
	}
	tr3, _ := sc.GenerateTrace(d, 400, 6)
	if reflect.DeepEqual(tr1.Mix(), tr3.Mix()) {
		t.Log("note: different seeds produced the same mix (possible but unlikely)")
	}
}

// TestMixFlipShiftsMix: the pre-drift window is ByGroup-heavy, the
// post-drift window ByTag-heavy, and the detector's JS distance between
// the two is far over the default mix threshold.
func TestMixFlipShiftsMix(t *testing.T) {
	d := scenarioDB(t)
	sc, err := BuiltinScenario("mix-flip")
	if err != nil {
		t.Fatal(err)
	}
	tr, at := sc.GenerateTrace(d, 1000, 9)
	pre := tr.Window(0, at)
	post := tr.Window(at, tr.Len()-at)
	preMix, postMix := pre.Mix(), post.Mix()
	if preMix["ByGroup"] < 0.8 {
		t.Errorf("pre-drift ByGroup share = %.2f, want ~0.9", preMix["ByGroup"])
	}
	if postMix["ByGroup"] > 0.2 {
		t.Errorf("post-drift ByGroup share = %.2f, want ~0.1", postMix["ByGroup"])
	}
	if js := JSDistance(preMix, postMix); js < 0.3 {
		t.Errorf("pre/post JS = %.3f, want a clear flip", js)
	}
}

// TestHotspotBirthConcentratesTags: post-drift, most ByTag traffic hits
// the born hotspot tag, so the post-drift window's class mix tilts to
// ByTag and the tag draws concentrate.
func TestHotspotBirthConcentratesTags(t *testing.T) {
	d := scenarioDB(t)
	sc, err := BuiltinScenario("hotspot-birth")
	if err != nil {
		t.Fatal(err)
	}
	tr, at := sc.GenerateTrace(d, 1000, 9)
	post := tr.Window(at, tr.Len()-at)
	if m := post.Mix(); m["ByTag"] < 0.7 {
		t.Errorf("post-drift ByTag share = %.2f, want ~0.8", m["ByTag"])
	}
	// The hotspot tag value dominates post-drift ByTag params.
	counts := map[string]int{}
	byTag := 0
	for _, txn := range post.All() {
		if txn.Class != "ByTag" {
			continue
		}
		byTag++
		counts[txn.Params["tag"].String()]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if byTag == 0 || float64(max)/float64(byTag) < 0.5 {
		t.Errorf("hottest tag carries %d/%d post-drift ByTag txns, want a majority", max, byTag)
	}
}
