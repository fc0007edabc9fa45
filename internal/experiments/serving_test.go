package experiments

import "testing"

// TestServingOverloadProtection pins the overload-protection bars on the
// fault-free cells: at 2× offered load, admission-on holds the executed
// p999 within 5× of the 1× baseline and the goodput at ≥80% of the
// analytic capacity, while admission-off collapses below half the
// protected goodput.
func TestServingOverloadProtection(t *testing.T) {
	rows, err := Serving("synthetic", []string{"none"}, []float64{1, 2}, 4, 200, 1500, 2.0, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	cell := func(lf float64, admission bool) ServingRow {
		for _, r := range rows {
			if r.LoadFactor == lf && r.Admission == admission {
				return r
			}
		}
		t.Fatalf("missing serving cell %gx admission=%v", lf, admission)
		return ServingRow{}
	}
	base := cell(1, true).Result
	prot := cell(2, true).Result
	coll := cell(2, false).Result
	t.Logf("1x %s\n2x %s\n2x off %s", base, prot, coll)
	if prot.LatencyP999 > 5*base.LatencyP999 {
		t.Errorf("protected 2x p999 %.4fs exceeds 5x of 1x baseline %.4fs",
			prot.LatencyP999, base.LatencyP999)
	}
	if prot.GoodputTPS < 0.8*prot.CapacityTPS {
		t.Errorf("protected 2x goodput %.0f below 80%% of capacity %.0f",
			prot.GoodputTPS, prot.CapacityTPS)
	}
	if coll.GoodputTPS > prot.GoodputTPS/2 {
		t.Errorf("unprotected 2x goodput %.0f did not collapse below half the protected %.0f",
			coll.GoodputTPS, prot.GoodputTPS)
	}
}
