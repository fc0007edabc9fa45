package serve

import (
	"math"
	"testing"
)

// TestAdmissionTokenBucket: the bucket starts full, spends one token per
// admit, refills at the configured rate in virtual time, and never
// exceeds the burst depth.
func TestAdmissionTokenBucket(t *testing.T) {
	adm := newAdmission(AdmissionConfig{Enabled: true, RateTPS: 100, Burst: 2}.withDefaults(100))
	if !adm.allow(0) {
		t.Fatal("first token shed")
	}
	if !adm.allow(0) {
		t.Fatal("second token shed")
	}
	if adm.allow(0) {
		t.Fatal("empty bucket must shed")
	}
	// 10ms at 100 tps refills one token.
	if !adm.allow(0.011) {
		t.Fatal("refilled token shed")
	}
	// A long idle stretch caps at Burst, not rate × elapsed.
	if !adm.allow(10) {
		t.Fatal("bucket must be full after idling")
	}
	if !adm.allow(10) {
		t.Fatal("burst depth is 2")
	}
	if adm.allow(10) {
		t.Fatal("third token at the same instant must shed: refill is capped at Burst")
	}
}

// TestAdmissionAIMD: breached windows cut the rate multiplicatively down
// to the floor; healthy windows step it back additively up to the cap.
func TestAdmissionAIMD(t *testing.T) {
	cfg := AdmissionConfig{
		Enabled:        true,
		RateTPS:        1000,
		MinRateTPS:     100,
		MaxRateTPS:     2000,
		IncreaseTPS:    50,
		DecreaseFactor: 0.5,
	}.withDefaults(1000)
	adm := newAdmission(cfg)

	adm.onWindow(false) // 1000 → 500
	adm.onWindow(false) // 500 → 250
	_, rate, min, _, downs := adm.snapshot()
	if rate != 250 || min != 250 || downs != 2 {
		t.Fatalf("after two cuts: rate=%v min=%v downs=%d", rate, min, downs)
	}
	// Cuts clamp at the floor.
	for i := 0; i < 10; i++ {
		adm.onWindow(false)
	}
	_, rate, min, _, downs = adm.snapshot()
	if rate != cfg.MinRateTPS || min != cfg.MinRateTPS {
		t.Fatalf("rate must clamp at MinRateTPS: rate=%v min=%v", rate, min)
	}
	if downs != 12 {
		t.Fatalf("downs = %d, want 12", downs)
	}
	// Healthy windows climb additively…
	adm.onWindow(true)
	_, rate, _, ups, _ := adm.snapshot()
	if rate != cfg.MinRateTPS+cfg.IncreaseTPS || ups != 1 {
		t.Fatalf("after one increase: rate=%v ups=%d", rate, ups)
	}
	// …and clamp at the ceiling without counting no-op steps.
	for i := 0; i < 100; i++ {
		adm.onWindow(true)
	}
	initial, rate, _, ups, _ := adm.snapshot()
	if rate != cfg.MaxRateTPS {
		t.Fatalf("rate must clamp at MaxRateTPS, got %v", rate)
	}
	if initial != 1000 {
		t.Fatalf("initial = %v, want 1000", initial)
	}
	wantUps := int(math.Ceil((cfg.MaxRateTPS - cfg.MinRateTPS) / cfg.IncreaseTPS))
	if ups != wantUps {
		t.Fatalf("ups = %d, want %d (steps to the cap; saturated windows don't count)", ups, wantUps)
	}
}

// TestAdmissionDefaults: the derived defaults scale from the capacity
// estimate.
func TestAdmissionDefaults(t *testing.T) {
	cfg := AdmissionConfig{Enabled: true}.withDefaults(4000)
	if cfg.RateTPS != 4000 {
		t.Errorf("RateTPS = %v, want the capacity estimate", cfg.RateTPS)
	}
	if cfg.MinRateTPS != 400 || cfg.MaxRateTPS != 8000 {
		t.Errorf("rate bounds = [%v, %v], want [400, 8000]", cfg.MinRateTPS, cfg.MaxRateTPS)
	}
	if cfg.IncreaseTPS != 200 || cfg.DecreaseFactor != 0.7 {
		t.Errorf("AIMD steps = +%v ×%v, want +200 ×0.7", cfg.IncreaseTPS, cfg.DecreaseFactor)
	}
	if cfg.Burst != 32 {
		t.Errorf("Burst = %v, want 32", cfg.Burst)
	}
}
