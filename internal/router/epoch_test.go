package router

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fixture"
	"repro/internal/partition"
	"repro/internal/value"
)

// epochSetup builds two routers over the same database: the custInfoSetup
// solution (customer 1 -> partition 0) and a "flipped" solution that maps
// customer 1 to the last partition instead.
func epochSetup(t *testing.T, k int) (*EpochRouter, *Router, *Router) {
	t.Helper()
	rtA, _ := custInfoSetup(t, k)

	d := fixture.CustInfoDB()
	solB := partition.NewSolution("flipped", k)
	lookup := partition.NewLookup(k, map[value.Value]int{
		value.NewInt(1): k - 1,
		value.NewInt(2): 0,
	}, nil)
	solB.Set(partition.NewByPath("TRADE", fixture.TradePath(), lookup))
	solB.Set(partition.NewByPath("HOLDING_SUMMARY", fixture.HSPath(), lookup))
	solB.Set(partition.NewByPath("CUSTOMER_ACCOUNT", fixture.CAPath(), lookup))
	rtB, err := New(d, solB, analysesOf(rtA))
	if err != nil {
		t.Fatal(err)
	}
	er, err := NewEpochRouter(rtA)
	if err != nil {
		t.Fatal(err)
	}
	return er, rtA, rtB
}

func TestEpochSwapChangesRouting(t *testing.T) {
	er, _, rtB := epochSetup(t, 4)
	params := map[string]value.Value{"cust_id": value.NewInt(1)}

	dec, ep, err := er.Route(context.Background(), Request{Class: "CustInfo", Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if ep != 0 || !reflect.DeepEqual(dec.Partitions, []int{0}) {
		t.Fatalf("epoch 0 route = %v @%d, want [0] @0", dec.Partitions, ep)
	}

	next, err := er.Swap(rtB)
	if err != nil {
		t.Fatal(err)
	}
	if next != 1 || er.Epoch() != 1 {
		t.Fatalf("swap -> epoch %d (Epoch()=%d), want 1", next, er.Epoch())
	}
	dec, ep, err = er.Route(context.Background(), Request{Class: "CustInfo", Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if ep != 1 || !reflect.DeepEqual(dec.Partitions, []int{3}) {
		t.Fatalf("epoch 1 route = %v @%d, want [3] @1", dec.Partitions, ep)
	}
	if er.Solution().Name != "flipped" {
		t.Errorf("Solution() = %q, want flipped", er.Solution().Name)
	}
}

func TestEpochSwapRejectsMismatchedK(t *testing.T) {
	er, _, _ := epochSetup(t, 4)
	rtOther, _ := custInfoSetup(t, 2)
	if _, err := er.Swap(rtOther); err == nil {
		t.Fatal("swap across cluster sizes must be rejected")
	}
	if _, err := er.Swap(nil); err == nil {
		t.Fatal("swap to nil must be rejected")
	}
	if er.Epoch() != 0 {
		t.Errorf("failed swaps must not advance the epoch (epoch=%d)", er.Epoch())
	}
}

func TestEpochSwapSolution(t *testing.T) {
	er, _, rtB := epochSetup(t, 4)
	ep, err := er.SwapSolution(rtB.sol)
	if err != nil {
		t.Fatal(err)
	}
	if ep != 1 {
		t.Fatalf("SwapSolution -> epoch %d, want 1", ep)
	}
	dec, _, err := er.Route(context.Background(), Request{Class: "CustInfo", Params: map[string]value.Value{"cust_id": value.NewInt(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Partitions, []int{0}) {
		t.Errorf("flipped customer 2 -> %v, want [0]", dec.Partitions)
	}
	// A solution for a different cluster size must not install.
	if _, err := er.SwapSolution(partition.NewSolution("other-k", 2)); err == nil {
		t.Fatal("SwapSolution across cluster sizes must fail")
	}
}

// TestEpochCatchUpResolvesStale: mutating the deployed solution in place
// used to surface ErrStaleLookup to every caller until someone called
// Refresh. Under the epoch router the first stale routing call rebuilds a
// fresh epoch and succeeds.
func TestEpochCatchUpResolvesStale(t *testing.T) {
	rtA, sol := custInfoSetup(t, 4)
	er, err := NewEpochRouter(rtA)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the placement underneath the router.
	sol.Set(partition.NewReplicated("TRADE"))
	if !rtA.Stale() {
		t.Fatal("placement change must mark the inner router stale")
	}
	dec, ep, err := er.Route(context.Background(), Request{Class: "CustInfo", Params: map[string]value.Value{"cust_id": value.NewInt(1)}})
	if err != nil {
		t.Fatalf("catch-up must resolve staleness, got %v", err)
	}
	if ep != 1 {
		t.Fatalf("catch-up must install a new epoch, got %d", ep)
	}
	// CUSTOMER_ACCOUNT is still partitioned, so the rebuilt plan routes.
	if !reflect.DeepEqual(dec.Partitions, []int{0}) || dec.Mode != ModeLocal {
		t.Errorf("post-catch-up route = %v (%s), want [0] (local)", dec.Partitions, dec.Mode)
	}
	// Subsequent calls serve from the caught-up epoch without rebuilding.
	_, ep2, err := er.Route(context.Background(), Request{Class: "CustInfo", Params: map[string]value.Value{"cust_id": value.NewInt(1)}})
	if err != nil || ep2 != 1 {
		t.Fatalf("second call: epoch %d err %v, want epoch 1", ep2, err)
	}
}

// TestEpochCatchUpImpossible: when the mutated solution no longer
// validates, catch-up cannot rebuild and the error wraps ErrStaleLookup.
func TestEpochCatchUpImpossible(t *testing.T) {
	rtA, sol := custInfoSetup(t, 4)
	er, err := NewEpochRouter(rtA)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt TRADE's placement: the fingerprint diverges (stale) and the
	// mapper's k=3 no longer matches the solution's k=4 (invalid), so the
	// rebuild inside catch-up cannot succeed.
	sol.Set(partition.NewByPath("TRADE", fixture.TradePath(), partition.NewHash(3)))
	_, _, err = er.Route(context.Background(), Request{Class: "CustInfo", Params: map[string]value.Value{"cust_id": value.NewInt(1)}})
	if !errors.Is(err, ErrStaleLookup) {
		t.Fatalf("impossible catch-up: err = %v, want ErrStaleLookup", err)
	}
}

// TestEpochSwapNoTornDecisions hammers Route from many goroutines
// while the main goroutine swaps between two solutions. Every decision
// must be exactly one epoch's answer — [0] under the original solution,
// [3] under the flipped one — never a mix, and the reported epoch parity
// must match the observed partition. Run with -race.
func TestEpochSwapNoTornDecisions(t *testing.T) {
	er, rtA, rtB := epochSetup(t, 4)
	params := map[string]value.Value{"cust_id": value.NewInt(1)}

	const (
		readers = 8
		swaps   = 200
	)
	var (
		wg   sync.WaitGroup
		stop atomic.Bool
		bad  atomic.Int64
	)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				dec, ep, err := er.Route(context.Background(), Request{Class: "CustInfo", Params: params})
				if err != nil {
					bad.Add(1)
					return
				}
				if len(dec.Partitions) != 1 {
					bad.Add(1)
					return
				}
				want := 0
				if ep%2 == 1 { // odd epochs serve the flipped solution
					want = 3
				}
				if dec.Partitions[0] != want {
					bad.Add(1)
					return
				}
			}
		}()
	}
	for i := 0; i < swaps; i++ {
		next := rtB
		if i%2 == 1 {
			next = rtA
		}
		if _, err := er.Swap(next); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d torn/failed decisions under concurrent swaps", n)
	}
	if er.Epoch() != swaps {
		t.Errorf("epoch = %d, want %d", er.Epoch(), swaps)
	}
}
