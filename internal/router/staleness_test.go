package router

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/fixture"
	"repro/internal/partition"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

// replicaSetup builds a router whose CustInfo class reads only replicated
// tables, so the replica fallback is eligible when its pinned partition
// goes down.
func replicaSetup(t *testing.T, k int) *Router {
	t.Helper()
	d := fixture.CustInfoDB()
	sol := partition.NewSolution("rep", k)
	for _, tbl := range []string{"TRADE", "HOLDING_SUMMARY", "CUSTOMER_ACCOUNT"} {
		sol.Set(partition.NewReplicated(tbl))
	}
	a, err := sqlparse.Analyze(fixture.CustInfoProcedure(), d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(d, sol, []*sqlparse.Analysis{a})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRouteReplicaBoundedStaleness(t *testing.T) {
	r := replicaSetup(t, 4)
	ctx := context.Background()
	params := map[string]value.Value{"cust_id": value.NewInt(1)}

	// With a lag view, the fallback picks the healthy replica with the
	// smallest in-budget lag — not merely the first healthy node.
	dec, err := r.Route(ctx, Request{
		Class: "CustInfo", Params: params, Health: downSet{0: true},
		Replicas: LagMap{1: 40, 2: 7, 3: 7}, StalenessBudget: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Mode != ModeReplica || !reflect.DeepEqual(dec.Partitions, []int{2}) {
		t.Errorf("bounded replica = %v (%s), want [2] (replica): smallest lag, ties to lowest id", dec.Partitions, dec.Mode)
	}

	// Zero budget admits only fully caught-up replicas.
	dec, err = r.Route(ctx, Request{
		Class: "CustInfo", Params: params, Health: downSet{0: true},
		Replicas: LagMap{1: 0, 2: 5, 3: 0}, StalenessBudget: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Partitions, []int{1}) {
		t.Errorf("zero-budget replica = %v, want [1]", dec.Partitions)
	}

	// A node with unknown lag never serves, even when healthy: every
	// candidate is either over budget or unknown, so the route fails
	// rather than handing the read to an arbitrarily stale copy.
	_, err = r.Route(ctx, Request{
		Class: "CustInfo", Params: params, Health: downSet{0: true},
		Replicas: LagMap{3: 100}, StalenessBudget: 10,
	})
	if !errors.Is(err, ErrPartitionDown) {
		t.Fatalf("all replicas stale/unknown: err = %v, want ErrPartitionDown", err)
	}

	// A nil view keeps the historical rule: first healthy node.
	dec, err = r.Route(ctx, Request{
		Class: "CustInfo", Params: params, Health: downSet{0: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Partitions, []int{1}) {
		t.Errorf("nil-view replica = %v, want [1]", dec.Partitions)
	}
}

// TestEpochSwapRefreshUnderOverlay drives the three failure-awareness
// mechanisms together: an in-place placement mutation (Stale/Refresh and
// the EpochRouter's catch-up), an explicit epoch swap, and routing under
// a faults.Overlay health view with a bounded-staleness replica pick.
func TestEpochSwapRefreshUnderOverlay(t *testing.T) {
	r, sol := custInfoSetup(t, 4)
	er, err := NewEpochRouter(r)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	params := map[string]value.Value{"cust_id": value.NewInt(1)}
	// Node 1 is down via an overlay layer; CustInfo(1) pins partition 0,
	// so the decision is unaffected.
	health := faults.Overlay(faults.AllUp, nil, faults.NodeSet{1: true})

	dec, epoch, err := er.Route(ctx, Request{Class: "CustInfo", Params: params, Health: health})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 0 || !reflect.DeepEqual(dec.Partitions, []int{0}) || dec.Mode != ModeLocal {
		t.Fatalf("baseline = %v (%s) @ epoch %d, want [0] (local) @ 0", dec.Partitions, dec.Mode, epoch)
	}

	// Mutate TRADE's placement in place. The plain router refuses with
	// ErrStaleLookup...
	sol.Set(partition.NewReplicated("TRADE"))
	if !r.Stale() {
		t.Fatal("placement change must mark the router stale")
	}
	if _, err := r.Route(context.Background(), Request{Class: "CustInfo", Params: params, Health: health}); !errors.Is(err, ErrStaleLookup) {
		t.Fatalf("stale plain route: err = %v, want ErrStaleLookup", err)
	}
	// ...but the epoch router catches up to a fresh epoch and serves the
	// same request under the same overlay.
	dec, epoch, err = er.Route(ctx, Request{Class: "CustInfo", Params: params, Health: health})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || !reflect.DeepEqual(dec.Partitions, []int{0}) || dec.Mode != ModeLocal {
		t.Fatalf("post-catch-up = %v (%s) @ epoch %d, want [0] (local) @ 1", dec.Partitions, dec.Mode, epoch)
	}
	if fresh, _ := er.Current(); fresh.Stale() {
		t.Fatal("caught-up epoch must not be stale")
	}

	// The original router heals independently via Refresh.
	rebuilt, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) == 0 {
		t.Fatal("Refresh must rebuild the classes depending on TRADE")
	}
	if r.Stale() {
		t.Fatal("router must be fresh after Refresh")
	}

	// Explicitly swap in a fully-replicated solution, then stack a second
	// overlay layer taking the pinned partition down: the replica fallback
	// must fire and honor the lag view across the swap.
	if _, err := er.Swap(replicaSetup(t, 4)); err != nil {
		t.Fatal(err)
	}
	down01 := faults.Overlay(health, faults.NodeSet{0: true})
	dec, epoch, err = er.Route(ctx, Request{
		Class: "CustInfo", Params: params, Health: down01,
		Replicas: LagMap{2: 3, 3: 50}, StalenessBudget: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 || dec.Mode != ModeReplica || !reflect.DeepEqual(dec.Partitions, []int{2}) {
		t.Fatalf("post-swap replica = %v (%s) @ epoch %d, want [2] (replica) @ 2", dec.Partitions, dec.Mode, epoch)
	}
}
