package router

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/value"
)

// TestRouteMatchesFastPath pins the health-oblivious contract: Route
// with a nil Health returns the lookup table's partition set on a hit
// and broadcasts on misses, missing parameters and unknown classes.
func TestRouteMatchesFastPath(t *testing.T) {
	r, _ := custInfoSetup(t, 4)
	all := []int{0, 1, 2, 3}
	cases := []struct {
		name   string
		class  string
		params map[string]value.Value
		want   []int
	}{
		{"hit", "CustInfo", map[string]value.Value{"cust_id": value.NewInt(1)}, []int{0}},
		{"hit-2", "CustInfo", map[string]value.Value{"cust_id": value.NewInt(2)}, []int{3}},
		{"miss", "CustInfo", map[string]value.Value{"cust_id": value.NewInt(99)}, all},
		{"no-param", "CustInfo", nil, all},
		{"unknown-class", "Nope", nil, all},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := routeParts(t, r, c.class, c.params); !reflect.DeepEqual(got, c.want) {
				t.Errorf("Route = %v, want %v", got, c.want)
			}
		})
	}
}

// TestRouteMatchesRouteSafe: with an explicit health view the canonical
// entry point is the failure-aware core verbatim — same decision, same
// error.
func TestRouteMatchesRouteSafe(t *testing.T) {
	r, _ := custInfoSetup(t, 4)
	ctx := context.Background()
	h := faults.NodeSet{0: true} // partition 0 down
	params := map[string]value.Value{"cust_id": value.NewInt(1)}

	wantDec, wantErr := r.routeSafe("CustInfo", params, h, nil, 0)
	gotDec, gotErr := r.Route(ctx, Request{Class: "CustInfo", Params: params, Health: h})
	if !reflect.DeepEqual(gotDec, wantDec) || !reflect.DeepEqual(gotErr, wantErr) {
		t.Errorf("Route = (%+v, %v), routeSafe = (%+v, %v)", gotDec, gotErr, wantDec, wantErr)
	}
}

// TestEpochRouteMatchesRouteSafe pins the EpochRouter unification the
// same way: Route(ctx, Request) is the failure-aware core against the
// current epoch, and agrees with the epoch's own router.
func TestEpochRouteMatchesRouteSafe(t *testing.T) {
	r, _ := custInfoSetup(t, 4)
	e, err := NewEpochRouter(r)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	params := map[string]value.Value{"cust_id": value.NewInt(2)}

	wantDec, wantEpoch, wantErr := e.routeSafe("CustInfo", params, nil, nil, 0)
	gotDec, gotEpoch, gotErr := e.Route(ctx, Request{Class: "CustInfo", Params: params})
	if !reflect.DeepEqual(gotDec, wantDec) || gotEpoch != wantEpoch ||
		!reflect.DeepEqual(gotErr, wantErr) {
		t.Errorf("Route = (%+v, %d, %v), routeSafe = (%+v, %d, %v)",
			gotDec, gotEpoch, gotErr, wantDec, wantEpoch, wantErr)
	}

	// The current epoch's router makes the same decision.
	cur, epoch := e.Current()
	parts := routeParts(t, cur, "CustInfo", params)
	if !reflect.DeepEqual(parts, gotDec.Partitions) || epoch != gotEpoch {
		t.Errorf("current router = (%v, %d), Route = (%v, %d)",
			parts, epoch, gotDec.Partitions, gotEpoch)
	}
}

// TestRouteAllocBudget gates Route's healthy path at 1 allocation per
// call — the returned partition slice — for local hits, lookup misses
// and unknown classes. The staleness check compares each table's
// placement pointer with the one bound at build time, fingerprinting
// only a replaced placement, so it must not allocate.
func TestRouteAllocBudget(t *testing.T) {
	r, _ := custInfoSetup(t, 4)
	ctx := context.Background()
	reqs := []Request{
		{Class: "CustInfo", Params: map[string]value.Value{"cust_id": value.NewInt(1)}},
		{Class: "CustInfo", Params: map[string]value.Value{"cust_id": value.NewInt(99)}},
		{Class: "Nope"},
	}
	for _, req := range reqs {
		if _, err := r.Route(ctx, req); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := r.Route(ctx, req); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("Route(%s, %v) = %.0f allocs/op, budget is 1", req.Class, req.Params, allocs)
		}
	}
}
