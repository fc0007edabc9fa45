package router

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/value"
)

// TestRouteMatchesFastPath pins the unification contract: the canonical
// Route(ctx, Request) with a nil Health returns the same partition sets
// as the deprecated health-oblivious RoutePartitions fast path, for
// hits, misses, unknown classes, and broadcast classes alike.
func TestRouteMatchesFastPath(t *testing.T) {
	r, _ := custInfoSetup(t, 4)
	ctx := context.Background()
	cases := []struct {
		name   string
		class  string
		params map[string]value.Value
	}{
		{"hit", "CustInfo", map[string]value.Value{"cust_id": value.NewInt(1)}},
		{"hit-2", "CustInfo", map[string]value.Value{"cust_id": value.NewInt(2)}},
		{"miss", "CustInfo", map[string]value.Value{"cust_id": value.NewInt(99)}},
		{"no-param", "CustInfo", nil},
		{"unknown-class", "Nope", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := r.RoutePartitions(c.class, c.params)
			dec, err := r.Route(ctx, Request{Class: c.class, Params: c.params})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dec.Partitions, want) {
				t.Errorf("Route = %v, RoutePartitions = %v", dec.Partitions, want)
			}
		})
	}
}

// TestRouteMatchesRouteSafe: with an explicit health view the canonical
// entry point is RouteSafe verbatim — same decision, same error.
func TestRouteMatchesRouteSafe(t *testing.T) {
	r, _ := custInfoSetup(t, 4)
	ctx := context.Background()
	h := faults.NodeSet{0: true} // partition 0 down
	params := map[string]value.Value{"cust_id": value.NewInt(1)}

	wantDec, wantErr := r.RouteSafe("CustInfo", params, h)
	gotDec, gotErr := r.Route(ctx, Request{Class: "CustInfo", Params: params, Health: h})
	if !reflect.DeepEqual(gotDec, wantDec) || !reflect.DeepEqual(gotErr, wantErr) {
		t.Errorf("Route = (%+v, %v), RouteSafe = (%+v, %v)", gotDec, gotErr, wantDec, wantErr)
	}
}

// TestEpochRouteMatchesRouteSafe pins the EpochRouter unification the
// same way: Route(ctx, Request) is RouteSafe against the current epoch.
func TestEpochRouteMatchesRouteSafe(t *testing.T) {
	r, _ := custInfoSetup(t, 4)
	e, err := NewEpochRouter(r)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	params := map[string]value.Value{"cust_id": value.NewInt(2)}

	wantDec, wantEpoch, wantErr := e.RouteSafe("CustInfo", params, nil)
	gotDec, gotEpoch, gotErr := e.Route(ctx, Request{Class: "CustInfo", Params: params})
	if !reflect.DeepEqual(gotDec, wantDec) || gotEpoch != wantEpoch ||
		!reflect.DeepEqual(gotErr, wantErr) {
		t.Errorf("Route = (%+v, %d, %v), RouteSafe = (%+v, %d, %v)",
			gotDec, gotEpoch, gotErr, wantDec, wantEpoch, wantErr)
	}

	// The deprecated fast path stays consistent with the canonical one.
	parts, epoch := e.RoutePartitions("CustInfo", params)
	if !reflect.DeepEqual(parts, gotDec.Partitions) || epoch != gotEpoch {
		t.Errorf("RoutePartitions = (%v, %d), Route = (%v, %d)",
			parts, epoch, gotDec.Partitions, gotEpoch)
	}
}

// TestRouteAllocBudget gates Route's healthy path at 3 allocations per
// call — the returned partition slice (plus the full list on broadcast)
// — for local hits, lookup misses and unknown classes. The staleness
// check fingerprints every table on every call, so it must not allocate.
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
		if allocs > 3 {
			t.Errorf("Route(%s, %v) = %.0f allocs/op, budget is 3", req.Class, req.Params, allocs)
		}
	}
}
