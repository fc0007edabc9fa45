package router

import (
	"context"
	"reflect"
	"testing"

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

// TestRouteAllocBudget gates Route's allocations per call. The healthy
// path — local hits, lookup misses and unknown classes — allocates only
// the returned partition slice. A degraded read filters the reachable
// partitions into that same slice, and a replica-fallback read returns
// its one node in it too.
func TestRouteAllocBudget(t *testing.T) {
	r, _ := custInfoSetup(t, 4)
	rep := replicaSetup(t, 4)
	ctx := context.Background()
	cust := func(id int64) map[string]value.Value {
		return map[string]value.Value{"cust_id": value.NewInt(id)}
	}
	cases := []struct {
		name   string
		r      *Router
		req    Request
		mode   Mode
		budget float64
	}{
		{"local-hit", r, Request{Class: "CustInfo", Params: cust(1)}, ModeLocal, 1},
		{"lookup-miss", r, Request{Class: "CustInfo", Params: cust(99)}, ModeBroadcast, 1},
		{"unknown-class", r, Request{Class: "Nope"}, ModeBroadcast, 1},
		{"degraded-read", r, Request{Class: "CustInfo", Params: cust(99), Health: downSet{2: true}}, ModeDegraded, 1},
		{"replica-fallback", rep, Request{Class: "CustInfo", Params: cust(1), Health: downSet{0: true}}, ModeReplica, 1},
	}
	for _, c := range cases {
		dec, err := c.r.Route(ctx, c.req)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Mode != c.mode {
			t.Fatalf("%s: mode %s, want %s", c.name, dec.Mode, c.mode)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := c.r.Route(ctx, c.req); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.budget {
			t.Errorf("%s: Route = %.0f allocs/op, budget is %.0f", c.name, allocs, c.budget)
		}
	}
}
