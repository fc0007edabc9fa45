package router

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/fixture"
	"repro/internal/partition"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

func custInfoSetup(t *testing.T, k int) (*Router, *partition.Solution) {
	t.Helper()
	d := fixture.CustInfoDB()
	sol := partition.NewSolution("jecb", k)
	lookup := partition.NewLookup(k, map[value.Value]int{
		value.NewInt(1): 0,
		value.NewInt(2): k - 1,
	}, nil)
	sol.Set(partition.NewByPath("TRADE", fixture.TradePath(), lookup))
	sol.Set(partition.NewByPath("HOLDING_SUMMARY", fixture.HSPath(), lookup))
	sol.Set(partition.NewByPath("CUSTOMER_ACCOUNT", fixture.CAPath(), lookup))
	a1, err := sqlparse.Analyze(fixture.CustInfoProcedure(), d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := sqlparse.Analyze(fixture.TradeUpdateProcedure(), d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(d, sol, []*sqlparse.Analysis{a1, a2})
	if err != nil {
		t.Fatal(err)
	}
	return r, sol
}

// routeParts routes one invocation with every node up and returns its
// partition set.
func routeParts(t *testing.T, r *Router, class string, params map[string]value.Value) []int {
	t.Helper()
	dec, err := r.Route(context.Background(), Request{Class: class, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	return dec.Partitions
}

func TestRouteSinglePartition(t *testing.T) {
	r, _ := custInfoSetup(t, 4)
	if got := r.RoutingParam("CustInfo"); got != "cust_id" {
		t.Errorf("routing param = %q", got)
	}
	p1 := routeParts(t, r, "CustInfo", map[string]value.Value{"cust_id": value.NewInt(1)})
	if !reflect.DeepEqual(p1, []int{0}) {
		t.Errorf("customer 1 -> %v, want [0]", p1)
	}
	p2 := routeParts(t, r, "CustInfo", map[string]value.Value{"cust_id": value.NewInt(2)})
	if !reflect.DeepEqual(p2, []int{3}) {
		t.Errorf("customer 2 -> %v, want [3]", p2)
	}
}

func TestRouteBroadcastFallbacks(t *testing.T) {
	r, _ := custInfoSetup(t, 4)
	all := []int{0, 1, 2, 3}
	// Unknown class.
	if got := routeParts(t, r, "Nope", nil); !reflect.DeepEqual(got, all) {
		t.Errorf("unknown class -> %v", got)
	}
	// Missing parameter.
	if got := routeParts(t, r, "CustInfo", nil); !reflect.DeepEqual(got, all) {
		t.Errorf("missing param -> %v", got)
	}
	// Unseen value.
	if got := routeParts(t, r, "CustInfo", map[string]value.Value{"cust_id": value.NewInt(99)}); !reflect.DeepEqual(got, all) {
		t.Errorf("unseen value -> %v", got)
	}
}

func TestRouteTradeUpdate(t *testing.T) {
	r, _ := custInfoSetup(t, 2)
	// TradeUpdate routes on cust_id too (filters CA_C_ID).
	got := routeParts(t, r, "TradeUpdate", map[string]value.Value{
		"cust_id": value.NewInt(2), "qty": value.NewInt(5),
	})
	if !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("TradeUpdate customer 2 -> %v, want [1]", got)
	}
}

func TestRouterAllReplicatedBroadcasts(t *testing.T) {
	d := fixture.CustInfoDB()
	sol := partition.NewSolution("rep", 3)
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
	if r.RoutingParam("CustInfo") != "" {
		t.Error("replicated-only solution must broadcast")
	}
	if got := routeParts(t, r, "CustInfo", map[string]value.Value{"cust_id": value.NewInt(1)}); len(got) != 3 {
		t.Errorf("route = %v", got)
	}
}

func TestRouterRejectsInvalidSolution(t *testing.T) {
	d := fixture.CustInfoDB()
	bad := partition.NewSolution("bad", 0)
	if _, err := New(d, bad, nil); err == nil {
		t.Error("invalid solution must be rejected")
	}
}

// TestRouterAgreesWithAssigner: for every customer, the partition the
// router picks must be where the customer's tuples actually live.
func TestRouterAgreesWithAssigner(t *testing.T) {
	r, sol := custInfoSetup(t, 4)
	d := fixture.CustInfoDB()
	nav, err := d.Compile(sol.Table("CUSTOMER_ACCOUNT").Path)
	if err != nil {
		t.Fatal(err)
	}
	for cust := int64(1); cust <= 2; cust++ {
		ps := routeParts(t, r, "CustInfo", map[string]value.Value{"cust_id": value.NewInt(cust)})
		if len(ps) != 1 {
			t.Fatalf("customer %d: route = %v", cust, ps)
		}
		// All of this customer's account rows must map to ps[0].
		ca := d.Table("CUSTOMER_ACCOUNT")
		rows := ca.LookupRows("CA_C_ID", value.NewInt(cust))
		v := d.View()
		for _, row := range rows {
			ev, ok := v.FromRow(nav, row)
			if !ok {
				t.Fatalf("customer %d: account %v does not place", cust, row)
			}
			if got := sol.Table("CUSTOMER_ACCOUNT").Mapper.Map(ev); got != ps[0] {
				t.Errorf("customer %d: tuple at %d, routed to %d", cust, got, ps[0])
			}
		}
		v.Close()
	}
}
