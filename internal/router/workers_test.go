package router

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/schema"
)

// builtUnder is a router built with GOMAXPROCS set to procs, with the
// lookup counters' deltas over its build.
type builtUnder struct {
	rt             *Router
	tables, values int64
}

func buildUnder(t *testing.T, s *solved, procs int) builtUnder {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	tables, values := cLookupsBuilt.Value(), cLookupEntries.Value()
	rt, err := New(s.d, s.sol, s.analyses)
	if err != nil {
		t.Fatal(err)
	}
	return builtUnder{rt: rt,
		tables: cLookupsBuilt.Value() - tables, values: cLookupEntries.Value() - values}
}

// decisions routes every test transaction with every node up.
func decisions(t *testing.T, s *solved, rt *Router) []Decision {
	t.Helper()
	out := make([]Decision, 0, s.test.Len())
	for _, txn := range s.test.All() {
		dec, err := rt.Route(context.Background(), Request{Class: txn.Class, Params: txn.Params})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, dec)
	}
	return out
}

// TestWorkerCountInvariance builds the router of a TPC-C, a TPC-E, a
// SEATS and an AuctionMark solution with 1 and with 4 worker threads:
// the lookup tables are built concurrently, one task per table, but the
// plans, the routing decisions of every test transaction and the lookup
// counters must not depend on the worker count. Both builds must build
// exactly the columns the plans consult (on SEATS, AuctionMark and
// TPC-E, fewer than the candidates).
func TestWorkerCountInvariance(t *testing.T) {
	for _, name := range []string{"tpcc", "tpce", "seats", "auctionmark"} {
		t.Run(name, func(t *testing.T) {
			s := solvedSetup(t, name)
			one, four := buildUnder(t, s, 1), buildUnder(t, s, 4)
			if one.tables != four.tables || one.values != four.values {
				t.Errorf("lookup counters: 1 worker built %d tables, %d entries; 4 workers %d, %d",
					one.tables, one.values, four.tables, four.values)
			}
			if one.tables == 0 {
				t.Fatal("no lookup table built")
			}
			_, visited := eagerRouter(t, s.d, s.sol, s.analyses)
			if one.tables != int64(visited) || four.tables != int64(visited) {
				t.Errorf("built %d (1 worker) and %d (4 workers) lookup tables, plans consulted %d columns",
					one.tables, four.tables, visited)
			}
			cols := map[schema.ColumnRef]bool{}
			for _, a := range s.analyses {
				for _, c := range candidates(a) {
					cols[c.col] = true
				}
			}
			if name != "tpcc" && visited >= len(cols) {
				t.Errorf("plans consulted all %d candidate columns; want some skipped", len(cols))
			}
			if !reflect.DeepEqual(decisions(t, s, one.rt), decisions(t, s, four.rt)) {
				t.Fatal("routing decisions differ between 1 and 4 workers")
			}
		})
	}
}
