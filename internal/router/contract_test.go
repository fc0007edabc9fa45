package router

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"repro/internal/partition"
)

// contractTxns is how many test transactions each staleness case routes.
const contractTxns = 200

// routedTable returns the first partitioned table, by name, that some
// class's routing lookup derives from: a change to its placement changes
// routing.
func routedTable(t *testing.T, rt *Router) string {
	t.Helper()
	var names []string
	for name, ts := range rt.sol.Tables {
		if !ts.Replicate {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		for _, route := range rt.routes {
			if route.deps[name] {
				return name
			}
		}
	}
	t.Fatal("no class routes through a partitioned table")
	return ""
}

// TestStalenessContract pins what counts as a partition-map change for
// a router bound to a TPC-E solution. For each way of changing the
// solution, Stale(), Route's ErrStaleLookup and EpochRouter's catch-up
// must agree: a stale router refuses every route, the epoch router
// catches up to epoch 1 and decides as a router built fresh on the
// changed solution, and Refresh makes the router fresh again; a fresh
// one routes as before, stays at epoch 0, and Refresh rebuilds nothing.
func TestStalenessContract(t *testing.T) {
	s := solvedSetup(t, "tpce")
	probe, err := New(s.d, s.sol, s.analyses)
	if err != nil {
		t.Fatal(err)
	}
	victim := routedTable(t, probe)
	other := partition.NewReplicated(victim)
	cases := []struct {
		name   string
		before func(sol *partition.Solution) // applied before binding
		change func(sol *partition.Solution)
		stale  bool
	}{
		{"set-different-placement", nil, func(sol *partition.Solution) {
			sol.Set(other)
		}, true},
		{"set-identical-content", nil, func(sol *partition.Solution) {
			cp := *sol.Tables[victim]
			sol.Set(&cp)
		}, false},
		{"table-added", func(sol *partition.Solution) {
			delete(sol.Tables, victim)
		}, func(sol *partition.Solution) {
			sol.Set(s.sol.Tables[victim])
		}, true},
		{"table-deleted", nil, func(sol *partition.Solution) {
			delete(sol.Tables, victim)
		}, true},
		{"direct-write", nil, func(sol *partition.Solution) {
			sol.Tables[victim] = other
		}, true},
		{"set-on-shallow-copy", nil, func(sol *partition.Solution) {
			(&partition.Solution{K: sol.K, Tables: sol.Tables}).Set(other)
		}, true},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sol := s.solution()
			if c.before != nil {
				c.before(sol)
			}
			rt, err := New(s.d, sol, s.analyses)
			if err != nil {
				t.Fatal(err)
			}
			er, err := NewEpochRouter(rt)
			if err != nil {
				t.Fatal(err)
			}
			if rt.Stale() {
				t.Fatal("a newly built router must be fresh")
			}
			c.change(sol)
			if got := rt.Stale(); got != c.stale {
				t.Fatalf("Stale() = %v, want %v", got, c.stale)
			}
			// The reference: a router built on the changed solution.
			want, err := New(s.d, sol, s.analyses)
			if err != nil {
				t.Fatal(err)
			}
			wantEpoch := uint64(0)
			if c.stale {
				wantEpoch = 1
			}
			for i, txn := range s.test.All() {
				if i == contractTxns {
					break
				}
				req := Request{Class: txn.Class, Params: txn.Params}
				wantDec, err := want.Route(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := rt.Route(ctx, req)
				if stale := errors.Is(err, ErrStaleLookup); stale != c.stale {
					t.Fatalf("txn %d: Route err = %v, want ErrStaleLookup %v", i, err, c.stale)
				}
				if !c.stale && (err != nil || !reflect.DeepEqual(dec, wantDec)) {
					t.Fatalf("txn %d: Route = (%+v, %v), want %+v", i, dec, err, wantDec)
				}
				dec, epoch, err := er.Route(ctx, req)
				if err != nil || epoch != wantEpoch || !reflect.DeepEqual(dec, wantDec) {
					t.Fatalf("txn %d: epoch Route = (%+v, %d, %v), want (%+v, %d)",
						i, dec, epoch, err, wantDec, wantEpoch)
				}
			}
			rebuilt, err := rt.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			if !c.stale && rebuilt != nil {
				t.Errorf("Refresh of a fresh router rebuilt %v", rebuilt)
			}
			if c.stale && len(rebuilt) == 0 {
				t.Error("Refresh of a stale router rebuilt nothing")
			}
			if rt.Stale() {
				t.Error("router must be fresh after Refresh")
			}
		})
	}
}
