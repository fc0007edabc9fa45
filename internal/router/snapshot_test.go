package router

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/partition"
)

// routedTable returns the first partitioned table, by name, whose
// replacement by a replicated placement changes the routing decision of
// some test transaction.
func routedTable(t *testing.T, s *solved) string {
	t.Helper()
	base, err := New(s.d, s.sol, s.analyses)
	if err != nil {
		t.Fatal(err)
	}
	want := decisions(t, s, base)
	var names []string
	for name, ts := range s.sol.Tables {
		if !ts.Replicate {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		sol := s.solution()
		sol.Set(partition.NewReplicated(name))
		rt, err := New(s.d, sol, s.analyses)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(decisions(t, s, rt), want) {
			return name
		}
	}
	t.Fatal("no partitioned table's placement changes routing")
	return ""
}

// TestRouterIsSnapshot pins that a router is a snapshot of the TPC-E
// solution it was built for. For each way of changing that solution
// after New, the router keeps routing every test transaction as before,
// without error; a router built fresh on the changed solution routes by
// the new placement, so its decisions differ exactly when the change
// moved a placement.
func TestRouterIsSnapshot(t *testing.T) {
	s := solvedSetup(t, "tpce")
	victim := routedTable(t, s)
	other := partition.NewReplicated(victim)
	cases := []struct {
		name   string
		before func(sol *partition.Solution) // applied before New
		change func(sol *partition.Solution)
		moved  bool
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
			want := decisions(t, s, rt)
			c.change(sol)
			if !reflect.DeepEqual(decisions(t, s, rt), want) {
				t.Fatal("a built router's decisions changed with its solution")
			}
			fresh, err := New(s.d, sol, s.analyses)
			if err != nil {
				t.Fatal(err)
			}
			if moved := !reflect.DeepEqual(decisions(t, s, fresh), want); moved != c.moved {
				t.Fatalf("fresh router's decisions differ from the snapshot's: %v, want %v", moved, c.moved)
			}
		})
	}
}
