package router

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/fixture"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/value"
	"repro/internal/workloads"
)

// eagerRouter is the reference the lazy build must match: it builds the
// lookup table of every candidate column of every class and plans each
// class over all of its candidates, with no early stop. visited is the
// number of distinct columns plan consults: each class's candidates up
// to the first floor with entries.
func eagerRouter(t *testing.T, d *db.DB, sol *partition.Solution, analyses []*sqlparse.Analysis) (rt *Router, visited int) {
	t.Helper()
	v := d.View()
	defer v.Close()
	b := newBuilder(d, sol, v)
	cands := make([][]candidate, len(analyses))
	var all []schema.ColumnRef
	for i, a := range analyses {
		cands[i] = candidates(a)
		for _, c := range cands[i] {
			all = append(all, c.col)
		}
	}
	// buildLookups checks and compiles every candidate; fill then builds
	// the tables it left out.
	if err := b.buildLookups(cands); err != nil {
		t.Fatal(err)
	}
	b.fill(all)
	seen := map[schema.ColumnRef]bool{}
	rt = &Router{k: sol.K, routes: map[string]*classRoute{}}
	for i, a := range analyses {
		route := &classRoute{writes: len(a.WriteTables) > 0}
		best := float64(sol.K)
		stopped := false
		for _, c := range cands[i] {
			lt := b.lookups[c.col]
			if !stopped && !seen[c.col] {
				seen[c.col] = true
				visited++
			}
			if len(lt.parts) == 0 {
				continue
			}
			stopped = stopped || b.floor(c.col)
			if score := float64(lt.fanout) / float64(len(lt.parts)); score < best-1e-9 {
				best, route.param, route.lookup = score, c.param, lt.parts
			}
		}
		route.broadcast = route.lookup == nil
		rt.routes[a.Proc.Name] = route
	}
	return rt, visited
}

// TestLazyBuildMatchesEager builds each benchmark's router, which builds
// only the lookup tables its plans consult, and the eager reference:
// every class must route on the same parameter through a lookup table
// of the same contents, and every test transaction must get the same
// decision.
func TestLazyBuildMatchesEager(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			s := solvedSetup(t, name)
			lazy := buildUnder(t, s, 2)
			eager, visited := eagerRouter(t, s.d, s.sol, s.analyses)
			if lazy.tables != int64(visited) {
				t.Errorf("built %d lookup tables, plans consulted %d columns", lazy.tables, visited)
			}
			for class, want := range eager.routes {
				got := lazy.rt.routes[class]
				if got.param != want.param || got.broadcast != want.broadcast {
					t.Errorf("%s: routes on %q (broadcast %v), eager on %q (broadcast %v)",
						class, got.param, got.broadcast, want.param, want.broadcast)
				}
				if !reflect.DeepEqual(got.lookup, want.lookup) {
					t.Errorf("%s: lookup table differs from the eager build's", class)
				}
			}
			if !reflect.DeepEqual(decisions(t, s, lazy.rt), decisions(t, s, eager)) {
				t.Error("routing decisions differ from the eager build's")
			}
		})
	}
}

// floorDB is the Figure 1 schema with one account per customer and one
// trade that references no account, so every TRADE row dangles.
func floorDB() *db.DB {
	d := db.New(fixture.CustInfoSchema())
	ca := d.Table("CUSTOMER_ACCOUNT")
	for _, r := range [][2]int64{{1, 1}, {2, 2}, {3, 3}} {
		ca.MustInsert(value.NewInt(r[0]), value.NewInt(r[1]))
	}
	d.Table("TRADE").MustInsert(value.NewInt(1), value.NewInt(99), value.NewInt(5))
	return d
}

// floorAnalysis is a class whose first candidate, TRADE.T_ID, is a floor
// (TRADE's single-column key, on a partitioned table) and whose second,
// CUSTOMER_ACCOUNT.CA_ID, is the next one; @c's candidate comes after it.
func floorAnalysis(t *testing.T, d *db.DB) *sqlparse.Analysis {
	t.Helper()
	a, err := sqlparse.Analyze(sqlparse.MustProcedure("Floors", []string{"a", "b", "c"}, `
		SELECT T_QTY FROM TRADE WHERE T_ID = @a;
		SELECT CA_C_ID FROM CUSTOMER_ACCOUNT WHERE CA_ID = @b;
		SELECT HS_QTY FROM HOLDING_SUMMARY WHERE HS_QTY = @c;
	`), d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func floorSolution() *partition.Solution {
	sol := partition.NewSolution("jecb", 4)
	sol.Set(partition.NewByPath("TRADE", fixture.TradePath(), partition.NewHash(4)))
	sol.Set(partition.NewByPath("CUSTOMER_ACCOUNT", fixture.CAPath(), partition.NewHash(4)))
	return sol
}

// TestEmptyFloorBuildsOnDemand covers a floor candidate whose table has
// no placeable row: its lookup table has no entries, so plan must build
// the next candidate, the CA_ID floor, and route on it, as the eager
// build does; the candidate after that floor is never built.
func TestEmptyFloorBuildsOnDemand(t *testing.T) {
	d, sol := floorDB(), floorSolution()
	analyses := []*sqlparse.Analysis{floorAnalysis(t, d)}
	before := cLookupsBuilt.Value()
	rt, err := New(d, sol, analyses)
	if err != nil {
		t.Fatal(err)
	}
	if built := cLookupsBuilt.Value() - before; built != 2 {
		t.Errorf("built %d lookup tables, want 2 (T_ID, then CA_ID on demand)", built)
	}
	if got := rt.RoutingParam("Floors"); got != "b" {
		t.Fatalf("routes on %q, want b", got)
	}
	eager, visited := eagerRouter(t, d, sol, analyses)
	if visited != 2 {
		t.Errorf("eager plan consulted %d columns, want 2", visited)
	}
	if !reflect.DeepEqual(rt.routes["Floors"].lookup, eager.routes["Floors"].lookup) {
		t.Error("lookup table differs from the eager build's")
	}
	for ca := int64(1); ca <= 3; ca++ {
		params := map[string]value.Value{"b": value.NewInt(ca)}
		got, want := routeParts(t, rt, "Floors", params), routeParts(t, eager, "Floors", params)
		if len(got) != 1 || !reflect.DeepEqual(got, want) {
			t.Errorf("account %d routes to %v, eager to %v", ca, got, want)
		}
	}
}

// TestBadColumnAfterFloor checks that New still checks every candidate:
// a column the table lacks, filtered after a floor plan stops at, fails
// the build with the column's error.
func TestBadColumnAfterFloor(t *testing.T) {
	d := fixture.CustInfoDB()
	a := floorAnalysis(t, d)
	a.InputFilters["z"] = []schema.ColumnRef{{Table: "TRADE", Column: "T_NOPE"}}
	_, err := New(d, floorSolution(), []*sqlparse.Analysis{a})
	if err == nil || !strings.Contains(err.Error(), "router: TRADE has no column T_NOPE") {
		t.Fatalf("New = %v, want the missing-column error", err)
	}
	rt, err := New(d, floorSolution(), []*sqlparse.Analysis{floorAnalysis(t, d)})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.RoutingParam("Floors"); got != "a" {
		t.Errorf("routes on %q, want a", got)
	}
}
