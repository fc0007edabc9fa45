// Package router implements the runtime side of a deployed partitioning
// (paper §3, "Finally, as with any partitioning strategy ... one needs to
// route transactions to partitions"): given a partitioning solution and
// the code analysis of each transaction class, it selects a routing
// attribute among the class's parameter-bound columns, builds a lookup
// table over the join path from that attribute to the partitioning
// attribute, and routes each invocation to a single partition — falling
// back to broadcast when no compatible routing attribute exists.
package router

import (
	"fmt"
	"sort"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

// Registry metrics (see DESIGN.md, "Metric reference"). Route counters are
// cached in package vars: Route runs once per simulated invocation.
var (
	cRoutersBuilt   = obs.Default.Counter("router.routers_built")
	cPlansBuilt     = obs.Default.Counter("router.plans_built")
	cBroadcastPlans = obs.Default.Counter("router.broadcast_plans")
	cLookupsBuilt   = obs.Default.Counter("router.lookup_tables_built")
	cLookupEntries  = obs.Default.Counter("router.lookup_entries")
	cRoutes         = obs.Default.Counter("router.routes")
)

// Router routes transaction invocations (class name + parameter values)
// to partitions under a fixed solution.
type Router struct {
	d   *db.DB
	sol *partition.Solution
	// routes maps class name to its routing plan.
	routes map[string]*classRoute
	// analyses keeps each class's code analysis so stale plans can be
	// rebuilt incrementally after the solution's partition map changes.
	analyses map[string]*sqlparse.Analysis
	// tableFP snapshots each table solution's placement fingerprint at
	// plan-build time; a divergence from the live solution marks the
	// lookup tables stale (ErrStaleLookup) until Refresh rebuilds them.
	tableFP map[string]uint64
	// fwd is the directed FK-component adjacency used to recognize
	// attributes that carry the same values as a solution's partitioning
	// attribute (a filter on the replicated CUSTOMER's C_TAX_ID still
	// pins the partition of the customer's accounts).
	fwd map[schema.ColumnRef][]schema.ColumnRef
}

// classRoute is the routing plan of one transaction class.
type classRoute struct {
	class string
	// param is the input parameter used for routing ("" = broadcast).
	param string
	// lookup maps a parameter value to the partition set that stores the
	// matching tuples (the §3 lookup-table approach).
	lookup map[value.Value][]int
	// broadcast is set when no usable routing attribute exists.
	broadcast bool
	// deps names the tables whose placement this plan's lookup derives
	// from; a placement change in any of them invalidates the plan.
	deps map[string]bool
	// writes reports whether the class modifies data (degraded routing
	// must not drop write participants).
	writes bool
	// replicaOK is set when the class reads only replicated tables, so
	// any single healthy node can serve it when its pinned partition is
	// down.
	replicaOK bool
}

// New builds a router. For each class it scans the input-parameter
// filters discovered by the SQL analysis, keeps those whose filtered
// column belongs to a partitioned table, and materializes a lookup table
// column-value → partitions from that table's rows. Each partitioned
// table's rows are placed once per build, whatever number of routing
// columns it has, and every lookup table over it reads that placement.
func New(d *db.DB, sol *partition.Solution, analyses []*sqlparse.Analysis) (*Router, error) {
	if err := sol.Validate(d.Schema()); err != nil {
		return nil, err
	}
	r := &Router{
		d: d, sol: sol,
		routes:   map[string]*classRoute{},
		analyses: map[string]*sqlparse.Analysis{},
		tableFP:  map[string]uint64{},
		fwd:      map[schema.ColumnRef][]schema.ColumnRef{},
	}
	for _, fk := range d.Schema().ForeignKeys {
		for i := range fk.Columns {
			src := schema.ColumnRef{Table: fk.Table, Column: fk.Columns[i]}
			dst := schema.ColumnRef{Table: fk.RefTable, Column: fk.RefColumns[i]}
			r.fwd[src] = append(r.fwd[src], dst)
		}
	}
	b := newBuild()
	for _, a := range analyses {
		route, err := r.plan(a, b)
		if err != nil {
			return nil, err
		}
		r.routes[a.Proc.Name] = route
		r.analyses[a.Proc.Name] = a
	}
	r.snapshotFingerprints()
	cRoutersBuilt.Inc()
	return r, nil
}

// snapshotFingerprints records each table placement's fingerprint so
// Stale can detect partition-map changes.
func (r *Router) snapshotFingerprints() {
	r.tableFP = make(map[string]uint64, len(r.sol.Tables))
	for name, ts := range r.sol.Tables {
		r.tableFP[name] = ts.Fingerprint()
	}
}

// lookupTable is a built routing lookup table: each value of the routing
// column mapped to the ascending partition set holding the matching
// data, plus the tables whose placement it derives from — the staleness
// dependencies of any plan built on it. Both maps are read-only once
// built, so plans of different classes share them.
type lookupTable struct {
	parts map[value.Value][]int
	deps  map[string]bool
}

// build is the state one New or Refresh call shares across its plans:
// the lookup tables built so far, by routing column, and the placement
// column of each partitioned table placed so far. It is dropped when the
// call returns.
type build struct {
	lookups map[schema.ColumnRef]*lookupTable
	// places holds, per partitioned table, each row slot's partition
	// under the solution, or -1 for a free slot or an unplaceable row.
	places map[string][]int32
}

func newBuild() *build {
	return &build{lookups: map[schema.ColumnRef]*lookupTable{}, places: map[string][]int32{}}
}

// plan picks the routing attribute for one class: among all (parameter,
// filtered column) candidates it builds each lookup table and keeps the
// one whose values map to the fewest partitions on average — the
// "compatible and finer than the partitioning attribute" criterion of §3.
// A candidate no better than broadcasting is rejected. Lookup tables
// already in b are reused, and new ones are added to it, so one planning
// pass builds each (table, column) once however many classes and
// parameters filter on it.
func (r *Router) plan(a *sqlparse.Analysis, b *build) (*classRoute, error) {
	route := &classRoute{class: a.Proc.Name, writes: len(a.WriteTables) > 0}
	// A class that reads only replicated tables can be served by any
	// single healthy node — the replica-fallback property the degraded
	// router exploits when a pinned partition is down.
	route.replicaOK = !route.writes && len(a.Tables) > 0
	for _, tbl := range a.Tables {
		ts := r.sol.Table(tbl)
		if ts == nil || !ts.Replicate {
			route.replicaOK = false
			break
		}
	}
	var params []string
	for p := range a.InputFilters {
		params = append(params, p)
	}
	sort.Strings(params)
	bestScore := float64(r.sol.K) // broadcast baseline
	for _, p := range params {
		for _, col := range a.InputFilters[p] {
			lt, ok := b.lookups[col]
			if !ok {
				var err error
				if lt, err = r.buildLookup(col, b); err != nil {
					return nil, err
				}
				b.lookups[col] = lt
			}
			if len(lt.parts) == 0 {
				continue
			}
			total := 0
			for _, ps := range lt.parts {
				total += len(ps)
			}
			score := float64(total) / float64(len(lt.parts))
			if score < bestScore-1e-9 {
				bestScore = score
				route.param = p
				route.lookup = lt.parts
				route.deps = lt.deps
			}
		}
	}
	if route.lookup == nil {
		route.broadcast = true
		cBroadcastPlans.Inc()
	} else {
		cLookupEntries.Add(int64(len(route.lookup)))
	}
	cPlansBuilt.Inc()
	return route, nil
}

// buildLookup maps each value of the routing column to the set of
// partitions holding the matching data, in one pass over the column's
// table. For a partitioned table it reads each row's partition from the
// table's placement column. For a replicated or uncovered table it still
// routes when some column of the table carries the same values as a
// partitioned table's attribute (connected by FK-component chains): the
// paper's "compatible and finer" criterion — a CUSTOMER filter pins the
// partition of the customer's accounts even though CUSTOMER itself is
// replicated. The table has no entries when neither applies.
func (r *Router) buildLookup(col schema.ColumnRef, b *build) (*lookupTable, error) {
	t := r.d.Table(col.Table)
	ci := t.Meta().ColumnIndex(col.Column)
	if ci < 0 {
		return nil, fmt.Errorf("router: %s has no column %s", col.Table, col.Column)
	}
	lt := &lookupTable{deps: map[string]bool{col.Table: true}}
	ts := r.sol.Table(col.Table)
	var place func(slot int, row value.Tuple) int
	if ts != nil && !ts.Replicate {
		places, err := r.placement(t, ts, b)
		if err != nil {
			return nil, err
		}
		place = func(slot int, _ value.Tuple) int {
			if slot >= len(places) {
				return -1 // inserted after the placement pass
			}
			return int(places[slot])
		}
	} else if mapper, vi, srcTable, ok := r.equivalentAttribute(t.Meta()); ok {
		lt.deps[srcTable] = true
		place = func(_ int, row value.Tuple) int {
			return mapper.Map(row[vi])
		}
	} else {
		return lt, nil
	}
	sets := map[value.Value]partition.Set{}
	members := 0
	for slot, row := range t.Rows() {
		p := place(slot, row)
		if p < 0 {
			continue // unplaceable row: ignore for routing
		}
		if set := sets[row[ci]]; !set.Has(p) {
			set.Add(p)
			sets[row[ci]] = set
			members++
		}
	}
	// One backing array holds every value's partition list; the capped
	// slices keep an append to one list from overwriting the next.
	all := make([]int, 0, members)
	lt.parts = make(map[value.Value][]int, len(sets))
	for v, set := range sets {
		lo := len(all)
		all = set.AppendTo(all)
		lt.parts[v] = all[lo:len(all):len(all)]
	}
	cLookupsBuilt.Inc()
	return lt, nil
}

// placement returns the placement column of partitioned table t under
// its table solution ts, building it on the table's first use in b: one
// navigation per live row, in slot order.
func (r *Router) placement(t *db.Table, ts *partition.TableSolution, b *build) ([]int32, error) {
	if places, ok := b.places[t.Name()]; ok {
		return places, nil
	}
	nav, err := r.d.Compile(ts.Path)
	if err != nil {
		return nil, err
	}
	places := make([]int32, t.Slots())
	for i := range places {
		places[i] = -1
	}
	for slot, row := range t.Rows() {
		if slot >= len(places) {
			break // inserted after Slots: the lookup skips it too
		}
		if v, ok := nav.FromRow(row); ok {
			places[slot] = int32(ts.Mapper.Map(v))
		}
	}
	b.places[t.Name()] = places
	return places, nil
}

// equivalentAttribute finds a column of meta whose values coincide (via
// directed FK-component chains, in either direction) with some
// partitioned table's partitioning attribute; it returns that table's
// mapper, the column index, and the partitioned table's name.
func (r *Router) equivalentAttribute(meta *schema.Table) (partition.Mapper, int, string, bool) {
	names := make([]string, 0, len(r.sol.Tables))
	for n := range r.sol.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		us := r.sol.Tables[n]
		if us.Replicate {
			continue
		}
		x, ok := us.Attribute()
		if !ok {
			continue
		}
		for vi, colDecl := range meta.Columns {
			c := schema.ColumnRef{Table: meta.Name, Column: colDecl.Name}
			if r.valueEquivalent(c, x) {
				return us.Mapper, vi, n, true
			}
		}
	}
	return nil, 0, "", false
}

// valueEquivalent reports whether two attributes carry the same values
// tuple-for-tuple: connected by a directed chain of FK component links in
// either direction.
func (r *Router) valueEquivalent(a, b schema.ColumnRef) bool {
	return a == b || r.fwdReach(a, b) || r.fwdReach(b, a)
}

func (r *Router) fwdReach(from, to schema.ColumnRef) bool {
	seen := map[schema.ColumnRef]bool{from: true}
	queue := []schema.ColumnRef{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == to {
			return true
		}
		for _, next := range r.fwd[cur] {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return false
}

// RoutingParam reports the parameter a class routes on ("" when the class
// broadcasts).
func (r *Router) RoutingParam(class string) string {
	if route, ok := r.routes[class]; ok && !route.broadcast {
		return route.param
	}
	return ""
}

func (r *Router) all() []int {
	out := make([]int, r.sol.K)
	for i := range out {
		out[i] = i
	}
	return out
}
