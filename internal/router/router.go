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
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/pool"
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
// to partitions. It is a snapshot of the solution it was built for: New
// copies out everything routing reads, so a later change to that
// solution does not reach a built router. A new solution is served by
// a new router.
type Router struct {
	// k is the solution's partition count; a broadcast targets all k.
	k int
	// routes maps class name to its routing plan.
	routes map[string]*classRoute
}

// classRoute is the routing plan of one transaction class.
type classRoute struct {
	// param is the input parameter used for routing ("" = broadcast).
	param string
	// lookup maps a parameter value to the non-empty partition set that
	// stores the matching tuples (the §3 lookup-table approach).
	lookup map[value.Value]partition.Set
	// broadcast is set when no usable routing attribute exists.
	broadcast bool
	// writes reports whether the class modifies data (degraded routing
	// must not drop write participants).
	writes bool
	// replicaOK is set when the class reads only replicated tables, so
	// any single healthy node can serve it when its pinned partition is
	// down.
	replicaOK bool
}

// builder is what New plans against: the database, the solution, and
// the directed FK-component adjacency used to recognize attributes that
// carry the same values as a solution's partitioning attribute (a filter
// on the replicated CUSTOMER's C_TAX_ID still pins the partition of the
// customer's accounts).
type builder struct {
	d   *db.DB
	sol *partition.Solution
	fwd map[schema.ColumnRef][]schema.ColumnRef
}

// New builds a router. For each class it scans the input-parameter
// filters discovered by the SQL analysis, keeps those whose filtered
// column belongs to a partitioned table, and materializes a lookup table
// column-value → partitions from that table's rows. The lookup tables of
// different tables are built concurrently, each table's in one pass over
// its rows whatever number of routing columns it has; the classes are
// then planned one by one from the finished tables.
func New(d *db.DB, sol *partition.Solution, analyses []*sqlparse.Analysis) (*Router, error) {
	if err := sol.Validate(d.Schema()); err != nil {
		return nil, err
	}
	b := &builder{d: d, sol: sol, fwd: map[schema.ColumnRef][]schema.ColumnRef{}}
	for _, fk := range d.Schema().ForeignKeys {
		for i := range fk.Columns {
			src := schema.ColumnRef{Table: fk.Table, Column: fk.Columns[i]}
			dst := schema.ColumnRef{Table: fk.RefTable, Column: fk.RefColumns[i]}
			b.fwd[src] = append(b.fwd[src], dst)
		}
	}
	lookups, err := b.buildLookups(analyses)
	if err != nil {
		return nil, err
	}
	r := &Router{k: sol.K, routes: make(map[string]*classRoute, len(analyses))}
	for _, a := range analyses {
		r.routes[a.Proc.Name] = b.plan(a, lookups)
	}
	cRoutersBuilt.Inc()
	return r, nil
}

// lookupTable is a built routing lookup table: each value of the routing
// column mapped to the partition set holding the matching data, and the
// sum of those sets' sizes (which plan scores the table by). It is
// read-only once built, so plans of different classes share it.
type lookupTable struct {
	parts  map[value.Value]partition.Set
	fanout int
}

// plan picks the routing attribute for one class: among all (parameter,
// filtered column) candidates it keeps the lookup table whose values map
// to the fewest partitions on average — the "compatible and finer than
// the partitioning attribute" criterion of §3. A candidate no better
// than broadcasting is rejected. lookups holds a built table for every
// candidate column (see buildLookups).
func (b *builder) plan(a *sqlparse.Analysis, lookups map[schema.ColumnRef]*lookupTable) *classRoute {
	route := &classRoute{writes: len(a.WriteTables) > 0}
	// A class that reads only replicated tables can be served by any
	// single healthy node — the replica-fallback property the degraded
	// router exploits when a pinned partition is down.
	route.replicaOK = !route.writes && len(a.Tables) > 0
	for _, tbl := range a.Tables {
		ts := b.sol.Table(tbl)
		if ts == nil || !ts.Replicate {
			route.replicaOK = false
			break
		}
	}
	bestScore := float64(b.sol.K) // broadcast baseline
	for _, p := range sortedParams(a) {
		for _, col := range a.InputFilters[p] {
			lt := lookups[col]
			if len(lt.parts) == 0 {
				continue
			}
			score := float64(lt.fanout) / float64(len(lt.parts))
			if score < bestScore-1e-9 {
				bestScore = score
				route.param = p
				route.lookup = lt.parts
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
	return route
}

func sortedParams(a *sqlparse.Analysis) []string {
	params := make([]string, 0, len(a.InputFilters))
	for p := range a.InputFilters {
		params = append(params, p)
	}
	sort.Strings(params)
	return params
}

// tableBuild is one task of buildLookups: the lookup tables of one
// table's routing columns, and what places the table's rows.
type tableBuild struct {
	table *db.Table
	// nav and mapper place a partitioned table's rows (nil otherwise).
	nav    *db.Nav
	mapper partition.Mapper
	// cols[j] is the column index lts[j] is built over.
	cols []int
	lts  []*lookupTable
}

// buildLookups builds the lookup table of every column the analyses'
// input parameters filter on. It checks the columns and compiles each
// partitioned table's join path first, in the order plan visits the
// columns (analyses in order, parameters sorted), so it fails on the
// same column whatever the worker count. It then fills the tables, one
// task per table on at most GOMAXPROCS goroutines, largest table first,
// every task reading the database through one db.View. A lookup table
// depends only on the database and the solution, so the result is the
// same for any worker count.
func (b *builder) buildLookups(analyses []*sqlparse.Analysis) (map[schema.ColumnRef]*lookupTable, error) {
	lookups := map[schema.ColumnRef]*lookupTable{}
	byTable := map[string]*tableBuild{}
	var tasks []*tableBuild
	for _, a := range analyses {
		for _, p := range sortedParams(a) {
			for _, col := range a.InputFilters[p] {
				if lookups[col] != nil {
					continue
				}
				t := b.d.Table(col.Table)
				ci := t.Meta().ColumnIndex(col.Column)
				if ci < 0 {
					return nil, fmt.Errorf("router: %s has no column %s", col.Table, col.Column)
				}
				task := byTable[col.Table]
				if task == nil {
					task = &tableBuild{table: t}
					if ts := b.sol.Table(col.Table); ts != nil && !ts.Replicate {
						nav, err := b.d.Compile(ts.Path)
						if err != nil {
							return nil, err
						}
						task.nav, task.mapper = nav, ts.Mapper
					}
					byTable[col.Table] = task
					tasks = append(tasks, task)
				}
				lt := &lookupTable{}
				task.cols = append(task.cols, ci)
				task.lts = append(task.lts, lt)
				lookups[col] = lt
			}
		}
	}
	v := b.d.View()
	defer v.Close()
	slices.SortStableFunc(tasks, func(x, y *tableBuild) int {
		return cmp.Compare(v.Slots(y.table), v.Slots(x.table))
	})
	pool.ForEach(context.TODO(), runtime.GOMAXPROCS(0), len(tasks), nil,
		func(i int) { b.buildTable(v, tasks[i]) })
	return lookups, nil
}

// buildTable fills the lookup tables of one table's routing columns in
// one pass over its rows: each value of a routing column mapped to the
// set of partitions holding the matching data. A partitioned table's
// rows are placed through its solution. For a replicated or uncovered
// table it still routes when some column of the table carries the same
// values as a partitioned table's attribute (connected by FK-component
// chains): the paper's "compatible and finer" criterion — a CUSTOMER
// filter pins the partition of the customer's accounts even though
// CUSTOMER itself is replicated. The tables have no entries when neither
// applies. It reads the rows through v.
func (b *builder) buildTable(v *db.View, task *tableBuild) {
	t := task.table
	var place func(row value.Tuple) int
	if task.nav != nil {
		nav, mapper := task.nav, task.mapper
		place = func(row value.Tuple) int {
			val, ok := v.FromRow(nav, row)
			if !ok {
				return -1
			}
			return mapper.Map(val)
		}
	} else if mapper, vi, ok := b.equivalentAttribute(t.Meta()); ok {
		place = func(row value.Tuple) int { return mapper.Map(row[vi]) }
	} else {
		return
	}
	// A lookup on the primary key has one value per row: sizing its map
	// up front saves every rehash while it grows.
	for j, lt := range task.lts {
		hint := 0
		if t.Meta().IsPK([]string{t.Meta().Columns[task.cols[j]].Name}) {
			hint = v.Len(t)
		}
		lt.parts = make(map[value.Value]partition.Set, hint)
	}
	for _, row := range v.Rows(t) {
		p := place(row)
		if p < 0 {
			continue // unplaceable row: ignore for routing
		}
		for j, lt := range task.lts {
			val := row[task.cols[j]]
			if set := lt.parts[val]; !set.Has(p) {
				set.Add(p)
				lt.parts[val] = set
				lt.fanout++
			}
		}
	}
	cLookupsBuilt.Add(int64(len(task.lts)))
}

// equivalentAttribute finds a column of meta whose values coincide (via
// directed FK-component chains, in either direction) with some
// partitioned table's partitioning attribute; it returns that table's
// mapper and the column index.
func (b *builder) equivalentAttribute(meta *schema.Table) (partition.Mapper, int, bool) {
	names := make([]string, 0, len(b.sol.Tables))
	for n := range b.sol.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		us := b.sol.Tables[n]
		if us.Replicate {
			continue
		}
		x, ok := us.Attribute()
		if !ok {
			continue
		}
		for vi, colDecl := range meta.Columns {
			c := schema.ColumnRef{Table: meta.Name, Column: colDecl.Name}
			if b.valueEquivalent(c, x) {
				return us.Mapper, vi, true
			}
		}
	}
	return nil, 0, false
}

// valueEquivalent reports whether two attributes carry the same values
// tuple-for-tuple: connected by a directed chain of FK component links in
// either direction.
func (b *builder) valueEquivalent(x, y schema.ColumnRef) bool {
	return x == y || b.fwdReach(x, y) || b.fwdReach(y, x)
}

func (b *builder) fwdReach(from, to schema.ColumnRef) bool {
	seen := map[schema.ColumnRef]bool{from: true}
	queue := []schema.ColumnRef{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == to {
			return true
		}
		for _, next := range b.fwd[cur] {
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

// all returns every partition, ascending, in a slice of the caller's own.
func (r *Router) all() []int {
	out := make([]int, r.k)
	for i := range out {
		out[i] = i
	}
	return out
}
