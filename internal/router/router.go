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

// builder is what New plans against: the database, the solution, the
// directed FK-component adjacency used to recognize attributes that
// carry the same values as a solution's partitioning attribute (a filter
// on the replicated CUSTOMER's C_TAX_ID still pins the partition of the
// customer's accounts), and the lookup tables built so far.
type builder struct {
	d   *db.DB
	sol *partition.Solution
	fwd map[schema.ColumnRef][]schema.ColumnRef
	// v is the view every lookup table reads its rows through.
	v *db.View
	// sources holds how the rows of each table some input parameter
	// filters on are placed.
	sources map[string]*rowSource
	// lookups holds the lookup table of every column built so far.
	lookups map[schema.ColumnRef]*lookupTable
}

// New builds a router. For each class it scans the input-parameter
// filters discovered by the SQL analysis and routes on the one whose
// lookup table — column value → partitions, materialized from the
// filtered table's rows — maps a value to the fewest partitions. It
// builds only the lookup tables a plan consults (see buildLookups and
// plan), concurrently, each table's in one pass over its rows whatever
// number of routing columns it has; the classes are then planned one by
// one from the finished tables. Everything is read through one db.View.
func New(d *db.DB, sol *partition.Solution, analyses []*sqlparse.Analysis) (*Router, error) {
	if err := sol.Validate(d.Schema()); err != nil {
		return nil, err
	}
	v := d.View()
	defer v.Close()
	b := newBuilder(d, sol, v)
	cands := make([][]candidate, len(analyses))
	for i, a := range analyses {
		cands[i] = candidates(a)
	}
	if err := b.buildLookups(cands); err != nil {
		return nil, err
	}
	r := &Router{k: sol.K, routes: make(map[string]*classRoute, len(analyses))}
	for i, a := range analyses {
		r.routes[a.Proc.Name] = b.plan(a, cands[i])
	}
	cRoutersBuilt.Inc()
	return r, nil
}

// newBuilder returns a builder of sol's lookup tables over d, reading
// rows through v, with none built yet.
func newBuilder(d *db.DB, sol *partition.Solution, v *db.View) *builder {
	b := &builder{d: d, sol: sol, fwd: map[schema.ColumnRef][]schema.ColumnRef{}, v: v,
		sources: map[string]*rowSource{}, lookups: map[schema.ColumnRef]*lookupTable{}}
	for _, fk := range d.Schema().ForeignKeys {
		for i := range fk.Columns {
			src := schema.ColumnRef{Table: fk.Table, Column: fk.Columns[i]}
			dst := schema.ColumnRef{Table: fk.RefTable, Column: fk.RefColumns[i]}
			b.fwd[src] = append(b.fwd[src], dst)
		}
	}
	return b
}

// lookupTable is a built routing lookup table: each value of the routing
// column mapped to the partition set holding the matching data, and the
// sum of those sets' sizes (which plan scores the table by). It is
// read-only once built, so plans of different classes share it.
type lookupTable struct {
	parts  map[value.Value]partition.Set
	fanout int
}

// candidate is one (parameter, filtered column) pair a class may route
// on.
type candidate struct {
	param string
	col   schema.ColumnRef
}

// candidates lists a's routing candidates in the order plan visits them:
// parameters sorted, each parameter's filtered columns in analysis order.
func candidates(a *sqlparse.Analysis) []candidate {
	var out []candidate
	for _, p := range sortedParams(a) {
		for _, col := range a.InputFilters[p] {
			out = append(out, candidate{param: p, col: col})
		}
	}
	return out
}

// plan picks the routing attribute for one class: among its candidates it
// keeps the lookup table whose values map to the fewest partitions on
// average — the "compatible and finer than the partitioning attribute"
// criterion of §3. A candidate no better than broadcasting is rejected.
//
// A non-empty lookup table scores at least 1, as every partition set has
// a member, so once a floor candidate (see floor) has entries no later
// candidate can win and plan stops there. buildLookups built every
// candidate up to the first floor; when that floor has no entries, plan
// builds the next candidates, up to the next floor, before visiting them.
func (b *builder) plan(a *sqlparse.Analysis, cands []candidate) *classRoute {
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
	for i, c := range cands {
		lt := b.lookups[c.col]
		if lt == nil {
			b.fill(b.consulted(cands[i:]))
			lt = b.lookups[c.col]
		}
		if len(lt.parts) == 0 {
			continue
		}
		score := float64(lt.fanout) / float64(len(lt.parts))
		if score < bestScore-1e-9 {
			bestScore = score
			route.param = c.param
			route.lookup = lt.parts
		}
		if b.floor(c.col) {
			break
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

// rowSource is how the rows of a table some parameter filters on are
// placed: through the table's join path under the solution (nav), or by
// a column carrying a partitioned table's attribute values (attr). A
// table with neither has a nil mapper, and its lookup tables no entries.
type rowSource struct {
	table *db.Table
	// pk is the table's primary-key column when the key has one column.
	pk     string
	nav    *db.Nav
	attr   int
	mapper partition.Mapper
}

// place returns the partition of one of the table's rows, or a negative
// number when the row cannot be placed.
func (s *rowSource) place(v *db.View, row value.Tuple) int {
	if s.nav == nil {
		return s.mapper.Map(row[s.attr])
	}
	val, ok := v.FromRow(s.nav, row)
	if !ok {
		return -1
	}
	return s.mapper.Map(val)
}

// floor reports whether col's lookup table, once it has any entry,
// scores exactly 1, the lowest score there is: col is its table's
// single-column primary key, so each value is on one row, and the
// table's rows are placed, so that row maps to one partition.
func (b *builder) floor(col schema.ColumnRef) bool {
	s := b.sources[col.Table]
	return s.mapper != nil && s.pk == col.Column
}

// consulted returns the columns of cands, in order, that have no lookup
// table yet, up to and including the first floor candidate: plan
// consults no candidate after it unless its table has no entries.
func (b *builder) consulted(cands []candidate) []schema.ColumnRef {
	var cols []schema.ColumnRef
	for _, c := range cands {
		if b.lookups[c.col] == nil {
			cols = append(cols, c.col)
		}
		if b.floor(c.col) {
			break
		}
	}
	return cols
}

// tableBuild is one task of fill: the lookup tables of one table's
// routing columns.
type tableBuild struct {
	src *rowSource
	// cols[j] is the column index lts[j] is built over.
	cols []int
	lts  []*lookupTable
}

// buildLookups checks every candidate column of every class and compiles
// each partitioned table's join path, in the order plan visits the
// candidates (classes in order, then candidates), so New fails on the
// same column whatever the worker count and however far plan gets. It
// then builds, for each class, the lookup tables of its candidates up to
// and including the first floor: those plan consults unless that floor
// turns out to have no entries.
func (b *builder) buildLookups(cands [][]candidate) error {
	for _, cs := range cands {
		for _, c := range cs {
			t := b.d.Table(c.col.Table)
			if t.Meta().ColumnIndex(c.col.Column) < 0 {
				return fmt.Errorf("router: %s has no column %s", c.col.Table, c.col.Column)
			}
			if b.sources[c.col.Table] != nil {
				continue
			}
			s := &rowSource{table: t}
			if pk := t.Meta().PrimaryKey; len(pk) == 1 {
				s.pk = pk[0]
			}
			if ts := b.sol.Table(c.col.Table); ts != nil && !ts.Replicate {
				nav, err := b.d.Compile(ts.Path)
				if err != nil {
					return err
				}
				s.nav, s.mapper = nav, ts.Mapper
			} else if mapper, vi, ok := b.equivalentAttribute(t.Meta()); ok {
				s.attr, s.mapper = vi, mapper
			}
			b.sources[c.col.Table] = s
		}
	}
	var cols []schema.ColumnRef
	for _, cs := range cands {
		cols = append(cols, b.consulted(cs)...)
	}
	b.fill(cols)
	return nil
}

// fill builds the lookup tables of the columns in cols that have none
// yet: one task per table on at most GOMAXPROCS goroutines, largest
// table first. A lookup table depends only on the database and the
// solution, so the result is the same for any worker count.
func (b *builder) fill(cols []schema.ColumnRef) {
	byTable := map[string]*tableBuild{}
	var tasks []*tableBuild
	built := 0
	for _, col := range cols {
		if b.lookups[col] != nil {
			continue
		}
		task := byTable[col.Table]
		if task == nil {
			task = &tableBuild{src: b.sources[col.Table]}
			byTable[col.Table] = task
			tasks = append(tasks, task)
		}
		lt := &lookupTable{}
		task.cols = append(task.cols, task.src.table.Meta().ColumnIndex(col.Column))
		task.lts = append(task.lts, lt)
		b.lookups[col] = lt
		built++
	}
	slices.SortStableFunc(tasks, func(x, y *tableBuild) int {
		return cmp.Compare(b.v.Slots(y.src.table), b.v.Slots(x.src.table))
	})
	pool.ForEach(context.TODO(), runtime.GOMAXPROCS(0), len(tasks), nil,
		func(i int) { b.buildTable(tasks[i]) })
	cLookupsBuilt.Add(int64(built))
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
// applies. It reads the rows through the builder's view.
func (b *builder) buildTable(task *tableBuild) {
	src, v := task.src, b.v
	if src.mapper == nil {
		return
	}
	t := src.table
	// A lookup on the primary key has one value per row: sizing its map
	// up front saves every rehash while it grows.
	for j, lt := range task.lts {
		hint := 0
		if t.Meta().Columns[task.cols[j]].Name == src.pk {
			hint = v.Len(t)
		}
		lt.parts = make(map[value.Value]partition.Set, hint)
	}
	for _, row := range v.Rows(t) {
		p := src.place(v, row)
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
