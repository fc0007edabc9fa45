// Package joingraph implements steps 1 and 2 of JECB's Phase 2 (paper
// §5.1–5.2): building the join graph of a transaction class from its SQL
// analysis and the schema, discovering root attributes reachable from
// every partitioned table, enumerating join trees (Definition 3), and
// splitting graphs with m-to-n relationships into subgraphs that admit
// partial solutions (§5.2 case 2).
package joingraph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	cGraphsBuilt = obs.Default.Counter("joingraph.graphs_built")
	cGraphNodes  = obs.Default.Counter("joingraph.nodes")
	cGraphHops   = obs.Default.Counter("joingraph.hops")
	cPathsEnum   = obs.Default.Counter("joingraph.paths_enumerated")
	cTreesEnum   = obs.Default.Counter("joingraph.trees_enumerated")
)

// node is a canonical key for a ColumnSet ("T(c1,c2)").
type node string

func nodeOf(cs schema.ColumnSet) node { return node(cs.String()) }

// Graph is the join graph of one transaction class: attribute sets
// connected by within-table projection hops (PK → attribute) and
// key–foreign-key hops (FK columns → referenced PK).
type Graph struct {
	sc *schema.Schema

	// Tables are the non-replicated tables the class accesses — the
	// tables a total solution must cover.
	Tables []string
	// Replicated marks accessed tables excluded from partitioning.
	Replicated map[string]bool

	nodes map[node]schema.ColumnSet
	// rootable marks nodes eligible as root attributes: candidate (WHERE)
	// attributes, primary-key columns, and foreign-key endpoints. Columns
	// that only appear in SELECT lists participate as hops (for implicit
	// join discovery, §5.1) but are not partitioning attributes.
	rootable map[node]bool
	// out is the directed hop adjacency (Definition 2's legal moves).
	out map[node][]node
	// tableEdges records, per non-replicated table, the activated FKs to
	// other non-replicated tables (used for m-to-n splitting).
	tableEdges map[string][]schema.ForeignKey
}

// Build constructs the join graph for a transaction class from its code
// analysis. replicated names the accessed tables Phase 1 decided to
// replicate; their attributes participate in the graph (roots may live in
// replicated tables, as TPC-E's C_ID does) but they impose no coverage
// requirement.
func Build(a *sqlparse.Analysis, sc *schema.Schema, replicated map[string]bool) *Graph {
	g := &Graph{
		sc:         sc,
		Replicated: map[string]bool{},
		nodes:      map[node]schema.ColumnSet{},
		rootable:   map[node]bool{},
		out:        map[node][]node{},
		tableEdges: map[string][]schema.ForeignKey{},
	}
	accessed := map[string]bool{}
	for _, t := range a.Tables {
		accessed[t] = true
		if replicated[t] {
			g.Replicated[t] = true
		} else {
			g.Tables = append(g.Tables, t)
		}
	}
	sort.Strings(g.Tables)

	// Node universe: primary keys of accessed tables, candidate (WHERE)
	// attributes, SELECT-list attributes (the paper's §5.1 heuristic for
	// capturing implicit joins and the roots they imply), and both sides
	// of activated foreign keys.
	for t := range accessed {
		pk := sc.Table(t).PKSet()
		g.addNode(pk)
		g.rootable[nodeOf(pk)] = true
		for _, col := range pk.Columns {
			single := schema.ColumnSet{Table: t, Columns: []string{col}}
			g.addNode(single)
			g.rootable[nodeOf(single)] = true
		}
	}
	for _, c := range a.CandidateColumns {
		cs := schema.ColumnSet{Table: c.Table, Columns: []string{c.Column}}
		g.addNode(cs)
		g.rootable[nodeOf(cs)] = true
	}
	for _, si := range a.Statements {
		for _, c := range si.SelectColumns {
			g.addNode(schema.ColumnSet{Table: c.Table, Columns: []string{c.Column}})
		}
	}

	// Activate foreign keys whose column pairs the code equates (explicit
	// ON/WHERE joins plus implicit parameter-flow joins, §5.1).
	joined := map[[2]schema.ColumnRef]bool{}
	for _, j := range a.EquiJoins {
		joined[[2]schema.ColumnRef{j.Left, j.Right}] = true
		joined[[2]schema.ColumnRef{j.Right, j.Left}] = true
	}
	for _, fk := range sc.ForeignKeys {
		if !accessed[fk.Table] || !accessed[fk.RefTable] {
			continue
		}
		active := true
		for i := range fk.Columns {
			l := schema.ColumnRef{Table: fk.Table, Column: fk.Columns[i]}
			r := schema.ColumnRef{Table: fk.RefTable, Column: fk.RefColumns[i]}
			if !joined[[2]schema.ColumnRef{l, r}] {
				active = false
				break
			}
		}
		if !active {
			continue
		}
		src, dst := fk.Source(), fk.Target()
		g.addNode(src)
		g.addNode(dst)
		if len(src.Columns) == 1 {
			g.rootable[nodeOf(src)] = true
		}
		if len(dst.Columns) == 1 {
			g.rootable[nodeOf(dst)] = true
		}
		g.addHop(nodeOf(src), nodeOf(dst))
		if !replicated[fk.Table] && !replicated[fk.RefTable] && fk.Table != fk.RefTable {
			g.tableEdges[fk.Table] = append(g.tableEdges[fk.Table], fk)
			g.tableEdges[fk.RefTable] = append(g.tableEdges[fk.RefTable], fk)
		}
	}

	// Within-table hops: from each table's primary key to every other
	// attribute set of the same table in the universe (Definition 2
	// condition 3 permits within-table moves only from the primary key).
	byTable := map[string][]node{}
	for n, cs := range g.nodes {
		byTable[cs.Table] = append(byTable[cs.Table], n)
	}
	for t := range accessed {
		pk := nodeOf(sc.Table(t).PKSet())
		for _, n := range byTable[t] {
			if n != pk {
				g.addHop(pk, n)
			}
		}
	}
	// Deterministic adjacency order.
	for n := range g.out {
		sort.Slice(g.out[n], func(i, j int) bool { return g.out[n][i] < g.out[n][j] })
	}
	cGraphsBuilt.Inc()
	cGraphNodes.Add(int64(len(g.nodes)))
	hops := 0
	for _, tos := range g.out {
		hops += len(tos)
	}
	cGraphHops.Add(int64(hops))
	return g
}

func (g *Graph) addNode(cs schema.ColumnSet) {
	n := nodeOf(cs)
	if _, ok := g.nodes[n]; !ok {
		g.nodes[n] = schema.ColumnSet{Table: cs.Table, Columns: append([]string(nil), cs.Columns...)}
	}
}

func (g *Graph) addHop(from, to node) {
	for _, x := range g.out[from] {
		if x == to {
			return
		}
	}
	g.out[from] = append(g.out[from], to)
}

// maxHops bounds join-path length during enumeration; the deepest path in
// the benchmarks (TPC-E CASH_TRANSACTION → C_ID) uses 6 nodes, so 12 is
// generous while still cutting pathological cycles.
const maxHops = 12

// PathsTo enumerates all simple join paths from the primary key of table
// to the given single-column root attribute, up to maxPaths (0 = no cap).
func (g *Graph) PathsTo(table string, root schema.ColumnRef, maxPaths int) []schema.JoinPath {
	rootNode := nodeOf(schema.ColumnSet{Table: root.Table, Columns: []string{root.Column}})
	if _, ok := g.nodes[rootNode]; !ok {
		return nil
	}
	start := nodeOf(g.sc.Table(table).PKSet())
	var out []schema.JoinPath
	var walk func(cur node, path []node, seen map[node]bool)
	walk = func(cur node, path []node, seen map[node]bool) {
		if maxPaths > 0 && len(out) >= maxPaths {
			return
		}
		if cur == rootNode {
			nodes := make([]schema.ColumnSet, len(path))
			for i, n := range path {
				nodes[i] = g.nodes[n]
			}
			out = append(out, schema.NewJoinPath(nodes...))
			return
		}
		if len(path) >= maxHops {
			return
		}
		for _, next := range g.out[cur] {
			if seen[next] {
				continue
			}
			seen[next] = true
			walk(next, append(path, next), seen)
			delete(seen, next)
		}
	}
	walk(start, []node{start}, map[node]bool{start: true})
	cPathsEnum.Add(int64(len(out)))
	return out
}

// reachable returns the set of nodes reachable from the primary key of
// the given table.
func (g *Graph) reachable(table string) map[node]bool {
	start := nodeOf(g.sc.Table(table).PKSet())
	seen := map[node]bool{start: true}
	stack := []node{start}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range g.out[cur] {
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return seen
}

// RootAttributes returns the single-column attributes reachable from the
// primary keys of ALL non-replicated accessed tables (§5.2 case 1),
// sorted canonically. An empty result means no total solution exists and
// the graph must be split.
func (g *Graph) RootAttributes() []schema.ColumnRef {
	if len(g.Tables) == 0 {
		return nil
	}
	var common map[node]bool
	for _, t := range g.Tables {
		r := g.reachable(t)
		if common == nil {
			common = r
			continue
		}
		for n := range common {
			if !r[n] {
				delete(common, n)
			}
		}
	}
	var out []schema.ColumnRef
	for n := range common {
		cs := g.nodes[n]
		if len(cs.Columns) == 1 && g.rootable[n] {
			out = append(out, schema.ColumnRef{Table: cs.Table, Column: cs.Columns[0]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Column < out[j].Column
	})
	return out
}

// Tree is a join tree (Definition 3): one join path per non-replicated
// table, all ending at the same root attribute.
type Tree struct {
	Root  schema.ColumnRef
	Paths map[string]schema.JoinPath
}

// Tables returns the tables the tree covers, sorted.
func (t *Tree) Tables() []string {
	out := make([]string, 0, len(t.Paths))
	for tbl := range t.Paths {
		out = append(out, tbl)
	}
	sort.Strings(out)
	return out
}

// String renders the tree root and per-table paths.
func (t *Tree) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "tree(root=%s)", t.Root)
	for _, tbl := range t.Tables() {
		fmt.Fprintf(&sb, "\n  %s: %s", tbl, t.Paths[tbl])
	}
	return sb.String()
}

// Trees enumerates join trees for the graph: for each root attribute, the
// cross product of per-table join paths, capped at maxTrees per root
// (0 = no cap). The paper notes TPC-E's TRADE alone admits >100
// join-extension solutions, so callers should cap.
func (g *Graph) Trees(maxTrees int) []*Tree {
	var out []*Tree
	for _, root := range g.RootAttributes() {
		out = append(out, g.treesForRoot(root, maxTrees)...)
	}
	return out
}

// treesForRoot enumerates join trees rooted at one attribute, up to
// maxTrees (0 = no cap).
func (g *Graph) treesForRoot(root schema.ColumnRef, maxTrees int) (trees []*Tree) {
	defer func() { cTreesEnum.Add(int64(len(trees))) }()
	perTable := make([][]schema.JoinPath, len(g.Tables))
	for i, t := range g.Tables {
		perTable[i] = g.PathsTo(t, root, maxTrees)
		if len(perTable[i]) == 0 {
			return nil
		}
	}
	var out []*Tree
	idx := make([]int, len(g.Tables))
	for {
		tree := &Tree{Root: root, Paths: map[string]schema.JoinPath{}}
		for i, t := range g.Tables {
			tree.Paths[t] = perTable[i][idx[i]]
		}
		out = append(out, tree)
		if maxTrees > 0 && len(out) >= maxTrees {
			return out
		}
		// Odometer increment over the cross product.
		d := len(idx) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < len(perTable[d]) {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			return out
		}
	}
}

// SolutionCount returns the size of the unpruned per-root search space:
// the product over tables of the number of join paths to each root,
// summed over roots. This is the quantity the paper's Example 10 reports
// as "about 2.6 million combinations" for TPC-E.
func (g *Graph) SolutionCount() int {
	total := 0
	for _, root := range g.RootAttributes() {
		prod := 1
		for _, t := range g.Tables {
			prod *= len(g.PathsTo(t, root, 0))
		}
		total += prod
	}
	return total
}
