package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/graphpart"
	"repro/internal/joingraph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/value"
)

// ClassSolution is one candidate partitioning for a transaction class: a
// join tree plus (when the tree is not mapping independent) an explicit
// mapping function found by the statistics-based fallback.
type ClassSolution struct {
	Tree *joingraph.Tree
	// MappingIndependent marks Definition 7 solutions, whose quality does
	// not depend on the mapping function.
	MappingIndependent bool
	// Mapper is non-nil for statistics-based solutions (§5.3).
	Mapper partition.Mapper
	// Cost is the class-local cost (0 for mapping-independent solutions).
	Cost float64
}

// Root returns the solution's partitioning attribute.
func (cs *ClassSolution) Root() schema.ColumnRef { return cs.Tree.Root }

// ClassResult is Phase 2's outcome for one transaction class — one row of
// the paper's Table 3.
type ClassResult struct {
	// Mix is the class's fraction of the training workload.
	Mix float64
	// ReadOnly marks classes touching no partitioned table.
	ReadOnly bool
	// NonPartitionable marks classes with neither mapping-independent
	// solutions nor a meaningful statistics-based mapping.
	NonPartitionable bool
	Total            []*ClassSolution
	Partial          []*ClassSolution
	// TreeSpace is the unpruned number of join trees for the class
	// (the per-class contribution to Example 10's search-space count).
	TreeSpace int
}

// phase2 finds total and partial solutions for every transaction class
// (§5). Classes are independent — each works off its own stream, a
// read-only database, and a class-derived RNG seed — so they are solved
// on a pool of Options.Parallelism workers. Results land in per-class
// slots indexed by the sorted class order and are folded back
// sequentially, so the output (and every metric fold) is identical for
// any worker count.
//
// Each class gets its own child span jecb/phase2/<class> when ctx carries
// a trace; spans are opened in sorted class order before dispatch (stable
// child order) and closed by whichever worker finishes the class, so a
// span's duration includes any time the class waited in the queue.
func (p *Partitioner) phase2(ctx context.Context, pre *preprocessed) (map[string]*ClassResult, error) {
	// Deterministic class order: dispatch order, result-slot indexing and
	// span-children order all follow it.
	classNames := make([]string, 0, len(pre.Streams))
	for class := range pre.Streams {
		classNames = append(classNames, class)
	}
	sort.Strings(classNames)

	workers := p.opts.parallelism()
	gPhase2Workers.Set(float64(workers))
	spans := make([]*obs.Span, len(classNames))
	for i, class := range classNames {
		_, spans[i] = obs.StartSpan(ctx, "jecb/phase2/"+class)
	}
	results := make([]*ClassResult, len(classNames))
	errs := make([]error, len(classNames))
	poolErr := pool.ForEach(ctx, workers, len(classNames), gPhase2Queue, func(i int) {
		class := classNames[i]
		results[i], errs[i] = p.solveClass(ctx, pre, class, pre.Streams[class])
		spans[i].End()
	})
	if poolErr != nil {
		// Cancelled: close the spans of classes the pool never dispatched
		// (both slots still zero) and surface the context error itself, so
		// callers see the same error whatever the workers got through.
		for i := range spans {
			if results[i] == nil && errs[i] == nil {
				spans[i].End()
			}
		}
		return nil, fmt.Errorf("core: phase 2: %w", poolErr)
	}

	out := make(map[string]*ClassResult, len(pre.Streams))
	for i, class := range classNames {
		if errs[i] != nil {
			return nil, fmt.Errorf("core: phase 2: class %s: %w", class, errs[i])
		}
		res := results[i]
		cClassesSolved.Inc()
		if res.ReadOnly {
			cClassesRO.Inc()
		}
		if res.NonPartitionable {
			cClassesNP.Inc()
		}
		cTotalSols.Add(int64(len(res.Total)))
		cPartialSols.Add(int64(len(res.Partial)))
		out[class] = res
	}
	return out, nil
}

func (p *Partitioner) solveClass(ctx context.Context, pre *preprocessed, class string, stream resolvedStream) (*ClassResult, error) {
	res := &ClassResult{Mix: pre.Mix[class]}
	a := pre.Analyses[class]
	g := joingraph.Build(a, p.in.DB.Schema(), pre.Replicated)
	if len(g.Tables) == 0 {
		res.ReadOnly = true
		return res, nil
	}

	trees := g.Trees(maxTreesPerRoot)
	res.TreeSpace = g.SolutionCount()
	if p.opts.IntraTableOnly {
		trees = filterIntraTable(trees)
	}

	if len(trees) == 0 {
		// §5.2 case 2: no root attributes — split the graph and harvest
		// partial solutions from the subgraphs.
		if err := p.addPartialsFromSplit(ctx, res, g, stream); err != nil {
			return nil, err
		}
		if len(res.Partial) == 0 {
			res.NonPartitionable = true
		}
		return res, nil
	}

	// Keep mapping-independent trees, then drop coarser compatible ones
	// (Definition 9 / Property 1: keep the finest). Trees that are
	// single-valued for all but a small fraction of transactions — TPC-C
	// with its ~10% remote-warehouse NewOrders — still make the lowest-
	// cost "total solutions" of §5 even though no tree is exactly mapping
	// independent; miTolerance governs how much residue is acceptable.
	fracs := make([]float64, len(trees))
	bestFrac := 0.0
	for i, t := range trees {
		f, err := p.singleValueFraction(ctx, t, stream, nil)
		if err != nil {
			return nil, err
		}
		fracs[i] = f
		if f > bestFrac {
			bestFrac = f
		}
	}
	if bestFrac >= 1-miTolerance {
		var keep []*joingraph.Tree
		for i, t := range trees {
			if fracs[i] >= bestFrac-1e-9 {
				keep = append(keep, t)
			}
		}
		if !p.opts.KeepAllTrees {
			keep = dropCoarserTrees(keep)
		}
		exact := bestFrac == 1
		for _, t := range keep {
			res.Total = append(res.Total, &ClassSolution{
				Tree: t, MappingIndependent: exact, Cost: 1 - bestFrac,
			})
		}
		// Partial solutions from the sub-join trees of each total
		// solution (§5.3 end).
		for _, t := range keep {
			if err := p.addPartialsFromSubtrees(ctx, res, t, stream); err != nil {
				return nil, err
			}
		}
		sortSolutions(res.Total)
		sortSolutions(res.Partial)
		return res, nil
	}

	// No mapping-independent total solution: statistics-based fallback
	// (§5.3) — build the best mapping function per tree by min-cut over
	// co-accessed root values, and keep it only if it beats both hash and
	// range mappings on unseen data.
	if !p.opts.DisableMinCutFallback {
		cMinCutFall.Inc()
		best, err := p.minCutSolution(ctx, pre, class, trees, stream)
		if err != nil {
			return nil, err
		}
		if best != nil {
			res.Total = append(res.Total, best)
			return res, nil
		}
	}
	res.NonPartitionable = true
	return res, nil
}

// singleValueFraction measures how close a tree is to Definition 7's
// mapping independence: the fraction of the stream's transactions that
// map, through the tree's join paths, to at most one root value. A
// fraction of 1 is exact mapping independence. When tables is non-nil the
// check is restricted to that subset (for partial solutions);
// transactions touching none of the covered tables do not constrain the
// result. Transactions with unmappable tuples count as multi-valued.
// Each access navigates from the row phase 1 resolved it to. The scan
// shards the stream into contiguous ranges counted concurrently over one
// set of compiled join paths; the per-shard counts fold by integer
// addition, so the fraction is identical for any worker count.
func (p *Partitioner) singleValueFraction(ctx context.Context, tree *joingraph.Tree, stream resolvedStream, tables map[string]bool) (float64, error) {
	if stream.Len() == 0 {
		return 1, nil
	}
	navs, err := p.compileTree(tree, tables)
	if err != nil {
		return 0, err
	}
	workers := p.opts.parallelism()
	counts := make([]int, workers)
	_, shardErr := pool.Shards(ctx, workers, stream.Len(), func(shard, lo, hi int) {
		single := 0
		for i := lo; i < hi; i++ {
			var first value.Value
			seen, multi := false, false
			tables := stream.txnTables(i)
			for a, code := range stream.txnCodes(i) {
				tn := navs[tables[a]]
				if tn.nav == nil {
					continue
				}
				v, ok := stream.nav(tn, code)
				if !ok {
					multi = true
					break
				}
				if !seen {
					first, seen = v, true
				} else if v != first {
					multi = true
					break
				}
			}
			if !multi {
				single++
			}
		}
		counts[shard] = single
	})
	if shardErr != nil {
		return 0, shardErr
	}
	single := 0
	for _, c := range counts {
		single += c
	}
	return float64(single) / float64(stream.Len()), nil
}

// mappingIndependent is the exact Definition 7 predicate.
func (p *Partitioner) mappingIndependent(ctx context.Context, tree *joingraph.Tree, stream resolvedStream, tables map[string]bool) (bool, error) {
	f, err := p.singleValueFraction(ctx, tree, stream, tables)
	return f == 1, err
}

// rootValueSets maps each transaction of the stream to the set of root
// values its covered accesses reach through navs, a tree's compiled join
// paths (used by the min-cut fallback). Each per-transaction set is
// sorted by value.Compare (ties broken by encoded form): the sets come
// out of a Go map, and leaving them in iteration order used to leak map
// randomization into the min-cut graph's vertex indexing — the same run
// could cut a different (equal-weight) edge set and pick a different
// mapping. Sorting at this boundary is what makes the whole fallback
// byte-stable across runs and worker counts.
//
// Transactions shard across workers into contiguous ranges; each shard
// writes only its own out[i] slots.
func (p *Partitioner) rootValueSets(ctx context.Context, navs []tableNav, stream resolvedStream) ([][]value.Value, error) {
	out := make([][]value.Value, stream.Len())
	_, shardErr := pool.Shards(ctx, p.opts.parallelism(), stream.Len(), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			set := map[value.Value]bool{}
			tables := stream.txnTables(i)
			for a, code := range stream.txnCodes(i) {
				tn := navs[tables[a]]
				if tn.nav == nil {
					continue
				}
				if v, ok := stream.nav(tn, code); ok {
					set[v] = true
				}
			}
			vals := make([]value.Value, 0, len(set))
			for v := range set {
				vals = append(vals, v)
			}
			sortValues(vals)
			out[i] = vals
		}
	})
	if shardErr != nil {
		return nil, shardErr
	}
	return out, nil
}

// tableNav is a table's compiled join path together with the table, so
// a resolved access's row can be read from its slot.
type tableNav struct {
	nav *db.Nav
	t   *db.Table
}

// compileTree compiles the join path of every table of the tree — only
// those in tables, when non-nil — for concurrent navigation, indexed by
// resolvedStream's table ids; an uncovered table's entry has a nil nav.
// It fails on a table the database lacks.
func (p *Partitioner) compileTree(tree *joingraph.Tree, tables map[string]bool) ([]tableNav, error) {
	navs := make([]tableNav, unknownTable(p.in.DB)+1)
	for tbl, path := range tree.Paths {
		if tables != nil && !tables[tbl] {
			continue
		}
		t := p.in.DB.Table(tbl)
		if t == nil {
			return nil, fmt.Errorf("core: join tree table %q unknown", tbl)
		}
		nav, err := p.in.DB.Compile(path)
		if err != nil {
			return nil, err
		}
		navs[t.ID()] = tableNav{nav: nav, t: t}
	}
	return navs, nil
}

// sortValues orders values by Compare, breaking cross-kind ties (distinct
// map keys can still Compare equal, e.g. an integer and the equal float)
// by their canonical encoding so the order is total and stable.
func sortValues(vals []value.Value) {
	sort.Slice(vals, func(a, b int) bool {
		if c := vals[a].Compare(vals[b]); c != 0 {
			return c < 0
		}
		return string(vals[a].Encode(nil)) < string(vals[b].Encode(nil))
	})
}

// minCutSolution implements §5.3's statistics-based mapping: build the
// co-access graph over root values, min-cut it into k partitions, and
// accept the lookup mapping only if it is "meaningful" — cheaper on the
// class's test stream than both hash and range mappings. A class with no
// test transactions is checked on its training stream. It returns the
// best meaningful solution across trees, or nil.
func (p *Partitioner) minCutSolution(ctx context.Context, pre *preprocessed, class string, trees []*joingraph.Tree, stream resolvedStream) (*ClassSolution, error) {
	test, testTxns := pre.Test, pre.testStream(class)
	if len(testTxns) == 0 {
		test, testTxns = stream.tr, stream.txns
	}
	var best *ClassSolution
	for _, tree := range trees {
		navs, err := p.compileTree(tree, nil)
		if err != nil {
			return nil, err
		}
		sets, err := p.rootValueSets(ctx, navs, stream)
		if err != nil {
			return nil, err
		}
		lookup, vals, err := p.minCutMapping(class, tree, sets)
		if err != nil {
			return nil, err
		}
		if lookup == nil {
			continue
		}
		costs, err := p.mapperCosts(navs, stream.v, test, testTxns,
			lookup, partition.NewHash(p.opts.K), partition.NewRangeFromValues(p.opts.K, vals))
		if err != nil {
			return nil, err
		}
		lookupCost, hashCost, rangeCost := costs[0], costs[1], costs[2]
		// The mapping is "meaningful" only if it beats both hash and
		// range mappings on unseen data (§5.3). The margin guards
		// against declaring victory on statistical noise when the
		// workload is actually unpartitionable (e.g. TPC-E's
		// Broker-Volume, whose parameters are uniform random).
		const margin = 0.98
		if lookupCost >= hashCost*margin || lookupCost >= rangeCost*margin {
			continue // not meaningful
		}
		if best == nil || lookupCost < best.Cost {
			best = &ClassSolution{Tree: tree, Mapper: lookup, Cost: lookupCost}
		}
	}
	return best, nil
}

// minCutMapping builds the co-access graph over the root values of a
// tree's transactions, sets, and min-cuts it into k partitions. It
// returns the lookup mapping of each value to its part, and the distinct
// values in first-seen order; the mapping is nil when sets hold no value.
func (p *Partitioner) minCutMapping(class string, tree *joingraph.Tree, sets [][]value.Value) (partition.Mapper, []value.Value, error) {
	// Index distinct values.
	index := map[value.Value]int{}
	var vals []value.Value
	for _, set := range sets {
		for _, v := range set {
			if _, ok := index[v]; !ok {
				index[v] = len(vals)
				vals = append(vals, v)
			}
		}
	}
	if len(vals) == 0 {
		return nil, nil, nil
	}
	g := graphpart.New(len(vals))
	for _, set := range sets {
		for i := 0; i < len(set); i++ {
			for j := i + 1; j < len(set); j++ {
				g.AddEdge(index[set[i]], index[set[j]], 1)
			}
		}
	}
	// The min-cut seed is derived per (class, tree root): stable across
	// runs and independent of which worker solves the class or the order
	// classes finish in.
	seed := graphpart.DeriveSeed(p.opts.Seed, class+"|"+tree.Root.String())
	parts, err := graphpart.Partition(g, p.opts.K, graphpart.Options{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	table := make(map[value.Value]int, len(vals))
	for i, v := range vals {
		table[v] = parts[i]
	}
	return partition.NewLookup(p.opts.K, table, nil), vals, nil
}

// mapperCosts costs a tree, given by navs, its compiled join paths,
// under each of the mappers on the transactions txns of tr: each cost is
// eval.Evaluate's cost of the class-local solution that partitions every
// table of the tree by its path under that mapper and replicates every
// other table the transactions touch. Each access is navigated once,
// through v, and its root value placed under every mapper; each
// transaction is classified per mapper by eval.Span. It runs on one
// worker: it already runs inside the per-class worker pool. It fails on
// a table the database lacks.
func (p *Partitioner) mapperCosts(navs []tableNav, v *db.View, tr *trace.Trace, txns []int32, mappers ...partition.Mapper) ([]float64, error) {
	spans := make([]eval.Span, len(mappers))
	dist := make([]int, len(mappers))
	name, t := "", (*db.Table)(nil)
	for _, i := range txns {
		clear(spans)
		for _, acc := range tr.At(int(i)).Accesses {
			// Accesses cluster by table, so most skip the map lookup.
			if acc.Table != name || t == nil {
				name, t = acc.Table, p.in.DB.Table(acc.Table)
				if t == nil {
					return nil, fmt.Errorf("core: test trace table %q unknown", acc.Table)
				}
			}
			tn := navs[t.ID()]
			if tn.nav == nil {
				for m := range spans {
					spans[m].Add(eval.PlaceReplicated, acc.Write)
				}
				continue
			}
			root, ok := v.FromKey(tn.nav, acc.Key)
			for m, mapper := range mappers {
				pl := eval.PlaceUnplaced
				if ok {
					pl = int32(mapper.Map(root))
				}
				spans[m].Add(pl, acc.Write)
			}
		}
		for m := range spans {
			if spans[m].Distributed() {
				dist[m]++
			}
		}
	}
	costs := make([]float64, len(mappers))
	if len(txns) > 0 {
		for m, d := range dist {
			costs[m] = float64(d) / float64(len(txns))
		}
	}
	return costs, nil
}

// addPartialsFromSubtrees walks the sub-join trees of a total solution,
// adding every mapping-independent one as a partial solution (§5.3 end).
func (p *Partitioner) addPartialsFromSubtrees(ctx context.Context, res *ClassResult, tree *joingraph.Tree, stream resolvedStream) error {
	queue := subTrees(tree)
	for len(queue) > 0 {
		sub := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		covered := map[string]bool{}
		for tbl := range sub.Paths {
			covered[tbl] = true
		}
		ok, err := p.mappingIndependent(ctx, sub, stream, covered)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		res.Partial = append(res.Partial, &ClassSolution{
			Tree: sub, MappingIndependent: true,
		})
		queue = append(queue, subTrees(sub)...)
	}
	return nil
}

// addPartialsFromSplit handles §5.2 case 2: split the rootless graph and
// keep mapping-independent trees of each subgraph as partial solutions.
// It fails when a tree's join paths do not compile, or ctx is cancelled.
func (p *Partitioner) addPartialsFromSplit(ctx context.Context, res *ClassResult, g *joingraph.Graph, stream resolvedStream) error {
	for _, sub := range g.Split() {
		if len(sub.Tables) == 0 {
			continue
		}
		covered := map[string]bool{}
		for _, tbl := range sub.Tables {
			covered[tbl] = true
		}
		trees := sub.Trees(maxTreesPerRoot)
		if p.opts.IntraTableOnly {
			trees = filterIntraTable(trees)
		}
		var keep []*joingraph.Tree
		bestFrac := 0.0
		fracs := make([]float64, len(trees))
		for i, t := range trees {
			f, err := p.singleValueFraction(ctx, t, stream, covered)
			if err != nil {
				return err
			}
			fracs[i] = f
			if f > bestFrac {
				bestFrac = f
			}
		}
		if bestFrac < 1-miTolerance {
			continue
		}
		for i, t := range trees {
			if fracs[i] >= bestFrac-1e-9 {
				keep = append(keep, t)
			}
		}
		if !p.opts.KeepAllTrees {
			keep = dropCoarserTrees(keep)
		}
		for _, t := range keep {
			res.Partial = append(res.Partial, &ClassSolution{
				Tree: t, MappingIndependent: bestFrac == 1, Cost: 1 - bestFrac,
			})
		}
	}
	sortSolutions(res.Partial)
	return nil
}

// subTrees removes the root attribute from a join tree, returning the
// subtree rooted at each distinct (single-attribute) predecessor node.
func subTrees(tree *joingraph.Tree) []*joingraph.Tree {
	groups := map[string]*joingraph.Tree{}
	for tbl, path := range tree.Paths {
		trunk := path.Trunk()
		if trunk.Len() == 0 {
			continue // the root table itself drops out
		}
		last := trunk.Nodes[trunk.Len()-1]
		if len(last.Columns) != 1 {
			continue // composite predecessors cannot root a tree (Def 3)
		}
		key := last.String()
		sub, ok := groups[key]
		if !ok {
			sub = &joingraph.Tree{
				Root:  schema.ColumnRef{Table: last.Table, Column: last.Columns[0]},
				Paths: map[string]schema.JoinPath{},
			}
			groups[key] = sub
		}
		sub.Paths[tbl] = trunk
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*joingraph.Tree, len(keys))
	for i, k := range keys {
		out[i] = groups[k]
	}
	return out
}

// dropCoarserTrees removes trees that are coarser than (compatible with)
// another tree in the set, keeping the finest of each compatible family
// (Definition 9 / Property 1).
func dropCoarserTrees(trees []*joingraph.Tree) []*joingraph.Tree {
	var out []*joingraph.Tree
	for i, t := range trees {
		coarser := false
		for j, other := range trees {
			if i == j {
				continue
			}
			if treeCoarserThan(t, other) {
				// t = other + p(X,Y): t is coarser; drop it unless the
				// finer tree was itself dropped (it never is: finer trees
				// are never coarser than their own extensions).
				coarser = true
				break
			}
		}
		if !coarser {
			out = append(out, t)
		}
	}
	return out
}

// treeCoarserThan reports whether coarse = fine + p(X,Y) for a single
// common extension path p from fine's root to coarse's root
// (Definition 9).
func treeCoarserThan(coarse, fine *joingraph.Tree) bool {
	if coarse.Root == fine.Root {
		return false
	}
	if len(coarse.Paths) != len(fine.Paths) {
		return false
	}
	var ext schema.JoinPath
	extSet := false
	for tbl, fp := range fine.Paths {
		cp, ok := coarse.Paths[tbl]
		if !ok || !cp.HasPrefix(fp) || cp.Len() <= fp.Len() {
			return false
		}
		suffix := schema.JoinPath{Nodes: cp.Nodes[fp.Len()-1:]}
		if !extSet {
			ext, extSet = suffix, true
		} else if !ext.Equal(suffix) {
			return false
		}
	}
	return extSet
}

// filterIntraTable keeps only trees whose every path stays within its own
// table (the IntraTableOnly ablation: no join extension).
func filterIntraTable(trees []*joingraph.Tree) []*joingraph.Tree {
	var out []*joingraph.Tree
	for _, t := range trees {
		ok := true
		for tbl, p := range t.Paths {
			for _, n := range p.Nodes {
				if n.Table != tbl {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			out = append(out, t)
		}
	}
	return out
}

func sortSolutions(ss []*ClassSolution) {
	sort.Slice(ss, func(i, j int) bool {
		ri, rj := ss[i].Root(), ss[j].Root()
		if ri.Table != rj.Table {
			return ri.Table < rj.Table
		}
		return ri.Column < rj.Column
	})
}
