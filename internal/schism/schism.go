// Package schism implements the Schism baseline (Curino et al., VLDB
// 2010) as described and used in the paper's evaluation: model the
// training trace as a tuple co-access graph, min-cut it into k balanced
// partitions, then learn a per-table classifier that generalizes the
// partition labels from trained tuples to arbitrary tuples.
//
// Substitution notes: METIS is replaced by internal/graphpart, and the
// Weka decision trees of the original are replaced by a one-level
// rule-based classifier — for each table it picks the column whose values
// best determine the learned partition labels and memorizes a value →
// partition rule table (hash fallback for unseen values). This preserves
// the properties the paper's comparison rests on: quality scales with
// training-set coverage, memory scales with the tuple graph (Tables 1–2),
// and high-cardinality classification attributes degrade accuracy when
// the trace does not cover the domain (TATP, §7.4).
package schism

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/db"
	"repro/internal/graphpart"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/value"
)

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	cSchismRuns   = obs.Default.Counter("schism.runs")
	cRulesLearned = obs.Default.Counter("schism.rules_learned")
	gGraphNodes   = obs.Default.Gauge("schism.graph_nodes")
	gGraphEdges   = obs.Default.Gauge("schism.graph_edges")
	gEdgeCut      = obs.Default.Gauge("schism.edge_cut")
)

// readMostlyThreshold mirrors the evaluation framework's Phase 1:
// tables written by fewer than this fraction of transactions are
// replicated.
const readMostlyThreshold float64 = 0.015

// Options configures a Schism run.
type Options struct {
	// K is the number of partitions.
	K int
	// MaxCliqueSize bounds per-transaction pair explosion: transactions
	// touching more tuples contribute a star instead of a clique
	// (default 24).
	MaxCliqueSize int
	// Seed drives the min-cut heuristic.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.MaxCliqueSize <= 0 {
		o.MaxCliqueSize = 24
	}
	return o
}

// Input is what Schism consumes: the database (for classifier features)
// and a training trace. Unlike JECB it needs neither schema constraints
// nor SQL source.
type Input struct {
	DB    *db.DB
	Train *trace.Trace
}

// Stats reports the internals of a run, for the scalability tables.
type Stats struct {
	GraphNodes int
	GraphEdges int
	EdgeCut    float64
}

// Partition runs the full Schism pipeline.
func Partition(in Input, opts Options) (*partition.Solution, *Stats, error) {
	return PartitionContext(context.Background(), in, opts)
}

// PartitionContext is Partition with context-threaded phase tracing:
// spans schism/graph, schism/mincut and schism/classify when ctx carries
// an obs.Trace.
func PartitionContext(ctx context.Context, in Input, opts Options) (*partition.Solution, *Stats, error) {
	if in.DB == nil || in.Train == nil || in.Train.Len() == 0 {
		return nil, nil, fmt.Errorf("schism: missing database or empty trace")
	}
	if opts.K <= 0 {
		return nil, nil, fmt.Errorf("schism: k = %d", opts.K)
	}
	opts = opts.withDefaults()
	cSchismRuns.Inc()

	// Framework Phase 1: replicate read-only / read-mostly tables.
	replicated := map[string]bool{}
	stats := in.Train.Stats()
	for tbl, st := range stats {
		if st.WriteTxnFraction(in.Train.Len()) < readMostlyThreshold {
			replicated[tbl] = true
		}
	}
	for _, t := range in.DB.Schema().Tables() {
		if _, accessed := stats[t.Name]; !accessed {
			replicated[t.Name] = true
		}
	}

	// Build the tuple co-access graph over partitioned tables.
	_, sGraph := obs.StartSpan(ctx, "schism/graph")
	type tupleID struct {
		table string
		key   value.Key
	}
	index := map[tupleID]int{}
	var tuples []tupleID
	node := func(id tupleID) int {
		if n, ok := index[id]; ok {
			return n
		}
		n := len(tuples)
		index[id] = n
		tuples = append(tuples, id)
		return n
	}
	// Two passes: first collect nodes so the graph can be sized, then add
	// edges (graphpart graphs are fixed-size).
	for _, t := range in.Train.All() {
		for _, acc := range t.Accesses {
			if !replicated[acc.Table] {
				node(tupleID{acc.Table, acc.Key})
			}
		}
	}
	g := graphpart.New(len(tuples))
	st := &Stats{GraphNodes: len(tuples)}
	for _, t := range in.Train.All() {
		var ids []int
		for _, acc := range t.Accesses {
			if !replicated[acc.Table] {
				ids = append(ids, index[tupleID{acc.Table, acc.Key}])
			}
		}
		if len(ids) <= opts.MaxCliqueSize {
			for a := 0; a < len(ids); a++ {
				for b := a + 1; b < len(ids); b++ {
					g.AddEdge(ids[a], ids[b], 1)
				}
			}
		} else {
			// Star: hub on the first tuple keeps the transaction
			// connected without the quadratic blowup.
			for _, id := range ids[1:] {
				g.AddEdge(ids[0], id, 1)
			}
		}
	}
	edges := 0
	for i := 0; i < g.Len(); i++ {
		edges += g.Degree(i)
	}
	st.GraphEdges = edges / 2
	sGraph.End()
	gGraphNodes.Set(float64(st.GraphNodes))
	gGraphEdges.Set(float64(st.GraphEdges))

	_, sCut := obs.StartSpan(ctx, "schism/mincut")
	parts, err := graphpart.Partition(g, opts.K, graphpart.Options{Seed: opts.Seed})
	if err != nil {
		sCut.End()
		return nil, nil, err
	}
	st.EdgeCut = graphpart.EdgeCut(g, parts)
	sCut.End()
	gEdgeCut.Set(st.EdgeCut)

	// Group labeled tuples per table for the classifier.
	labeled := map[string]map[value.Key]int{}
	for i, id := range tuples {
		m, ok := labeled[id.table]
		if !ok {
			m = map[value.Key]int{}
			labeled[id.table] = m
		}
		m[id.key] = parts[i]
	}

	_, sClassify := obs.StartSpan(ctx, "schism/classify")
	sol := partition.NewSolution("schism", opts.K)
	for _, t := range in.DB.Schema().Tables() {
		if replicated[t.Name] || labeled[t.Name] == nil {
			sol.Set(partition.NewReplicated(t.Name))
			continue
		}
		ts, rules := classify(in.DB, t.Name, labeled[t.Name], opts.K)
		sol.Set(ts)
		cRulesLearned.Add(int64(rules))
	}
	sClassify.End()
	return sol, st, nil
}

// classify learns the per-table routing rule: pick the column whose
// values best predict the partition labels of the trained tuples, then
// memorize value → majority partition. Unseen values hash. It returns
// the table's solution and the number of rules learned.
func classify(d *db.DB, table string, labels map[value.Key]int, k int) (*partition.TableSolution, int) {
	t := d.Table(table)
	meta := t.Meta()
	type colStat struct {
		// perValue counts labels per column value.
		perValue map[value.Value]map[int]int
	}
	cols := make([]colStat, len(meta.Columns))
	for i := range cols {
		cols[i] = colStat{perValue: map[value.Value]map[int]int{}}
	}
	total := 0
	for key, label := range labels {
		row, ok := t.Get(key)
		if !ok {
			continue // tuple deleted since the trace was collected
		}
		total++
		for ci := range meta.Columns {
			pv := cols[ci].perValue
			m, ok := pv[row[ci]]
			if !ok {
				m = map[int]int{}
				pv[row[ci]] = m
			}
			m[label]++
		}
	}
	if total == 0 {
		return partition.NewReplicated(table), 0
	}
	// Score each column by purity (fraction of tuples whose label matches
	// the majority label of their value) discounted by rule-table size
	// relative to the training set: a slightly impure low-cardinality
	// column (a warehouse id the min-cut almost respected) generalizes,
	// while a perfectly pure unique column (the primary key) does not —
	// the same bias the original's decision trees get from pruning.
	bestCol, bestScore, bestValues := -1, -1.0, 0
	for ci := range meta.Columns {
		agree := 0
		for _, m := range cols[ci].perValue {
			maxc := 0
			for _, c := range m {
				if c > maxc {
					maxc = c
				}
			}
			agree += maxc
		}
		purity := float64(agree) / float64(total)
		nvals := len(cols[ci].perValue)
		score := purity - 0.1*float64(nvals)/float64(total)
		if score > bestScore+1e-9 ||
			(score > bestScore-1e-9 && (bestCol < 0 || nvals < bestValues)) {
			bestCol, bestScore, bestValues = ci, score, nvals
		}
	}
	colName := meta.Columns[bestCol].Name
	rules := make(map[value.Value]int, bestValues)
	// Deterministic majority: iterate values in sorted order.
	var vals []value.Value
	for v := range cols[bestCol].perValue {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].Compare(vals[j]) < 0 })
	for _, v := range vals {
		m := cols[bestCol].perValue[v]
		bestLabel, bestCount := 0, -1
		var lbls []int
		for l := range m {
			lbls = append(lbls, l)
		}
		sort.Ints(lbls)
		for _, l := range lbls {
			if m[l] > bestCount {
				bestLabel, bestCount = l, m[l]
			}
		}
		rules[v] = bestLabel
	}
	path := schema.NewJoinPath(
		schema.ColumnSet{Table: table, Columns: append([]string(nil), meta.PrimaryKey...)},
		schema.ColumnSet{Table: table, Columns: []string{colName}},
	)
	// Collapse the degenerate case where the chosen column IS the whole
	// primary key (single-column PK): the path is the identity.
	if len(meta.PrimaryKey) == 1 && meta.PrimaryKey[0] == colName {
		path = schema.NewJoinPath(schema.ColumnSet{Table: table, Columns: []string{colName}})
	}
	// Interval rules compress per-value labels into range runs and
	// generalize to unseen values between trained neighbours — the shape
	// of the decision trees the original Schism learns over ordered
	// attributes. Values outside every run hash.
	mapper := partition.NewIntervals(k, rules, partition.NewHash(k))
	return partition.NewByPath(table, path, mapper), mapper.Runs()
}
