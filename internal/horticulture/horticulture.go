// Package horticulture implements the Horticulture baseline (Pavlo et
// al., SIGMOD 2012) as used in the paper's comparison: a generate-and-test
// large-neighborhood search over per-table horizontal designs — each
// accessed table is either replicated or hash-partitioned on one of its
// own columns — scored by a skew-aware cost model.
//
// The paper applied the published Horticulture solutions rather than
// re-running the tool; experiments here do the same through the
// benchmark-specific constructors in published.go, while Search provides
// a working implementation of the algorithm for everything else.
package horticulture

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/trace"
)

// Registry metrics (see DESIGN.md, "Metric reference"). costEvals is
// cached in a package var: the LNS calls costOf in its inner loop.
var (
	cSearches  = obs.Default.Counter("horticulture.searches")
	cRestarts  = obs.Default.Counter("horticulture.restarts")
	cRounds    = obs.Default.Counter("horticulture.rounds")
	cCostEvals = obs.Default.Counter("horticulture.cost_evals")
	gHortBest  = obs.Default.Gauge("horticulture.best_cost")
)

const (
	// readMostlyThreshold mirrors the framework's Phase 1 replication.
	readMostlyThreshold float64 = 0.015
	// restarts and neighborhood size bound the LNS.
	restarts     = 3
	neighborhood = 2
	// rounds bounds relaxation rounds per restart.
	rounds = 24
	// skewWeight blends load skew into the cost; the
	// distributed-transaction fraction and partitions-touched terms carry
	// the rest, following the paper's description of Horticulture's cost
	// function (§2).
	skewWeight float64 = 0.2
	// sampleTxns caps the number of training transactions used per cost
	// evaluation — Horticulture's workload compression.
	sampleTxns = 2000
)

// Options configures the search.
type Options struct {
	// K is the number of partitions.
	K int
	// Seed makes the search reproducible.
	Seed int64
}

// Input is what Horticulture consumes: the database (schema + data for
// evaluation) and a training trace. It does not read SQL source.
type Input struct {
	DB    *db.DB
	Train *trace.Trace
}

// design is one point in the search space: per-table column choice
// (or "" for replicate).
type design map[string]string

// Search runs the large-neighborhood search and returns the best design
// found as a partitioning solution.
func Search(in Input, opts Options) (*partition.Solution, error) {
	return SearchContext(context.Background(), in, opts)
}

// SearchContext is Search with context-threaded phase tracing: one span
// horticulture/restart per LNS restart when ctx carries an obs.Trace.
func SearchContext(ctx context.Context, in Input, opts Options) (*partition.Solution, error) {
	if in.DB == nil || in.Train == nil || in.Train.Len() == 0 {
		return nil, fmt.Errorf("horticulture: missing database or empty trace")
	}
	if opts.K <= 0 {
		return nil, fmt.Errorf("horticulture: k = %d", opts.K)
	}
	cSearches.Inc()
	rng := rand.New(rand.NewSource(opts.Seed))

	stats := in.Train.Stats()
	replicated := map[string]bool{}
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
	var tables []string
	for tbl := range stats {
		if !replicated[tbl] {
			tables = append(tables, tbl)
		}
	}
	sort.Strings(tables)
	if len(tables) == 0 {
		sol := partition.NewSolution("horticulture", opts.K)
		for _, t := range in.DB.Schema().Tables() {
			sol.Set(partition.NewReplicated(t.Name))
		}
		return sol, nil
	}

	sample := in.Train.Head(sampleTxns)

	// Initial design: most-accessed column of each table (the column most
	// frequently bound in the trace is unknown without SQL, so use the
	// first PK column — Horticulture's own heuristic starts from the
	// "most frequently accessed" attributes and relaxes from there).
	best := design{}
	for _, tbl := range tables {
		best[tbl] = in.DB.Schema().Table(tbl).PrimaryKey[0]
	}
	bestCost := costOf(in.DB, best, replicated, sample, opts)

	for restart := 0; restart < restarts; restart++ {
		cRestarts.Inc()
		_, sRestart := obs.StartSpan(ctx, "horticulture/restart")
		cur := design{}
		for _, tbl := range tables {
			cur[tbl] = randomChoice(in.DB.Schema().Table(tbl), rng)
		}
		if restart == 0 {
			for k, v := range best {
				cur[k] = v
			}
		}
		curCost := costOf(in.DB, cur, replicated, sample, opts)
		for round := 0; round < rounds; round++ {
			cRounds.Inc()
			// Relax a small neighborhood of tables and greedily re-pick
			// each one's best option with the rest fixed.
			relax := pickN(tables, neighborhood, rng)
			improved := false
			for _, tbl := range relax {
				meta := in.DB.Schema().Table(tbl)
				options := append([]string{""}, columnNames(meta)...)
				for _, col := range options {
					prev := cur[tbl]
					if col == prev {
						continue
					}
					cur[tbl] = col
					c := costOf(in.DB, cur, replicated, sample, opts)
					if c < curCost {
						curCost = c
						improved = true
					} else {
						cur[tbl] = prev
					}
				}
			}
			if curCost < bestCost {
				bestCost = curCost
				for k, v := range cur {
					best[k] = v
				}
			}
			if !improved && round > rounds/2 {
				break
			}
		}
		sRestart.End()
	}
	gHortBest.Set(bestCost)
	return toSolution(in.DB.Schema(), best, replicated, opts.K), nil
}

func columnNames(t *schema.Table) []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

func randomChoice(t *schema.Table, rng *rand.Rand) string {
	cols := columnNames(t)
	i := rng.Intn(len(cols) + 1)
	if i == len(cols) {
		return "" // replicate
	}
	return cols[i]
}

func pickN(tables []string, n int, rng *rand.Rand) []string {
	if n >= len(tables) {
		return tables
	}
	perm := rng.Perm(len(tables))
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = tables[perm[i]]
	}
	return out
}

// toSolution converts a design into the shared solution vocabulary:
// replicated tables, or single-projection join paths {key(T)} → {col}
// with hash mapping (Horticulture's designs are intra-table).
func toSolution(sc *schema.Schema, d design, replicated map[string]bool, k int) *partition.Solution {
	sol := partition.NewSolution("horticulture", k)
	for _, t := range sc.Tables() {
		col, ok := d[t.Name]
		if !ok || replicated[t.Name] || col == "" {
			sol.Set(partition.NewReplicated(t.Name))
			continue
		}
		sol.Set(partition.NewByPath(t.Name, pkToColumn(t, col), partition.NewHash(k)))
	}
	return sol
}

// pkToColumn builds the within-table path {key(T)} → {col} (identity when
// col is the single-column primary key itself).
func pkToColumn(t *schema.Table, col string) schema.JoinPath {
	if len(t.PrimaryKey) == 1 && t.PrimaryKey[0] == col {
		return schema.NewJoinPath(schema.ColumnSet{Table: t.Name, Columns: []string{col}})
	}
	return schema.NewJoinPath(
		schema.ColumnSet{Table: t.Name, Columns: append([]string(nil), t.PrimaryKey...)},
		schema.ColumnSet{Table: t.Name, Columns: []string{col}},
	)
}

// costOf scores a design: fraction of distributed transactions, weighted
// by how many partitions they touch, plus a load-skew penalty — the shape
// of Horticulture's skew-aware cost model.
func costOf(d *db.DB, dz design, replicated map[string]bool, sample *trace.Trace, opts Options) float64 {
	cCostEvals.Inc()
	sol := toSolution(d.Schema(), dz, replicated, opts.K)
	a, err := eval.NewAssigner(d, sol)
	if err != nil {
		return math.Inf(1)
	}
	load := make([]float64, opts.K)
	distributed, touchSum := 0, 0
	v := d.View()
	defer v.Close()
	for _, t := range sample.All() {
		s := a.Span(v, t)
		if s.Distributed() {
			distributed++
			touchSum += s.Touched(opts.K)
		}
		n := s.Parts.Len()
		if n == 0 {
			// Fully replicated read: charge nothing (any node serves it).
			continue
		}
		s.Parts.ForEach(func(p int) {
			load[p] += 1 / float64(n)
		})
	}
	n := float64(sample.Len())
	if n == 0 {
		return 0
	}
	distFrac := float64(distributed) / n
	touchFrac := float64(touchSum) / (n * float64(opts.K))
	// Skew: coefficient of variation of partition load.
	mean := 0.0
	for _, l := range load {
		mean += l
	}
	mean /= float64(opts.K)
	variance := 0.0
	for _, l := range load {
		variance += (l - mean) * (l - mean)
	}
	variance /= float64(opts.K)
	skew := 0.0
	if mean > 0 {
		skew = math.Sqrt(variance) / mean / math.Sqrt(float64(opts.K))
	}
	// Balance is a near-constraint, not just a soft term: a "solution"
	// that maps the whole database onto one partition has zero
	// distributed transactions but defeats the purpose. Penalize any
	// design whose hottest partition exceeds 4x the average hard enough
	// that no distributed-transaction saving can pay for it.
	balancePenalty := 0.0
	if mean > 0 {
		maxLoad := 0.0
		for _, l := range load {
			if l > maxLoad {
				maxLoad = l
			}
		}
		if ratio := maxLoad / mean; ratio > 4 {
			balancePenalty = ratio
		}
	}
	return distFrac + 0.5*touchFrac + skewWeight*skew + balancePenalty
}
