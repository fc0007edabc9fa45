package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/schema"
)

// tableCandidate is one per-table partitioning option harvested from a
// class solution: a join path from the table's key to a partitioning
// attribute (Definition 10 without the mapping function).
type tableCandidate struct {
	path   schema.JoinPath
	attr   schema.ColumnRef
	mi     bool
	mapper partition.Mapper // non-nil when a statistics-based mapping exists
}

// phase3 combines per-class solutions into the global solution (§6).
// Cancelling ctx aborts the option-placement and candidate-costing pools
// between items and surfaces the context's error before any fold touches
// the cost slots.
func (p *Partitioner) phase3(ctx context.Context, pre *preprocessed, classes map[string]*ClassResult) (*partition.Solution, *Report, error) {
	sc := p.in.DB.Schema()
	compat := newAttrCompat(sc)

	byTable := harvestTableCandidates(classes)
	rep := &Report{
		K:          p.opts.K,
		Replicated: pre.Replicated,
		Classes:    classes,
	}
	// Unpruned search-space size (Example 10's "2.6 million"): every
	// combination of per-table candidates plus the replication option.
	rep.UnprunedSpace = 1
	for _, tbl := range pre.PartitionedTables {
		rep.UnprunedSpace *= len(byTable[tbl]) + 1
	}

	// Step 1: candidate partitioning attributes — distinct roots with
	// compatible ones collapsed onto the coarser (§6 step 1).
	attrs := p.candidateAttributes(byTable, compat)
	rep.CandidateAttributes = attrs
	if len(attrs) == 0 {
		// Nothing partitionable anywhere: replicate everything.
		sol := partition.NewSolution("jecb", p.opts.K)
		for _, t := range sc.Tables() {
			sol.Set(partition.NewReplicated(t.Name))
		}
		rep.Solution = sol
		return sol, rep, nil
	}

	cands, err := p.enumerateCandidates(pre, byTable, attrs, compat)
	if err != nil {
		return nil, nil, err
	}
	sols := make([]*partition.Solution, 0, len(cands)+1)
	for _, c := range cands {
		sols = append(sols, c.sol)
	}

	// Warm start: a previously deployed solution seeds the incumbent.
	// Every enumerated combination must now *beat* the deployed trees on
	// the current training window, so a stable workload keeps its
	// placements (and the migration planner sees a zero-move delta).
	warm := p.opts.Warm
	if warm != nil && (warm.K != p.opts.K || warm.Validate(sc) != nil) {
		warm = nil
	}
	if warm != nil {
		sols = append(sols, warm)
	}

	// Place every distinct table option on the training trace once, then
	// cost the warm incumbent and every candidate by scanning the option
	// columns — candidates concurrently, each into its own slot. The
	// argmin is folded sequentially in enumeration order with a strict <,
	// which reproduces the sequential search's winner exactly: the first
	// candidate achieving the minimum cost.
	workers := p.opts.parallelism()
	gPhase3Workers.Set(float64(workers))
	scorer := newComboScorer(pre.Train)
	if err := scorer.place(ctx, p.in.DB, workers, sols); err != nil {
		return nil, nil, fmt.Errorf("core: phase 3: %w", err)
	}
	var best *partition.Solution
	bestCost := 0.0
	if warm != nil {
		// A warm solution whose paths no longer compile is not seeded.
		if c, err := scorer.cost(sc, warm); err == nil {
			// Copy the shell so renaming the winner cannot mutate the
			// caller's deployed solution.
			best = &partition.Solution{Name: warm.Name, K: warm.K, Tables: warm.Tables}
			bestCost = c
			rep.WarmSeeded = true
			rep.WarmCost = bestCost
		}
	}
	costs := make([]float64, len(cands))
	errs := make([]error, len(cands))
	poolErr := pool.ForEach(ctx, workers, len(cands), gPhase3Queue, func(i int) {
		costs[i], errs[i] = scorer.cost(sc, cands[i].sol)
	})
	if poolErr != nil {
		// Cancelled: unclaimed slots hold a zero cost that must never reach
		// the argmin below.
		return nil, nil, fmt.Errorf("core: phase 3: %w", poolErr)
	}
	for i, c := range cands {
		rep.CombosEvaluated++
		cCombosEval.Inc()
		if errs[i] != nil {
			return nil, nil, fmt.Errorf("core: phase 3: %w", errs[i])
		}
		if best == nil || costs[i] < bestCost {
			best, bestCost = c.sol, costs[i]
			rep.ChosenAttribute = c.attr
			cBestImprove.Inc()
			gBestCost.Set(bestCost)
		}
	}
	if best == nil {
		return nil, nil, fmt.Errorf("core: phase 3: no combination produced a solution")
	}
	best.Name = "jecb"
	rep.Solution = best
	rep.TrainCost = bestCost
	return best, rep, nil
}

// harvestTableCandidates collects the per-table candidates of every
// class solution, classes in name order.
func harvestTableCandidates(classes map[string]*ClassResult) map[string][]*tableCandidate {
	byTable := map[string][]*tableCandidate{}
	var classNames []string
	for name := range classes {
		classNames = append(classNames, name)
	}
	sort.Strings(classNames)
	for _, name := range classNames {
		cr := classes[name]
		for _, sol := range append(append([]*ClassSolution{}, cr.Total...), cr.Partial...) {
			for tbl, path := range sol.Tree.Paths {
				byTable[tbl] = append(byTable[tbl], &tableCandidate{
					path: path, attr: sol.Tree.Root, mi: sol.MappingIndependent, mapper: sol.Mapper,
				})
			}
		}
	}
	return byTable
}

// candidate is one enumerated cross-table combination and the candidate
// attribute it was enumerated for.
type candidate struct {
	attr schema.ColumnRef
	sol  *partition.Solution
}

// enumerateCandidates implements §6 steps 2–3: per attribute, build the
// reduced per-table solution sets and enumerate their combinations. The
// order is the search's tie-break: the first strictly-better candidate
// wins.
func (p *Partitioner) enumerateCandidates(pre *preprocessed, byTable map[string][]*tableCandidate, attrs []schema.ColumnRef, compat *attrCompat) ([]candidate, error) {
	var cands []candidate
	for _, attr := range attrs {
		combos, err := p.combosForAttribute(pre, byTable, attr, compat)
		if err != nil {
			return nil, err
		}
		for _, sol := range combos {
			cands = append(cands, candidate{attr: attr, sol: sol})
		}
	}
	return cands, nil
}

// candidateAttributes implements §6 step 1: all partitioning attributes of
// all table solutions, with compatible pairs collapsed to the coarser one.
func (p *Partitioner) candidateAttributes(byTable map[string][]*tableCandidate, compat *attrCompat) []schema.ColumnRef {
	seen := map[schema.ColumnRef]bool{}
	var attrs []schema.ColumnRef
	for _, cands := range byTable {
		for _, c := range cands {
			if !seen[c.attr] {
				seen[c.attr] = true
				attrs = append(attrs, c.attr)
			}
		}
	}
	sort.Slice(attrs, func(i, j int) bool {
		if attrs[i].Table != attrs[j].Table {
			return attrs[i].Table < attrs[j].Table
		}
		return attrs[i].Column < attrs[j].Column
	})
	// Collapse compatible attributes onto the coarser representative.
	var out []schema.ColumnRef
	for _, a := range attrs {
		dominated := false
		for _, b := range attrs {
			if a == b {
				continue
			}
			if w, ok := compat.CoarserOf(a, b); ok && w == b {
				// b is coarser (or the equivalence representative);
				// keep b, drop a — unless the relation is symmetric
				// equivalence, where we keep the lexicographically first.
				if compat.Equivalent(a, b) {
					if lessRef(a, b) {
						continue
					}
				}
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, a)
		}
	}
	return out
}

func lessRef(a, b schema.ColumnRef) bool {
	if a.Table != b.Table {
		return a.Table < b.Table
	}
	return a.Column < b.Column
}

// combosForAttribute implements §6 step 2 for one candidate attribute:
// reduce each table's solution set to those compatible with the
// attribute, merge compatible solutions (Definition 14), extend paths to
// the attribute, and enumerate all cross-table combinations (bounded by
// maxCombos).
func (p *Partitioner) combosForAttribute(pre *preprocessed, byTable map[string][]*tableCandidate, attr schema.ColumnRef, compat *attrCompat) ([]*partition.Solution, error) {
	// The shared mapping function for the attribute: a lookup mapping if
	// any contributing statistics-based solution targets this attribute
	// (or an equivalent one), otherwise hash.
	mapper := partition.Mapper(partition.NewHash(p.opts.K))
	for _, tbl := range pre.PartitionedTables {
		for _, c := range byTable[tbl] {
			if c.mapper != nil && compat.Equivalent(c.attr, attr) {
				mapper = c.mapper
				break
			}
		}
	}

	perTable := make([][]*partition.TableSolution, len(pre.PartitionedTables))
	for i, tbl := range pre.PartitionedTables {
		var reduced []*tableCandidate
		for _, c := range byTable[tbl] {
			if compat.Equivalent(c.attr, attr) || compat.Coarser(attr, c.attr) {
				reduced = append(reduced, c)
			}
		}
		reduced = mergeCandidates(reduced, compat)
		var opts []*partition.TableSolution
		for _, c := range reduced {
			full := c.path
			if !compat.Equivalent(c.attr, attr) {
				if p.opts.IntraTableOnly {
					// The ablation forbids join extension: paths may not
					// be stretched to attributes of other tables.
					continue
				}
				ext, ok := compat.ExtensionPath(c.attr, attr)
				if !ok {
					continue
				}
				joined, err := c.path.Concat(ext)
				if err != nil {
					continue
				}
				full = joined
			}
			opts = append(opts, partition.NewByPath(tbl, full, mapper))
		}
		opts = dedupeTableSolutions(opts)
		if len(opts) == 0 {
			// §6 step 2: empty reduced set — add the full replication
			// solution.
			opts = []*partition.TableSolution{partition.NewReplicated(tbl)}
		}
		perTable[i] = opts
	}

	// Enumerate the cross product, bounded.
	var out []*partition.Solution
	idx := make([]int, len(perTable))
	for {
		sol := partition.NewSolution("jecb-candidate", p.opts.K)
		for _, t := range p.in.DB.Schema().Tables() {
			if pre.Replicated[t.Name] {
				sol.Set(partition.NewReplicated(t.Name))
			}
		}
		for i := range perTable {
			sol.Set(perTable[i][idx[i]])
		}
		// Tables neither replicated nor partitioned (not accessed at
		// all): replicate.
		for _, t := range p.in.DB.Schema().Tables() {
			if sol.Table(t.Name) == nil {
				sol.Set(partition.NewReplicated(t.Name))
			}
		}
		out = append(out, sol)
		if len(out) >= maxCombos {
			return out, nil
		}
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
			return out, nil
		}
	}
}

// mergeCandidates collapses compatible candidates of one table
// (Definition 14): for each compatible pair the merged solution is the
// coarser-path one (or the non-MI one for equivalent paths, which keeps
// the explicit mapping).
func mergeCandidates(cands []*tableCandidate, compat *attrCompat) []*tableCandidate {
	kept := append([]*tableCandidate(nil), cands...)
	for {
		merged := false
	outer:
		for i := 0; i < len(kept); i++ {
			for j := i + 1; j < len(kept); j++ {
				a, b := kept[i], kept[j]
				rel := comparePaths(a.path, b.path, compat)
				if rel == pathsIncompatible {
					continue
				}
				// Definition 14's side condition: equivalent paths need
				// one MI solution; otherwise the finer one must be MI.
				var winner *tableCandidate
				switch rel {
				case pathsEquivalent:
					switch {
					case a.mi:
						winner = b
					case b.mi:
						winner = a
					default:
						continue
					}
				case pathSecondCoarser: // b coarser, a finer
					if !a.mi {
						continue
					}
					winner = b
				case pathFirstCoarser: // a coarser, b finer
					if !b.mi {
						continue
					}
					winner = a
				}
				// Remove the non-winner.
				out := kept[:0:0]
				for _, c := range kept {
					if c != a && c != b {
						out = append(out, c)
					}
				}
				kept = append(out, winner)
				merged = true
				break outer
			}
		}
		if !merged {
			return kept
		}
	}
}

// dedupeTableSolutions removes structurally identical table solutions.
func dedupeTableSolutions(ss []*partition.TableSolution) []*partition.TableSolution {
	var out []*partition.TableSolution
	for _, s := range ss {
		dup := false
		for _, o := range out {
			if o.Path.Equal(s.Path) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}
