// Package placement implements the skew mitigation the paper's conclusion
// sketches as future work (§8): "partition the database into many more
// partitions than processing elements; thus, each processing element can
// have different numbers of partitions mapped to it. A heuristic bin
// packing that does so while considering the heat of partitions might
// alleviate the impact of skew."
//
// The workflow: partition with a large k (say 8× the node count), measure
// each logical partition's heat from a trace, then Pack the partitions
// onto nodes greedily (hottest partition to the coolest node). Balance
// compares the resulting node-load imbalance against partitioning
// directly with k = nodes.
package placement

import (
	"fmt"
	"sort"

	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/value"
)

// Heat measures each logical partition's load under a solution: every
// transaction contributes one unit, split evenly across the partitions it
// touches (replicated reads are free, exactly as in the cost model;
// transactions that write replicated tuples or touch unplaceable tuples
// charge every partition).
func Heat(d *db.DB, sol *partition.Solution, tr *trace.Trace) ([]float64, error) {
	a, err := eval.NewAssigner(d, sol)
	if err != nil {
		return nil, err
	}
	heat := make([]float64, sol.K)
	v := d.View()
	defer v.Close()
	for _, t := range tr.All() {
		s := a.Span(v, t)
		if s.All {
			for p := range heat {
				heat[p] += 1 / float64(sol.K)
			}
			continue
		}
		if s.Parts.Empty() {
			continue // fully replicated read: any node serves it
		}
		share := 1 / float64(s.Parts.Len())
		s.Parts.ForEach(func(p int) {
			heat[p] += share
		})
	}
	return heat, nil
}

// Plan maps logical partitions onto processing nodes.
//
// Stability guarantee: Pack is a pure, deterministic function of (heat,
// nodes) — equal-heat partitions are ordered by ascending partition index,
// so the same inputs always produce the same Plan, and Apply of the same
// Plan to the same Solution always produces the same packed Solution
// (same mappers, same fingerprints). The migration planner
// (internal/migrate) diffs packed deployments as plain Solutions and
// relies on this: a re-run over an unchanged heat vector must produce a
// zero-delta plan, not a cosmetically shuffled one.
type Plan struct {
	// Node[p] is the node hosting logical partition p.
	Node []int
	// Nodes is the node count.
	Nodes int
}

// Pack assigns partitions to nodes with greedy longest-processing-time
// bin packing: hottest partition first, onto the currently coolest node
// (lowest-index node on load ties). Partitions with equal heat are
// packed in ascending partition-index order, making the Plan a
// deterministic function of its inputs — see the Plan stability
// guarantee.
func Pack(heat []float64, nodes int) (*Plan, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("placement: nodes = %d", nodes)
	}
	order := make([]int, len(heat))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if heat[order[i]] != heat[order[j]] {
			return heat[order[i]] > heat[order[j]]
		}
		return order[i] < order[j] // deterministic tie-break
	})
	plan := &Plan{Node: make([]int, len(heat)), Nodes: nodes}
	load := make([]float64, nodes)
	for _, p := range order {
		coolest := 0
		for n := 1; n < nodes; n++ {
			if load[n] < load[coolest] {
				coolest = n
			}
		}
		plan.Node[p] = coolest
		load[coolest] += heat[p]
	}
	return plan, nil
}

// NodeLoads aggregates partition heat per node under the plan.
func (p *Plan) NodeLoads(heat []float64) []float64 {
	loads := make([]float64, p.Nodes)
	for part, node := range p.Node {
		loads[node] += heat[part]
	}
	return loads
}

// Imbalance returns max node load over mean node load (1 = perfect).
func (p *Plan) Imbalance(heat []float64) float64 {
	return imbalance(p.NodeLoads(heat))
}

func imbalance(loads []float64) float64 {
	total, maxl := 0.0, 0.0
	for _, l := range loads {
		total += l
		if l > maxl {
			maxl = l
		}
	}
	if total == 0 {
		return 1
	}
	return maxl / (total / float64(len(loads)))
}

// Apply rewrites a k-partition solution into an n-node solution by
// composing every mapper with the plan (partition p's tuples land on node
// Node[p]). The result is a drop-in partition.Solution over n partitions.
func (p *Plan) Apply(sol *partition.Solution) *partition.Solution {
	out := partition.NewSolution(sol.Name+"+packed", p.Nodes)
	for name, ts := range sol.Tables {
		if ts.Replicate {
			out.Set(partition.NewReplicated(name))
			continue
		}
		out.Set(partition.NewByPath(name, ts.Path, packedMapper{plan: p, inner: ts.Mapper}))
	}
	return out
}

// packedMapper composes a logical-partition mapper with the node plan:
// the inner mapper picks the logical partition, the plan picks the node.
type packedMapper struct {
	plan  *Plan
	inner partition.Mapper
}

// Map implements partition.Mapper.
func (m packedMapper) Map(v value.Value) int {
	p := m.inner.Map(v)
	if p < 0 || p >= len(m.plan.Node) {
		return 0
	}
	return m.plan.Node[p]
}

// K implements partition.Mapper.
func (m packedMapper) K() int { return m.plan.Nodes }

// Name implements partition.Mapper.
func (m packedMapper) Name() string { return m.inner.Name() + "+packed" }
