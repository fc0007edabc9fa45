// Package migrate plans bounded live migrations between two partitioning
// solutions over the same cluster. Given the deployed (old) and freshly
// computed (new) partition.Solution, it computes the minimal
// tuple-movement delta per table — which rows change serving node, and
// between which node pairs — and selects migration units under a
// configurable movement budget. When the full delta exceeds the budget
// the plan clamps to a *partial* migration: units are chosen in
// best-cost-reduction-per-tuple-moved greedy order (SWORD's
// data-movement-budget posture, PAPERS.md), and the resulting hybrid
// solution (migrated tables on the new placement, the rest on the old)
// is itself a valid partition.Solution a deployment can serve through a
// new router.
//
// Movement accounting, per table:
//
//   - partitioned → partitioned: a tuple moves when its old and new
//     nodes differ (both placeable); unplaceable tuples stay put.
//   - partitioned → replicated: every tuple is copied to the K-1 nodes
//     that lack it (rows · (K-1) moves).
//   - replicated → partitioned: free — every node already holds a copy;
//     the non-owners just drop theirs.
//
// The planner depends on placement.Plan/Apply's stability guarantee:
// packed solutions are plain Solutions, so deltas between packed
// deployments are computed the same way.
package migrate

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/value"
)

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	cPlans      = obs.Default.Counter("migrate.plans")
	cPartial    = obs.Default.Counter("migrate.partial_plans")
	cMovedTotal = obs.Default.Counter("migrate.tuples_selected")
	cDeferred   = obs.Default.Counter("migrate.tuples_deferred")
)

// Flow is one directed tuple stream of a migration unit: Tuples rows
// move from node From to node To.
type Flow struct {
	From, To int
	Tuples   int
}

// Unit is one migration chunk: everything one table needs moved to reach
// its new placement. Units are the granularity of the budget clamp and
// of dual-routing during a live migration (a table is either on its old
// placement or its new one, never half-way).
type Unit struct {
	Table string
	// Tuples is the total moved-tuple count (sum over Flows).
	Tuples int
	// Flows breaks the movement down by (source, destination) node pair,
	// sorted by (From, To).
	Flows []Flow
}

// Plan is a bounded migration between two solutions on the same cluster.
type Plan struct {
	OldName, NewName string
	Budget           int
	// Units are the selected migration units, in execution order
	// (best-benefit-per-tuple first).
	Units []Unit
	// Deferred are the units the budget excluded, ordered as considered.
	Deferred []Unit
	// MovedTuples sums the selected units; DeferredTuples the rest.
	MovedTuples, DeferredTuples int
	// Partial is set when at least one unit was deferred.
	Partial bool
	// CostOld, CostPlanned, CostNew are distributed-transaction fractions
	// on the planning trace: deployed solution, hybrid after this plan,
	// and the full new solution.
	CostOld, CostPlanned, CostNew float64
}

// String renders a one-line summary.
func (p *Plan) String() string {
	kind := "full"
	if p.Partial {
		kind = "partial"
	}
	return fmt.Sprintf("migration %s->%s (%s): %d units, %d tuples moved (budget %d, %d deferred), cost %.1f%% -> %.1f%% (full target %.1f%%)",
		p.OldName, p.NewName, kind, len(p.Units), p.MovedTuples, p.Budget,
		p.DeferredTuples, 100*p.CostOld, 100*p.CostPlanned, 100*p.CostNew)
}

// Hybrid returns the solution this plan's selected units reach: migrated
// tables on the new placement, everything else on the old. It is the
// solution the drift replay (sim.CompareDrift) deploys when the plan
// completes; routing it takes a router built by router.New.
func (p *Plan) Hybrid(old, new *partition.Solution) *partition.Solution {
	out := partition.NewSolution(old.Name+"+migrated", old.K)
	selected := map[string]bool{}
	for _, u := range p.Units {
		selected[u.Table] = true
	}
	for name, ts := range old.Tables {
		if selected[name] {
			out.Tables[name] = new.Tables[name]
		} else {
			out.Tables[name] = ts
		}
	}
	// Tables only the new solution covers adopt their new placement.
	for name, ts := range new.Tables {
		if _, ok := out.Tables[name]; !ok && selected[name] {
			out.Tables[name] = ts
		}
	}
	return out
}

// placer resolves one table's serving node for a row under a solution:
// node >= 0, Replicated, or not placeable.
type placer struct {
	ts  *partition.TableSolution
	nav *db.Nav
}

func newPlacer(d *db.DB, sol *partition.Solution, table string) *placer {
	ts := sol.Table(table)
	p := &placer{ts: ts}
	if ts != nil && !ts.Replicate {
		// The solution is validated, so the path compiles; a nil nav
		// would leave the table unplaceable.
		p.nav, _ = d.Compile(ts.Path)
	}
	return p
}

// place returns the row's node (partition.Replicated for replicated
// tables) and whether it is placeable, walking through v.
func (p *placer) place(v *db.View, row value.Tuple) (int, bool) {
	if p.ts == nil {
		return 0, false
	}
	if p.ts.Replicate {
		return partition.Replicated, true
	}
	if p.nav == nil {
		return 0, false
	}
	val, ok := v.FromRow(p.nav, row)
	if !ok {
		return 0, false
	}
	return p.ts.Mapper.Map(val), true
}

// tableDelta scans one table and accumulates its movement flows between
// the old and new placements.
func tableDelta(d *db.DB, old, new *partition.Solution, table string) Unit {
	u := Unit{Table: table}
	po := newPlacer(d, old, table)
	pn := newPlacer(d, new, table)
	oldRepl := po.ts != nil && po.ts.Replicate
	newRepl := pn.ts != nil && pn.ts.Replicate
	if oldRepl && newRepl {
		return u
	}
	flows := map[[2]int]int{}
	v := d.View()
	defer v.Close()
	for _, row := range v.Rows(d.Table(table)) {
		from, okOld := po.place(v, row)
		to, okNew := pn.place(v, row)
		switch {
		case !okOld || !okNew:
			// Unplaceable under either solution: it has no single home to
			// move between; leave it where it is.
		case oldRepl && !newRepl:
			// Dropping replicas is free: the target node already holds a
			// copy.
		case !oldRepl && newRepl:
			// Copy to every node that lacks the row.
			for n := 0; n < new.K; n++ {
				if n != from {
					flows[[2]int{from, n}]++
				}
			}
		case from != to:
			flows[[2]int{from, to}]++
		}
	}
	pairs := make([][2]int, 0, len(flows))
	for pr := range flows {
		pairs = append(pairs, pr)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, pr := range pairs {
		u.Flows = append(u.Flows, Flow{From: pr[0], To: pr[1], Tuples: flows[pr]})
		u.Tuples += flows[pr]
	}
	return u
}

// changedTables returns the tables whose placement differs between the
// solutions (by placement fingerprint), sorted.
func changedTables(old, new *partition.Solution) []string {
	seen := map[string]bool{}
	var out []string
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for name, ts := range old.Tables {
		nts := new.Table(name)
		if nts == nil || nts.Fingerprint() != ts.Fingerprint() {
			add(name)
		}
	}
	for name := range new.Tables {
		if old.Table(name) == nil {
			add(name)
		}
	}
	sort.Strings(out)
	return out
}

// Compute plans the migration from old to new under a movement budget
// (tuples; budget < 0 means unbounded). The planning trace drives the
// benefit estimates: each candidate unit is costed by evaluating the
// hybrid solution with that unit applied, and units are selected
// greedily by cost reduction per tuple moved until the budget is
// exhausted. Free units (zero tuples moved) are always selected. The
// result is deterministic for fixed inputs.
func Compute(d *db.DB, old, new *partition.Solution, tr *trace.Trace, budget int) (*Plan, error) {
	if old.K != new.K {
		return nil, fmt.Errorf("migrate: old k=%d, new k=%d (live migration requires one cluster)", old.K, new.K)
	}
	if err := old.Validate(d.Schema()); err != nil {
		return nil, fmt.Errorf("migrate: old solution: %w", err)
	}
	if err := new.Validate(d.Schema()); err != nil {
		return nil, fmt.Errorf("migrate: new solution: %w", err)
	}
	plan := &Plan{OldName: old.Name, NewName: new.Name, Budget: budget}

	costOf := func(sol *partition.Solution) (float64, error) {
		r, err := eval.Evaluate(d, sol, tr)
		if err != nil {
			return 0, err
		}
		return r.Cost(), nil
	}
	var err error
	if plan.CostOld, err = costOf(old); err != nil {
		return nil, err
	}
	if plan.CostNew, err = costOf(new); err != nil {
		return nil, err
	}

	// Per-table movement deltas for every changed table.
	remaining := map[string]Unit{}
	var names []string
	for _, tbl := range changedTables(old, new) {
		if new.Table(tbl) == nil {
			continue // table vanished from the new solution: nothing to move to
		}
		remaining[tbl] = tableDelta(d, old, new, tbl)
		names = append(names, tbl)
	}
	sort.Strings(names)

	// Greedy selection: repeatedly cost each remaining unit against the
	// current hybrid and take the best benefit-per-tuple that fits the
	// budget. Free units short-circuit with infinite score.
	hybrid := &partition.Solution{Name: old.Name, K: old.K, Tables: cloneTables(old.Tables)}
	curCost := plan.CostOld
	budgetLeft := func() int {
		if budget < 0 {
			return math.MaxInt
		}
		return budget - plan.MovedTuples
	}
	for len(names) > 0 {
		bestIdx := -1
		var bestUnit Unit
		bestScore := math.Inf(-1)
		bestCost := 0.0
		for i, tbl := range names {
			u := remaining[tbl]
			if u.Tuples > budgetLeft() {
				continue
			}
			trial := &partition.Solution{Name: hybrid.Name, K: hybrid.K, Tables: cloneTables(hybrid.Tables)}
			trial.Tables[tbl] = new.Tables[tbl]
			c, err := costOf(trial)
			if err != nil {
				return nil, err
			}
			benefit := curCost - c
			score := math.Inf(1)
			if u.Tuples > 0 {
				score = benefit / float64(u.Tuples)
			}
			if bestIdx < 0 || score > bestScore {
				bestIdx, bestUnit, bestScore, bestCost = i, u, score, c
			}
		}
		if bestIdx < 0 {
			break // nothing fits the remaining budget
		}
		if bestScore < 0 && bestUnit.Tuples > 0 {
			// A cost-increasing unit is only a stepping stone when the rest
			// of the migration can still complete within the budget (the
			// combined delta is what pays off). If it cannot, deploying the
			// negative unit alone would leave the hybrid strictly worse
			// than the deployed solution — stop and defer instead.
			rest := 0
			for _, tbl := range names {
				rest += remaining[tbl].Tuples
			}
			if rest > budgetLeft() {
				break
			}
		}
		plan.Units = append(plan.Units, bestUnit)
		plan.MovedTuples += bestUnit.Tuples
		hybrid.Tables[bestUnit.Table] = new.Tables[bestUnit.Table]
		curCost = bestCost
		names = append(names[:bestIdx], names[bestIdx+1:]...)
	}
	for _, tbl := range names {
		u := remaining[tbl]
		plan.Deferred = append(plan.Deferred, u)
		plan.DeferredTuples += u.Tuples
	}
	plan.Partial = len(plan.Deferred) > 0
	plan.CostPlanned = curCost

	cPlans.Inc()
	if plan.Partial {
		cPartial.Inc()
	}
	cMovedTotal.Add(int64(plan.MovedTuples))
	cDeferred.Add(int64(plan.DeferredTuples))
	obs.Observe("migrate.moved_tuples", float64(plan.MovedTuples))
	return plan, nil
}

func cloneTables(in map[string]*partition.TableSolution) map[string]*partition.TableSolution {
	out := make(map[string]*partition.TableSolution, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}
