package placement

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/fixture"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/value"
)

func custInfoSolution(k int) *partition.Solution {
	sol := partition.NewSolution("jecb", k)
	sol.Set(partition.NewByPath("TRADE", fixture.TradePath(), partition.NewHash(k)))
	sol.Set(partition.NewByPath("HOLDING_SUMMARY", fixture.HSPath(), partition.NewHash(k)))
	sol.Set(partition.NewByPath("CUSTOMER_ACCOUNT", fixture.CAPath(), partition.NewHash(k)))
	return sol
}

func TestHeatSumsToWorkload(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 300, 2)
	heat, err := Heat(d, custInfoSolution(4), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(heat) != 4 {
		t.Fatalf("heat len = %d", len(heat))
	}
	total := 0.0
	for _, h := range heat {
		total += h
	}
	// Every transaction contributes at most 1 unit (fully replicated
	// reads contribute 0); the CustInfo fixture has no such reads.
	if total < float64(tr.Len())*0.95 || total > float64(tr.Len())*1.05 {
		t.Errorf("total heat = %.1f, want ≈ %d", total, tr.Len())
	}
}

func TestPackBalancesSkew(t *testing.T) {
	// 16 partitions with zipf-ish heat onto 4 nodes: the packed
	// imbalance must be far below the skew of naive contiguous mapping.
	heat := []float64{100, 60, 40, 30, 20, 15, 12, 10, 8, 6, 5, 4, 3, 2, 1, 1}
	plan, err := Pack(heat, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The hottest partition (100 of 317 total over 4 nodes) floors the
	// imbalance at 100/79.25 ≈ 1.262; LPT must reach that optimum.
	if got := plan.Imbalance(heat); got > 1.27 {
		t.Errorf("packed imbalance = %.3f, want the 1.262 optimum", got)
	}
	// Naive contiguous assignment: node = p / 4.
	naive := &Plan{Node: make([]int, 16), Nodes: 4}
	for p := range naive.Node {
		naive.Node[p] = p / 4
	}
	if plan.Imbalance(heat) >= naive.Imbalance(heat) {
		t.Errorf("packing (%.3f) must beat contiguous (%.3f)",
			plan.Imbalance(heat), naive.Imbalance(heat))
	}
	loads := plan.NodeLoads(heat)
	if len(loads) != 4 {
		t.Errorf("loads = %v", loads)
	}
}

func TestPackErrors(t *testing.T) {
	if _, err := Pack([]float64{1}, 0); err == nil {
		t.Error("zero nodes must error")
	}
}

// TestPackLPTBoundProperty: greedy list scheduling satisfies Graham's
// bound — the hottest node carries at most mean + (1-1/m) * the hottest
// single partition. (The tighter 4/3*OPT LPT bound is not checkable
// here because OPT is not mean: with more partitions than nodes some
// node must carry several partitions, so mean underestimates OPT and a
// mean-based 4/3 bound fails on valid packings.)
func TestPackLPTBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(56)
		nodes := 2 + rng.Intn(6)
		heat := make([]float64, n)
		total, maxPart := 0.0, 0.0
		for i := range heat {
			heat[i] = rng.Float64() * 100
			total += heat[i]
			if heat[i] > maxPart {
				maxPart = heat[i]
			}
		}
		plan, err := Pack(heat, nodes)
		if err != nil {
			return false
		}
		loads := plan.NodeLoads(heat)
		maxLoad := 0.0
		for _, l := range loads {
			if l > maxLoad {
				maxLoad = l
			}
		}
		m := float64(nodes)
		bound := total/m + (1-1/m)*maxPart + 1e-9
		return maxLoad <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestApplyPreservesCost: packing logical partitions onto nodes never
// increases the fraction of distributed transactions (co-located tuples
// stay co-located; merging partitions can only merge participant sets).
func TestApplyPreservesCost(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 300, 2)
	logical := custInfoSolution(16)
	heat, err := Heat(d, logical, tr)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Pack(heat, 4)
	if err != nil {
		t.Fatal(err)
	}
	packed := plan.Apply(logical)
	if packed.K != 4 {
		t.Fatalf("packed k = %d", packed.K)
	}
	rl, err := eval.Evaluate(d, logical, tr)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := eval.Evaluate(d, packed, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Cost() > rl.Cost()+1e-9 {
		t.Errorf("packed cost %.4f must not exceed logical cost %.4f", rp.Cost(), rl.Cost())
	}
	// The packed mapper advertises the node count and a composed name.
	ts := packed.Table("TRADE")
	if ts.Mapper.K() != 4 {
		t.Errorf("mapper k = %d", ts.Mapper.K())
	}
	if ts.Mapper.Name() != "hash+packed" {
		t.Errorf("mapper name = %q", ts.Mapper.Name())
	}
	// Replicated tables stay replicated.
	sol2 := custInfoSolution(16)
	sol2.Set(partition.NewReplicated("HOLDING_SUMMARY"))
	packed2 := plan.Apply(sol2)
	if !packed2.Table("HOLDING_SUMMARY").Replicate {
		t.Error("replicated table must stay replicated after packing")
	}
}

// TestSkewedWorkloadPacking is the §8 scenario end to end: a single-table
// workload with zipf-skewed group popularity, partitioned into 8x more
// logical partitions than nodes and then heat-packed. The packed node
// loads must be far better balanced than partitioning directly with
// k = nodes.
func TestSkewedWorkloadPacking(t *testing.T) {
	s := schema.New("skew")
	s.AddTable("EVENTS", schema.Cols("E_ID", schema.Int, "E_G", schema.Int), "E_ID")
	d := db.New(s.MustValidate())
	const groups = 64
	id := int64(0)
	for g := int64(0); g < groups; g++ {
		for i := 0; i < 4; i++ {
			d.Table("EVENTS").MustInsert(value.NewInt(id), value.NewInt(g))
			id++
		}
	}
	// Zipf-ish group popularity: group g drawn with weight 1/(g+1).
	rng := rand.New(rand.NewSource(5))
	weights := make([]float64, groups)
	total := 0.0
	for g := range weights {
		weights[g] = 1 / float64(g+1)
		total += weights[g]
	}
	pickGroup := func() int64 {
		x := rng.Float64() * total
		for g, w := range weights {
			x -= w
			if x < 0 {
				return int64(g)
			}
		}
		return groups - 1
	}
	col := trace.NewCollector()
	for i := 0; i < 2000; i++ {
		g := pickGroup()
		col.Begin("Touch", map[string]value.Value{"g": value.NewInt(g)})
		events := d.Table("EVENTS")
		for _, row := range events.LookupRows("E_G", value.NewInt(g)) {
			col.Write("EVENTS", events.PKOf(row))
		}
		col.Commit()
	}
	tr := col.Trace()

	groupPath := schema.NewJoinPath(
		schema.ColumnSet{Table: "EVENTS", Columns: []string{"E_ID"}},
		schema.ColumnSet{Table: "EVENTS", Columns: []string{"E_G"}},
	)
	build := func(k int) *partition.Solution {
		sol := partition.NewSolution("by-group", k)
		sol.Set(partition.NewByPath("EVENTS", groupPath, partition.NewHash(k)))
		return sol
	}
	const nodes = 4

	// Direct: k = nodes.
	direct := build(nodes)
	directHeat, err := Heat(d, direct, tr)
	if err != nil {
		t.Fatal(err)
	}
	directImb := imbalance(directHeat)

	// Fine + packed: k = 8*nodes, heat-aware bin packing.
	fine := build(8 * nodes)
	heat, err := Heat(d, fine, tr)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Pack(heat, nodes)
	if err != nil {
		t.Fatal(err)
	}
	packedImb := plan.Imbalance(heat)

	if packedImb >= directImb {
		t.Errorf("packed imbalance %.2f must beat direct %.2f", packedImb, directImb)
	}
	if packedImb > 1.4 {
		t.Errorf("packed imbalance = %.2f, want close to 1", packedImb)
	}
	// And the packed solution still costs nothing extra.
	packed := plan.Apply(fine)
	rp, err := eval.Evaluate(d, packed, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Cost() != 0 {
		t.Errorf("packed cost = %.3f, want 0 (single-group transactions)", rp.Cost())
	}
}
