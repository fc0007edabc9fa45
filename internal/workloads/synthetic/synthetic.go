// Package synthetic implements the §7.6 workload: a simple 1-to-n schema
// (PARENT ← CHILD) with two transaction classes.
//
//   - ByGroup respects the schema: it selects the parents of one P_GROUP
//     value and touches them with all their children. Its natural
//     partitioning attribute (P_GROUP) lives in the PARENT table, so
//     co-locating CHILD rows requires a join path — exactly what
//     join-extension provides and intra-table ("column-based") designs
//     cannot express.
//   - ByTag joins implicitly on a non-key CHILD attribute (C_TAG) that
//     crosscuts parents: the schema's FK structure says nothing about it,
//     so a column-based design handles it directly while join extension
//     gains nothing.
//
// The mix between the classes is the experiment's x-axis: join-extension
// wins while schema-respecting transactions dominate, column-based wins
// when the implicit-join class dominates (paper §7.6).
package synthetic

import (
	"fmt"
	"math/rand"

	"repro/internal/db"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workloads"
)

// Shape constants.
const (
	ChildrenPerParent = 8
	ParentsPerGroup   = 4
)

// Schema returns the two-table synthetic schema.
func Schema() *schema.Schema {
	s := schema.New("synthetic")
	s.AddTable("PARENT", schema.Cols(
		"P_ID", schema.Int,
		"P_GROUP", schema.Int,
		"P_STATE", schema.Int,
	), "P_ID")
	s.AddTable("CHILD", schema.Cols(
		"C_ID", schema.Int,
		"C_P_ID", schema.Int,
		"C_TAG", schema.Int,
		"C_STATE", schema.Int,
	), "C_ID")
	s.AddFK("CHILD", []string{"C_P_ID"}, "PARENT", []string{"P_ID"})
	return s.MustValidate()
}

func iv(n int64) value.Value { return value.NewInt(n) }

// Generate builds the database: parents × ChildrenPerParent children.
// Parents p with the same p/ParentsPerGroup belong to one group; tags
// crosscut both parents and groups (child i of parent p carries tag
// (p + i*31) mod numTags).
func Generate(parents int, seed int64) (*db.DB, error) {
	if parents <= 0 {
		return nil, fmt.Errorf("synthetic: parents = %d", parents)
	}
	d := db.New(Schema())
	numTags := tags(parents)
	pt := d.Table("PARENT")
	ct := d.Table("CHILD")
	id := int64(0)
	for p := 0; p < parents; p++ {
		group := int64(p / ParentsPerGroup)
		pt.MustInsert(iv(int64(p)), iv(group), iv(0))
		for i := 0; i < ChildrenPerParent; i++ {
			tag := (int64(p) + int64(i)*31) % int64(numTags)
			ct.MustInsert(iv(id), iv(int64(p)), iv(tag), iv(0))
			id++
		}
	}
	return d, nil
}

// tags returns the tag-domain size for a parent count.
func tags(parents int) int {
	n := parents / 2
	if n < 4 {
		n = 4
	}
	return n
}

var (
	byGroupProc = sqlparse.MustProcedure("ByGroup", []string{"group"}, `
		SELECT @p_id = P_ID FROM PARENT WHERE P_GROUP = @group;
		UPDATE PARENT SET P_STATE = P_STATE + 1 WHERE P_ID = @p_id;
		UPDATE CHILD SET C_STATE = C_STATE + 1 WHERE C_P_ID = @p_id;
	`)
	byTagProc = sqlparse.MustProcedure("ByTag", []string{"tag"}, `
		UPDATE CHILD SET C_STATE = C_STATE + 1 WHERE C_TAG = @tag;
	`)
)

// bench implements workloads.Benchmark with a configurable mix.
type bench struct {
	schemaFrac float64
}

// New returns the synthetic benchmark with the default 50/50 mix.
func New() workloads.Benchmark { return bench{schemaFrac: 0.5} }

// NewWithMix returns the benchmark with the given fraction of
// schema-respecting (ByGroup) transactions; the remainder are
// implicit-join (ByTag) transactions.
func NewWithMix(schemaFrac float64) workloads.Benchmark {
	if schemaFrac < 0 || schemaFrac > 1 {
		panic(fmt.Sprintf("synthetic: bad mix %v", schemaFrac))
	}
	return bench{schemaFrac: schemaFrac}
}

func (bench) Name() string      { return "synthetic" }
func (bench) DefaultScale() int { return 200 }

func (bench) Load(cfg workloads.Config) (*db.DB, error) {
	scale := cfg.Scale
	if scale == 0 {
		scale = 200
	}
	return Generate(scale, cfg.Seed)
}

func (b bench) Classes() []workloads.Class {
	return []workloads.Class{
		{Proc: byGroupProc, Weight: b.schemaFrac, Run: runByGroup},
		{Proc: byTagProc, Weight: 1 - b.schemaFrac, Run: runByTag},
	}
}

func runByGroup(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	ExecByGroup(d, col, rng.Int63n(Groups(d)))
}

func runByTag(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	ExecByTag(d, col, rng.Int63n(int64(Tags(d.Table("PARENT").Len()))))
}

// Groups returns the group-domain size of a generated database.
func Groups(d *db.DB) int64 {
	groups := int64(d.Table("PARENT").Len()) / ParentsPerGroup
	if groups == 0 {
		groups = 1
	}
	return groups
}

// Tags returns the tag-domain size for a parent count (the same domain
// Generate used).
func Tags(parents int) int { return tags(parents) }

// ExecByGroup executes one ByGroup transaction against the chosen group,
// recording its accesses through the collector. Exported so drift
// scenarios (internal/drift) can impose their own key distributions —
// rotating hot ranges, hotspots — instead of the uniform draw of the
// registered benchmark mix.
func ExecByGroup(d *db.DB, col *trace.Collector, g int64) {
	col.Begin("ByGroup", map[string]value.Value{"group": iv(g)})
	parent, child := d.Table("PARENT"), d.Table("CHILD")
	for _, pRow := range parent.LookupRows("P_GROUP", iv(g)) {
		col.Write("PARENT", parent.PKOf(pRow))
		for _, cRow := range child.LookupRows("C_P_ID", pRow[0]) {
			col.Write("CHILD", child.PKOf(cRow))
		}
	}
	col.Commit()
}

// ExecByTag executes one ByTag transaction against the chosen tag,
// recording its accesses through the collector.
func ExecByTag(d *db.DB, col *trace.Collector, tag int64) {
	col.Begin("ByTag", map[string]value.Value{"tag": iv(tag)})
	child := d.Table("CHILD")
	for _, row := range child.LookupRows("C_TAG", iv(tag)) {
		col.Write("CHILD", child.PKOf(row))
	}
	col.Commit()
}
