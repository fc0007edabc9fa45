package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/db"
	"repro/internal/joingraph"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/trace"
	"repro/internal/value"
)

// chainWorld is a random three-level chain database A → B → C (via FKs)
// with a grouping column C_G on the root, plus a random workload — the
// arena for checking the paper's formal properties on arbitrary data.
type chainWorld struct {
	d  *db.DB
	tr *trace.Trace
	nA int
}

func chainSchema() *schema.Schema {
	s := schema.New("chain")
	s.AddTable("C", schema.Cols("C_ID", schema.Int, "C_G", schema.Int), "C_ID")
	s.AddTable("B", schema.Cols("B_ID", schema.Int, "B_C_ID", schema.Int), "B_ID")
	s.AddTable("A", schema.Cols("A_ID", schema.Int, "A_B_ID", schema.Int), "A_ID")
	s.AddFK("B", []string{"B_C_ID"}, "C", []string{"C_ID"})
	s.AddFK("A", []string{"A_B_ID"}, "B", []string{"B_ID"})
	return s.MustValidate()
}

func newChainWorld(seed int64) *chainWorld {
	rng := rand.New(rand.NewSource(seed))
	d := db.New(chainSchema())
	nC := 4 + rng.Intn(12)
	nB := nC * (1 + rng.Intn(3))
	nA := nB * (1 + rng.Intn(3))
	for i := 0; i < nC; i++ {
		d.Table("C").MustInsert(value.NewInt(int64(i)), value.NewInt(int64(i%4)))
	}
	for i := 0; i < nB; i++ {
		d.Table("B").MustInsert(value.NewInt(int64(i)), value.NewInt(rng.Int63n(int64(nC))))
	}
	for i := 0; i < nA; i++ {
		d.Table("A").MustInsert(value.NewInt(int64(i)), value.NewInt(rng.Int63n(int64(nB))))
	}
	// Workload: each transaction touches the A-closure of one C group.
	col := trace.NewCollector()
	for i := 0; i < 40; i++ {
		g := value.NewInt(rng.Int63n(4))
		col.Begin("ByGroup", map[string]value.Value{"g": g})
		for _, cRow := range d.Table("C").LookupRows("C_G", g) {
			for _, bRow := range d.Table("B").LookupRows("B_C_ID", cRow[0]) {
				for _, aRow := range d.Table("A").LookupRows("A_B_ID", bRow[0]) {
					col.Write("A", d.Table("A").PKOf(aRow))
				}
			}
		}
		col.Commit()
	}
	return &chainWorld{d: d, tr: col.Trace(), nA: nA}
}

// chainPaths returns A's join paths to B_ID, C_ID and C_G — three nested
// trees, finest to coarsest.
func chainPaths() (toB, toC, toG schema.JoinPath) {
	aID := schema.ColumnSet{Table: "A", Columns: []string{"A_ID"}}
	aFK := schema.ColumnSet{Table: "A", Columns: []string{"A_B_ID"}}
	bID := schema.ColumnSet{Table: "B", Columns: []string{"B_ID"}}
	bFK := schema.ColumnSet{Table: "B", Columns: []string{"B_C_ID"}}
	cID := schema.ColumnSet{Table: "C", Columns: []string{"C_ID"}}
	cG := schema.ColumnSet{Table: "C", Columns: []string{"C_G"}}
	toB = schema.NewJoinPath(aID, aFK, bID)
	toC = schema.NewJoinPath(aID, aFK, bID, bFK, cID)
	toG = schema.NewJoinPath(aID, aFK, bID, bFK, cID, cG)
	return
}

// rows is the world's trace resolved against its database in v, as phase
// 1 resolves the training trace.
func (w *chainWorld) rows(v *db.View) resolvedStream {
	rs, err := resolveTrace(context.Background(), w.d, v, w.tr, 2)
	if err != nil {
		panic(err)
	}
	return rs
}

// testPartitioner builds a Partitioner directly for white-box property
// checks (no procedures needed for the Phase 2 primitives).
func testPartitioner(w *chainWorld) *Partitioner {
	return &Partitioner{
		in:   Input{DB: w.d, Train: w.tr, Test: w.tr},
		opts: Options{K: 4}.withDefaults(),
	}
}

// TestProperty1CoarserPreservesMI checks the paper's Property 1 on random
// worlds: if a finer tree is mapping independent over a workload, every
// coarser compatible tree is too.
func TestProperty1CoarserPreservesMI(t *testing.T) {
	f := func(seed int64) bool {
		w := newChainWorld(seed)
		p := testPartitioner(w)
		toB, toC, toG := chainPaths()
		mkTree := func(root schema.ColumnRef, pa schema.JoinPath) *joingraph.Tree {
			return &joingraph.Tree{Root: root, Paths: map[string]schema.JoinPath{"A": pa}}
		}
		trees := []*joingraph.Tree{
			mkTree(schema.ColumnRef{Table: "B", Column: "B_ID"}, toB),
			mkTree(schema.ColumnRef{Table: "C", Column: "C_ID"}, toC),
			mkTree(schema.ColumnRef{Table: "C", Column: "C_G"}, toG),
		}
		covered := map[string]bool{"A": true}
		v := w.d.View()
		defer v.Close()
		prevMI := false
		for _, tree := range trees { // finest to coarsest
			mi, err := p.mappingIndependent(context.Background(), tree, w.rows(v), covered)
			if err != nil {
				return false
			}
			if prevMI && !mi {
				return false // Property 1 violated
			}
			prevMI = mi
		}
		// The coarsest (C_G) tree is mapping independent by construction:
		// each transaction touches exactly one group's closure.
		mi, err := p.mappingIndependent(context.Background(), trees[2], w.rows(v), covered)
		return err == nil && mi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestProperty1Monotonicity: the single-value fraction itself is
// monotone along the chain of compatible trees (the quantitative version
// of Property 1 the miTolerance logic relies on).
func TestProperty1Monotonicity(t *testing.T) {
	f := func(seed int64) bool {
		w := newChainWorld(seed)
		p := testPartitioner(w)
		toB, toC, toG := chainPaths()
		covered := map[string]bool{"A": true}
		v := w.d.View()
		defer v.Close()
		prev := -1.0
		for _, pa := range []schema.JoinPath{toB, toC, toG} {
			tree := &joingraph.Tree{
				Root:  pa.Dest(),
				Paths: map[string]schema.JoinPath{"A": pa},
			}
			frac, err := p.singleValueFraction(context.Background(), tree, w.rows(v), covered)
			if err != nil {
				return false
			}
			if frac < prev-1e-9 {
				return false
			}
			prev = frac
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// mustNav compiles a join path against the world's database.
func mustNav(t *testing.T, d *db.DB, p schema.JoinPath) *db.Nav {
	t.Helper()
	nav, err := d.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return nav
}

// TestProperty3CompatiblePathsAgree checks Property 3: for compatible
// paths p1 (finer) and p2 (coarser) of the same table, tuples that agree
// under p1 agree under p2.
func TestProperty3CompatiblePathsAgree(t *testing.T) {
	f := func(seed int64) bool {
		w := newChainWorld(seed)
		toB, toC, toG := chainPaths()
		compat := newAttrCompat(w.d.Schema())
		pairs := [][2]schema.JoinPath{{toB, toC}, {toC, toG}, {toB, toG}}
		for _, pair := range pairs {
			p1, p2 := pair[0], pair[1]
			if comparePaths(p1, p2, compat) != pathSecondCoarser {
				return false // precondition: p2 coarser than p1
			}
			e1 := mustNav(t, w.d, p1)
			e2 := mustNav(t, w.d, p2)
			// Compare all tuple pairs of A (bounded world size).
			keys := tableKeys(w.d.Table("A"))
			vals1 := make([]value.Value, len(keys))
			vals2 := make([]value.Value, len(keys))
			v := w.d.View()
			for i, k := range keys {
				v1, ok1 := v.FromKey(e1, k)
				v2, ok2 := v.FromKey(e2, k)
				if !ok1 || !ok2 {
					v.Close()
					return false
				}
				vals1[i], vals2[i] = v1, v2
			}
			v.Close()
			for i := 0; i < len(keys); i++ {
				for j := i + 1; j < len(keys); j++ {
					if vals1[i] == vals1[j] && vals2[i] != vals2[j] {
						return false // Property 3 violated
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestProperty4MergedSolutionsInterchangeable checks Property 4's
// consequence: merging a finer mapping-independent solution into a
// compatible coarser one does not change any transaction's locality —
// there exists a mapping for the finer path reproducing the coarser
// placement, namely composing the coarser mapper with the extension.
func TestProperty4MergedSolutionsInterchangeable(t *testing.T) {
	f := func(seed int64) bool {
		w := newChainWorld(seed)
		toB, _, toG := chainPaths()
		// Coarser solution: A by C_G under hash. Finer path: A by B_ID.
		// Property 4's composed mapping for the finer solution is
		// f1 = p(B_ID → C_G) ∘ f2.
		eG := mustNav(t, w.d, toG)
		eB := mustNav(t, w.d, toB)
		ext := schema.NewJoinPath(toG.Nodes[2:]...) // {B_ID} -> ... -> {C_G}
		if err := ext.Validate(w.d.Schema()); err != nil {
			return false
		}
		eExt := mustNav(t, w.d, ext)
		keys := tableKeys(w.d.Table("A"))
		v := w.d.View()
		defer v.Close()
		for _, k := range keys {
			direct, ok1 := v.FromKey(eG, k)
			bVal, ok2 := v.FromKey(eB, k)
			if !ok1 || !ok2 {
				return false
			}
			// Composition: evaluate the extension from the B row keyed by
			// the finer path's value.
			composed, ok3 := v.FromKey(eExt, value.MakeKey(bVal))
			if !ok3 || composed != direct {
				return false // Property 4's equality P1(t) = P2(t) fails
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPhase2OnChainWorld runs the full white-box Phase 1+2 on the chain
// world with a real procedure, asserting the expected C_G total solution.
func TestPhase2OnChainWorld(t *testing.T) {
	// Pick a world where groups span several C rows, so the finer roots
	// (C_ID and below) are genuinely not mapping independent.
	var w *chainWorld
	for seed := int64(1); ; seed++ {
		w = newChainWorld(seed)
		if w.d.Table("C").Len() >= 12 {
			break
		}
	}
	proc := sqlparse.MustProcedure("ByGroup", []string{"g"}, `
		SELECT @c_id = C_ID FROM C WHERE C_G = @g;
		SELECT @b_id = B_ID FROM B WHERE B_C_ID = @c_id;
		UPDATE A SET A_B_ID = A_B_ID WHERE A_B_ID = @b_id;
	`)
	p, err := New(Input{
		DB: w.d, Procedures: []*sqlparse.Procedure{proc}, Train: w.tr,
	}, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	v := p.in.DB.View()
	defer v.Close()
	pre, err := p.phase1(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	classes, err := p.phase2(context.Background(), pre)
	if err != nil {
		t.Fatal(err)
	}
	cr := classes["ByGroup"]
	if cr == nil || len(cr.Total) == 0 {
		t.Fatalf("no totals: %+v", cr)
	}
	if cr.Total[0].Root().Column != "C_G" {
		t.Errorf("root = %v, want C_G", cr.Total[0].Root())
	}
}
