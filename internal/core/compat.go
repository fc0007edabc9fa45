package core

import (
	"repro/internal/schema"
)

// attrCompat answers the paper's Definition 12 queries over a schema:
// whether two single attributes have the same granularity (X ≡ Y, linked
// by key–foreign-key constraints) or one is coarser than the other
// (Y > X, reachable from X via a join path), with the transitive closures
// of Property 2.
//
// Both relations are *directional* along foreign keys. X ≡ Y holds when a
// chain of FK component links leads from X to Y or from Y to X (values
// coincide tuple-for-tuple along the chain). Two attributes that merely
// reference the same parent attribute — Example 9's R2.X1 and R2.X2, both
// referencing R1.X — are NOT equivalent: a tuple's X1 and X2 values
// differ even though their domains coincide.
type attrCompat struct {
	// fwd is the directed FK-component adjacency: source column →
	// referenced column, for every component of every foreign key.
	fwd map[schema.ColumnRef][]schema.ColumnRef
	// proj is the within-table projection adjacency: a single-column
	// primary key reaches every other column of its table (a genuine
	// join-path hop that establishes a new functional dependency).
	proj map[schema.ColumnRef][]schema.ColumnRef
	// hops is fwd restricted to single-column FKs plus proj — the moves
	// from which an actual schema.JoinPath between single attributes can
	// be constructed.
	hops map[schema.ColumnRef][]schema.ColumnRef

	fwdReach map[schema.ColumnRef]map[schema.ColumnRef]bool
	allReach map[schema.ColumnRef]map[schema.ColumnRef]bool
}

func newAttrCompat(sc *schema.Schema) *attrCompat {
	c := &attrCompat{
		fwd:      map[schema.ColumnRef][]schema.ColumnRef{},
		proj:     map[schema.ColumnRef][]schema.ColumnRef{},
		hops:     map[schema.ColumnRef][]schema.ColumnRef{},
		fwdReach: map[schema.ColumnRef]map[schema.ColumnRef]bool{},
		allReach: map[schema.ColumnRef]map[schema.ColumnRef]bool{},
	}
	for _, t := range sc.Tables() {
		if len(t.PrimaryKey) == 1 {
			pk := schema.ColumnRef{Table: t.Name, Column: t.PrimaryKey[0]}
			for _, col := range t.Columns {
				if col.Name != pk.Column {
					to := schema.ColumnRef{Table: t.Name, Column: col.Name}
					c.proj[pk] = append(c.proj[pk], to)
					c.hops[pk] = append(c.hops[pk], to)
				}
			}
		}
	}
	for _, fk := range sc.ForeignKeys {
		for i := range fk.Columns {
			src := schema.ColumnRef{Table: fk.Table, Column: fk.Columns[i]}
			dst := schema.ColumnRef{Table: fk.RefTable, Column: fk.RefColumns[i]}
			c.fwd[src] = append(c.fwd[src], dst)
			if len(fk.Columns) == 1 {
				c.hops[src] = append(c.hops[src], dst)
			}
		}
	}
	return c
}

func bfs(adj func(schema.ColumnRef) []schema.ColumnRef, start schema.ColumnRef) map[schema.ColumnRef]bool {
	seen := map[schema.ColumnRef]bool{start: true}
	queue := []schema.ColumnRef{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range adj(cur) {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return seen
}

// fwdReachable memoizes reachability along FK component links only.
func (c *attrCompat) fwdReachable(x schema.ColumnRef) map[schema.ColumnRef]bool {
	if r, ok := c.fwdReach[x]; ok {
		return r
	}
	r := bfs(func(a schema.ColumnRef) []schema.ColumnRef { return c.fwd[a] }, x)
	c.fwdReach[x] = r
	return r
}

// reachableFrom memoizes reachability along constructible join-path moves
// (single-column FK hops and primary-key projections). Composite FK
// components do NOT contribute: Definition 2 cannot start a hop from one
// component of a composite key, which is exactly why the paper's Example 9
// finds p5 incompatible with p1.
func (c *attrCompat) reachableFrom(x schema.ColumnRef) map[schema.ColumnRef]bool {
	if r, ok := c.allReach[x]; ok {
		return r
	}
	r := bfs(func(a schema.ColumnRef) []schema.ColumnRef { return c.hops[a] }, x)
	c.allReach[x] = r
	return r
}

// Equivalent reports X ≡ Y, Definition 12's "same level of granularity":
// the two attributes' foreign-key chains meet at a common attribute.
// This makes ≡ transitive in the sense of Example 8 (T_CA_ID ≡ CA_ID ≡
// HS_CA_ID implies T_CA_ID ≡ HS_CA_ID: both carry account ids).
func (c *attrCompat) Equivalent(x, y schema.ColumnRef) bool {
	if x == y {
		return true
	}
	rx, ry := c.fwdReachable(x), c.fwdReachable(y)
	if len(rx) > len(ry) {
		rx, ry = ry, rx
	}
	for z := range rx {
		if ry[z] {
			return true
		}
	}
	return false
}

// dirEquivalent reports value correspondence along one directed chain of
// FK component links: X →* Y or Y →* X. This is the relation Definition
// 13's condition 2 needs for path destinations — Example 9's p4 and p5
// both meet at R1.X but their destinations R3.X1 and R3.X2 carry
// *different* values of the shared domain, so the paths are incompatible.
func (c *attrCompat) dirEquivalent(x, y schema.ColumnRef) bool {
	return x == y || c.fwdReachable(x)[y] || c.fwdReachable(y)[x]
}

// Coarser reports Y > X: a join path connects X to Y and they are not
// equivalent.
func (c *attrCompat) Coarser(y, x schema.ColumnRef) bool {
	if c.Equivalent(x, y) {
		return false
	}
	return c.reachableFrom(x)[y]
}

// CoarserOf returns the coarser of two compatible attributes (y for
// equivalent pairs) and whether they were compatible at all: Definition
// 12, equivalent or connected by a join path in either direction.
func (c *attrCompat) CoarserOf(x, y schema.ColumnRef) (schema.ColumnRef, bool) {
	switch {
	case c.Equivalent(x, y):
		return y, true
	case c.reachableFrom(x)[y]:
		return y, true
	case c.reachableFrom(y)[x]:
		return x, true
	default:
		return schema.ColumnRef{}, false
	}
}

// ExtensionPath returns a join path p(X, Y) from attribute X to attribute
// Y built from constructible hops (single-column FK hops and primary-key
// projections), and whether one exists. Used by Phase 3 to extend a
// candidate's path to the search attribute.
func (c *attrCompat) ExtensionPath(x, y schema.ColumnRef) (schema.JoinPath, bool) {
	if x == y {
		return schema.NewJoinPath(schema.ColumnSet{Table: x.Table, Columns: []string{x.Column}}), true
	}
	parent := map[schema.ColumnRef]schema.ColumnRef{x: x}
	queue := []schema.ColumnRef{x}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == y {
			var refs []schema.ColumnRef
			for at := y; ; at = parent[at] {
				refs = append(refs, at)
				if at == x {
					break
				}
			}
			nodes := make([]schema.ColumnSet, len(refs))
			for i := range refs {
				r := refs[len(refs)-1-i]
				nodes[i] = schema.ColumnSet{Table: r.Table, Columns: []string{r.Column}}
			}
			return schema.NewJoinPath(nodes...), true
		}
		for _, next := range c.hops[cur] {
			if _, seen := parent[next]; !seen {
				parent[next] = cur
				queue = append(queue, next)
			}
		}
	}
	return schema.JoinPath{}, false
}

// pathRelation classifies two join paths of the same table under
// Definition 13.
type pathRelation int

const (
	pathsIncompatible pathRelation = iota
	pathsEquivalent                // p1 ≡ p2
	pathSecondCoarser              // p2 > p1
	pathFirstCoarser               // p1 > p2
)

// comparePaths implements Definition 13 for two paths from the same
// table's key. It tries both orderings of the definition's (p1, p2).
func comparePaths(a, b schema.JoinPath, c *attrCompat) pathRelation {
	if a.Len() == 0 || b.Len() == 0 {
		return pathsIncompatible
	}
	// Helper: definition with p1 = shorter (or equal), p2 = longer.
	rel := func(p1, p2 schema.JoinPath) pathRelation {
		x, y := p1.Dest(), p2.Dest()
		switch {
		case p2.HasPrefix(p1):
			// Condition 1. Destination granularity decides the order.
			if p1.Equal(p2) || c.dirEquivalent(x, y) {
				return pathsEquivalent
			}
			return pathSecondCoarser
		case p2.HasPrefix(p1.Trunk()):
			// Condition 2: p1 − X is a prefix of p2, and X, Y compatible
			// in the directional, value-preserving sense.
			switch {
			case c.dirEquivalent(x, y):
				return pathsEquivalent
			case !c.Equivalent(x, y) && c.reachableFrom(x)[y]:
				return pathSecondCoarser
			case !c.Equivalent(x, y) && c.reachableFrom(y)[x]:
				return pathFirstCoarser
			default:
				return pathsIncompatible
			}
		default:
			return pathsIncompatible
		}
	}
	if a.Len() <= b.Len() {
		return rel(a, b)
	}
	switch rel(b, a) {
	case pathsEquivalent:
		return pathsEquivalent
	case pathSecondCoarser:
		return pathFirstCoarser
	case pathFirstCoarser:
		return pathSecondCoarser
	default:
		return pathsIncompatible
	}
}
