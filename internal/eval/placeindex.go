package eval

import (
	"repro/internal/obs"
	"repro/internal/trace"
)

var cIndexBuilds = obs.Default.Counter("eval.place_index_builds")

// PlaceIndex is the join-path index: the bound solution's placement of
// every distinct (table, key) pair in a columnar trace, resolved once
// into a dense array indexed by the trace's interned key ids. Scoring a
// transaction then costs one array load per access — no string hashing,
// no navigation, no allocation. The build navigates each distinct key
// once through the Assigner's compiled join paths.
type PlaceIndex struct {
	a     *Assigner
	c     *trace.Columnar
	place []int32 // per key id: partition, PlaceReplicated, or PlaceUnplaced
}

// Index resolves every distinct key of the columnar trace through the
// bound solution, reading through one db.View. Safe for concurrent use
// once built.
func (a *Assigner) Index(c *trace.Columnar) *PlaceIndex {
	v := a.d.View()
	defer v.Close()
	idx := &PlaceIndex{a: a, c: c, place: make([]int32, c.NumKeys())}
	var acc trace.Access
	for keyID := 0; keyID < c.NumKeys(); keyID++ {
		tid, key := c.KeyOf(uint32(keyID))
		acc.Table = c.TableName(tid)
		acc.Key = key
		idx.place[keyID] = a.place(v, acc)
	}
	cIndexBuilds.Inc()
	return idx
}

// Span classifies transaction i of the indexed trace, as Assigner.Span
// classifies the equivalent row transaction.
func (idx *PlaceIndex) Span(i int) Span {
	var s Span
	lo, hi := idx.c.AccessRange(i)
	for j := lo; j < hi; j++ {
		s.Add(idx.place[idx.c.AccessKey(j)], idx.c.AccessWrite(j))
	}
	return s
}

// Evaluate scores the indexed trace, producing a Result identical to the
// row evaluator's on the equivalent trace. Class tallies accumulate in
// arrays indexed by interned class id; the ByClass map is built once at
// the end, so the per-transaction loop does not allocate.
func (idx *PlaceIndex) Evaluate() *Result {
	return idx.evaluate(0).scored()
}

// evaluate tallies the indexed trace's transactions from index lo on.
func (idx *PlaceIndex) evaluate(lo int) *Result {
	c := idx.c
	nc := c.NumClasses()
	totals := make([]int, nc)
	dist := make([]int, nc)
	r := &Result{Solution: idx.a.sol.Name, K: idx.a.sol.K}
	for i := lo; i < c.NumTxns(); i++ {
		cid := c.ClassID(i)
		totals[cid]++
		if s := idx.Span(i); r.tally(&s) {
			dist[cid]++
		}
	}
	r.ByClass = make(map[string]*ClassResult, nc)
	for id := 0; id < nc; id++ {
		if totals[id] == 0 {
			continue
		}
		name := c.ClassName(uint32(id))
		r.ByClass[name] = &ClassResult{Class: name, Total: totals[id], Distributed: dist[id]}
	}
	return r
}

// EvaluateColumnar scores the bound solution on an in-memory columnar
// trace (index build included; prebuild with Index to amortize it).
func (a *Assigner) EvaluateColumnar(c *trace.Columnar) *Result {
	return a.Index(c).Evaluate()
}

// EvaluateStream scores the bound solution on the transactions of a
// streaming columnar trace from index from on (0 scores them all), one
// chunk at a time: each chunk gets a fresh PlaceIndex over its own key
// table (read through a view of its own, as Index takes one) and its
// tallies merge in chunk order, so the Result is identical to loading
// the scored transactions and evaluating them in memory — without ever
// holding more than one chunk. Chunks wholly before from are not indexed.
func (a *Assigner) EvaluateStream(s *trace.Stream, from int) (*Result, error) {
	r := &Result{Solution: a.sol.Name, K: a.sol.K, ByClass: make(map[string]*ClassResult)}
	base := 0 // the trace index of the chunk's first transaction
	for chunk, err := range s.Chunks() {
		if err != nil {
			return nil, err
		}
		if n := chunk.NumTxns(); base+n > from {
			r.merge(a.Index(chunk).evaluate(max(0, from-base)))
		}
		base += chunk.NumTxns()
	}
	return r.scored(), nil
}
