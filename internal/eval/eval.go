// Package eval implements the partitioning evaluator of the paper's
// evaluation framework (Figure 4): it applies a partitioning solution to a
// testing trace and computes the cost — the percentage of distributed
// transactions (Definitions 5 and 6) — overall and per transaction class,
// plus partitions-touched statistics and resource accounting for the
// scalability experiments (Tables 1–2).
package eval

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/trace"
)

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	cEvaluations = obs.Default.Counter("eval.evaluations")
	cTxnsScored  = obs.Default.Counter("eval.txns_scored")
	cTxnsDist    = obs.Default.Counter("eval.txns_distributed")
	cAssigners   = obs.Default.Counter("eval.assigners_built")
	gEvalWorkers = obs.Default.Gauge("eval.workers")
)

// ClassResult aggregates cost for one transaction class.
type ClassResult struct {
	Class       string
	Total       int
	Distributed int
}

// Cost is the fraction of the class's transactions that are distributed.
func (c *ClassResult) Cost() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Distributed) / float64(c.Total)
}

// Result is the outcome of evaluating one solution on one trace.
type Result struct {
	Solution    string
	K           int
	Total       int
	Distributed int
	ByClass     map[string]*ClassResult
}

// Cost is Definition 6: the fraction of distributed transactions.
func (r *Result) Cost() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Distributed) / float64(r.Total)
}

// Classes returns per-class results sorted by class name.
func (r *Result) Classes() []*ClassResult {
	out := make([]*ClassResult, 0, len(r.ByClass))
	for _, c := range r.ByClass {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s (k=%d): %.1f%% distributed (%d/%d)",
		r.Solution, r.K, 100*r.Cost(), r.Distributed, r.Total)
}

// tableBinding is the prepared placement of one covered table: a
// compiled join path and its mapper, or a nil nav for a replicated table.
type tableBinding struct {
	nav    *db.Nav
	mapper partition.Mapper
}

// Assigner binds a solution to a database: each partitioned table's join
// path is compiled once, so placing a tuple is one allocation-free
// navigation plus a mapper call. Partition queries drive both the
// evaluator and the router. The bindings are immutable after
// construction, so an Assigner is safe for concurrent use: PlaceKey,
// Span and Evaluate may be called from any number of goroutines, and the
// parallel JECB search hammers one shared Assigner from its whole worker
// pool.
//
// PlaceKey, PlaceTxn and Span read through the caller's db.View of the
// Assigner's database, which a caller opens once around its own loop.
// The bulk readers — Evaluate, Index (and so EvaluateColumnar and each
// chunk of EvaluateStream) and each chunk of PlaceTrace — read through a
// View of their own; opened inside another View of the same database,
// it joins that one without locking.
type Assigner struct {
	d        *db.DB
	sol      *partition.Solution
	bindings map[string]tableBinding
}

// NewAssigner validates the solution against the database schema and
// compiles the join path of every partitioned table. The Assigner places
// tuples by the solution's table placements as they are at this call;
// build a new one after changing them.
func NewAssigner(d *db.DB, sol *partition.Solution) (*Assigner, error) {
	if err := sol.Validate(d.Schema()); err != nil {
		return nil, err
	}
	a := &Assigner{d: d, sol: sol, bindings: make(map[string]tableBinding, len(sol.Tables))}
	for name, ts := range sol.Tables {
		if ts.Replicate {
			a.bindings[name] = tableBinding{}
			continue
		}
		nav, err := d.Compile(ts.Path)
		if err != nil {
			return nil, err
		}
		a.bindings[name] = tableBinding{nav: nav, mapper: ts.Mapper}
	}
	cAssigners.Inc()
	return a, nil
}

// PlaceKey returns the partition of an accessed tuple:
// partition.Replicated for replicated tables, a partition in [0..k)
// otherwise. ok is false when the solution does not cover the table or the
// tuple's join path dangles (the tuple cannot be placed, so any
// transaction touching it is distributed). It reads through v, a view of
// the Assigner's database. Safe for concurrent use; it does not
// allocate.
func (a *Assigner) PlaceKey(v *db.View, acc trace.Access) (int, bool) {
	b, ok := a.bindings[acc.Table]
	if !ok {
		return 0, false
	}
	if b.nav == nil {
		return partition.Replicated, true
	}
	val, ok := v.FromKey(b.nav, acc.Key)
	if !ok {
		return 0, false
	}
	return b.mapper.Map(val), true
}

// place is PlaceKey in PlaceIndex's encoding: a partition,
// PlaceReplicated, or PlaceUnplaced.
func (a *Assigner) place(v *db.View, acc trace.Access) int32 {
	p, ok := a.PlaceKey(v, acc)
	switch {
	case !ok:
		return PlaceUnplaced
	case p == partition.Replicated:
		return PlaceReplicated
	default:
		return int32(p)
	}
}

// PlaceTxn appends the placement of each of t's accesses, in access
// order, to dst and returns the extended slice: a partition in [0..k),
// PlaceReplicated, or PlaceUnplaced, as PlaceKey decides through v. It
// does not allocate when dst has room.
func (a *Assigner) PlaceTxn(v *db.View, t *trace.Txn, dst []int32) []int32 {
	for _, acc := range t.Accesses {
		dst = append(dst, a.place(v, acc))
	}
	return dst
}

// TracePlacement is the placement of every access of one trace, filled
// by PlaceTrace's workers ahead of its reader: Txn(i) waits only until
// transaction i's chunk is placed.
type TracePlacement struct {
	place []int32
	end   []int // end[i] is one past transaction i's last placement

	// done[c] is set once chunk c (transactions [c·placeChunkTxns,
	// (c+1)·placeChunkTxns)) is placed; a reader that finds it unset
	// sleeps on cond until a worker sets it. waiting counts the sleeping
	// readers.
	done    []atomic.Bool
	mu      sync.Mutex
	cond    sync.Cond
	waiting int
	// next is the next chunk to claim; stop makes the workers quit
	// before their next claim, and wg joins them.
	next atomic.Int64
	stop atomic.Bool
	wg   sync.WaitGroup
}

// placeChunkTxns is the unit of work of PlaceTrace's workers, and the
// most a reader of a fresh TracePlacement waits for: one chunk of
// TPC-C takes about 0.1 ms to place.
const placeChunkTxns = 32

// Txn returns transaction i's placements, as PlaceTxn appends them,
// waiting until they are placed. It must not be called after Stop.
func (p *TracePlacement) Txn(i int) []int32 {
	if c := i / placeChunkTxns; !p.done[c].Load() {
		p.mu.Lock()
		p.waiting++
		for !p.done[c].Load() {
			p.cond.Wait()
		}
		p.waiting--
		p.mu.Unlock()
	}
	lo, hi := p.bounds(i)
	return p.place[lo:hi:hi]
}

// bounds returns the range of transaction i's placements in p.place.
func (p *TracePlacement) bounds(i int) (lo, hi int) {
	if i > 0 {
		lo = p.end[i-1]
	}
	return lo, p.end[i]
}

// Stop makes the workers quit once their current chunk is placed and
// waits for them to exit. Call it when done reading, also on an early
// return: until then the workers keep placing. It is idempotent.
func (p *TracePlacement) Stop() {
	p.stop.Store(true)
	p.wg.Wait()
}

// PlaceTrace places every access of tr with PlaceTxn into one array and
// returns at once: up to workers goroutines (at least one) claim chunks
// of placeChunkTxns transactions in trace order and fill each chunk's
// part of the array, so a reader going through the trace in order
// overlaps with the placement, and the placements are identical for any
// worker count. The caller must Stop the returned placement. Safe for
// concurrent use.
func (a *Assigner) PlaceTrace(tr *trace.Trace, workers int) *TracePlacement {
	n := tr.Len()
	chunks := (n + placeChunkTxns - 1) / placeChunkTxns
	p := &TracePlacement{end: make([]int, n), done: make([]atomic.Bool, chunks)}
	p.cond.L = &p.mu
	total := 0
	for i := 0; i < n; i++ {
		total += len(tr.At(i).Accesses)
		p.end[i] = total
	}
	p.place = make([]int32, total)
	for w := min(max(1, workers), chunks); w > 0; w-- {
		p.wg.Add(1)
		go p.fill(a, tr)
	}
	return p
}

// fill is one PlaceTrace worker: it places claimed chunks until none is
// left or Stop is called.
func (p *TracePlacement) fill(a *Assigner, tr *trace.Trace) {
	defer p.wg.Done()
	n := tr.Len()
	for !p.stop.Load() {
		c := int(p.next.Add(1)) - 1
		if c >= len(p.done) {
			return
		}
		// One view per chunk, not per placement: the placement can run
		// ahead of its reader for as long as the reader takes, and a
		// view held that long would keep writers out of the database.
		v := a.d.View()
		for i := c * placeChunkTxns; i < min(n, (c+1)*placeChunkTxns); i++ {
			lo, hi := p.bounds(i)
			a.PlaceTxn(v, tr.At(i), p.place[lo:lo:hi])
		}
		v.Close()
		p.mu.Lock()
		p.done[c].Store(true)
		p.cond.Broadcast()
		woke := p.waiting > 0
		p.mu.Unlock()
		if woke {
			// With a worker on every P, a woken reader would otherwise
			// wait for a preemption to run.
			runtime.Gosched()
		}
	}
}

// Span classifies a transaction under the bound solution (Definition
// 5), reading through v as PlaceKey does. It does not allocate for
// partition counts up to 256 (see partition.Set).
func (a *Assigner) Span(v *db.View, t *trace.Txn) Span {
	var s Span
	for _, acc := range t.Accesses {
		s.Add(a.place(v, acc), acc.Write)
	}
	return s
}

// Evaluate scores a solution on a trace.
func Evaluate(d *db.DB, sol *partition.Solution, tr *trace.Trace) (*Result, error) {
	a, err := NewAssigner(d, sol)
	if err != nil {
		return nil, err
	}
	return a.Evaluate(tr, runtime.GOMAXPROCS(0)), nil
}

// tally adds one scored transaction to r and reports whether it is
// distributed, for the caller's per-class count.
func (r *Result) tally(s *Span) bool {
	r.Total++
	if !s.Distributed() {
		return false
	}
	r.Distributed++
	return true
}

// evalShard scores the half-open transaction range [lo, hi) of a trace
// into a private Result. Because per-transaction scoring is independent
// and Result merging is pure integer addition, sharding the trace into
// contiguous ranges and merging in range order is bit-identical to the
// sequential loop.
func (a *Assigner) evalShard(v *db.View, tr *trace.Trace, lo, hi int) *Result {
	r := &Result{
		Solution: a.sol.Name,
		K:        a.sol.K,
		ByClass:  make(map[string]*ClassResult),
	}
	for i := lo; i < hi; i++ {
		t := tr.At(i)
		cr, ok := r.ByClass[t.Class]
		if !ok {
			cr = &ClassResult{Class: t.Class}
			r.ByClass[t.Class] = cr
		}
		cr.Total++
		if s := a.Span(v, t); r.tally(&s) {
			cr.Distributed++
		}
	}
	return r
}

// merge folds o into r (commutative and associative over the counters;
// merge order does not affect the result, only map insertion order, which
// Classes() re-sorts anyway).
func (r *Result) merge(o *Result) {
	r.Total += o.Total
	r.Distributed += o.Distributed
	for name, oc := range o.ByClass {
		cr, ok := r.ByClass[name]
		if !ok {
			cr = &ClassResult{Class: name}
			r.ByClass[name] = cr
		}
		cr.Total += oc.Total
		cr.Distributed += oc.Distributed
	}
}

// Evaluate scores the bound solution on a trace with at most the given
// worker count, sharding the transactions into contiguous ranges of at
// least pool.MinShardItems, scored concurrently and merged
// deterministically in shard order. The result is bit-identical for any workers >= 1
// (workers <= 1, or traces too small to shard, take the sequential
// path). Safe for concurrent use: many Evaluate calls may run against
// one shared Assigner. Every shard reads through one db.View.
func (a *Assigner) Evaluate(tr *trace.Trace, workers int) *Result {
	v := a.d.View()
	defer v.Close()
	n := tr.Len()
	workers = pool.ShardCount(workers, n)
	if workers == 1 {
		return a.evalShard(v, tr, 0, n).scored()
	}
	gEvalWorkers.Set(float64(workers))
	shards := make([]*Result, workers)
	pool.Shards(context.TODO(), workers, n, func(w, lo, hi int) {
		shards[w] = a.evalShard(v, tr, lo, hi)
	})
	r := shards[0]
	for _, s := range shards[1:] {
		r.merge(s)
	}
	return r.scored()
}

// scored counts a finished evaluation in the registry and returns r.
func (r *Result) scored() *Result {
	cEvaluations.Inc()
	cTxnsScored.Add(int64(r.Total))
	cTxnsDist.Add(int64(r.Distributed))
	return r
}
