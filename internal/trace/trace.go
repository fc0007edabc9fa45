// Package trace models workload traces: per-transaction sets of accessed
// tuples (paper Definition 1), the collector that records them while
// stored procedures execute (§4, "collecting the workload trace"), the
// pre-processing operations JECB's Phase 1 performs — splitting the trace
// into per-class streams and into training/testing halves (§7.1) — and
// two representations of the same workload: the row-oriented Trace
// ([]Txn) and the columnar, interned Columnar/Stream forms the large-
// trace paths run on.
//
// Consumers read traces through the cursor API (All, Class, At) shared by
// every representation; see Workload.
package trace

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/value"
)

// ErrCollectorMisuse is the typed value the Collector's invariant panics
// wrap: Begin with an open transaction, or access/Commit/Abort without
// one. These are programmer errors in workload drivers — not external
// input — so they panic rather than return, but the panic value unwraps to
// this sentinel (errors.Is) so the pipeline boundary in cmd/jecb can
// classify what it recovered (DESIGN.md, "Error-handling policy").
var ErrCollectorMisuse = errors.New("trace: collector misuse")

// Access is one tuple touched by a transaction, identified by table and
// primary key. Write marks updates, inserts, and deletes.
type Access struct {
	Table string
	Key   value.Key
	Write bool
}

// Txn is one executed transaction: the tuples it read and wrote (its
// read set R and write set W) plus the class that produced it and the
// stored-procedure input parameters (kept for routing evaluation).
type Txn struct {
	ID       int
	Class    string
	Params   map[string]value.Value
	Accesses []Access

	// tables caches the sorted distinct-table list Tables() computes.
	// Drift detection and migration planning ask for it repeatedly per
	// transaction; the cache assumes Accesses is not mutated after the
	// first Tables() call (collection fills Accesses before anyone reads).
	tables []string
}

// Tables returns the distinct tables the transaction touched, sorted.
// The result is cached on the transaction (and shared between calls):
// callers must not mutate it, and must not mutate Accesses afterwards.
func (t *Txn) Tables() []string {
	if t.tables != nil {
		return t.tables
	}
	out := make([]string, 0, len(t.Accesses))
	for _, a := range t.Accesses {
		out = append(out, a.Table)
	}
	sort.Strings(out)
	// Dedup in place.
	w := 0
	for i, tbl := range out {
		if i == 0 || tbl != out[w-1] {
			out[w] = tbl
			w++
		}
	}
	t.tables = out[:w]
	return t.tables
}

// Trace is a bag of transactions (paper Definition 1's workload), stored
// row-oriented. Build one with FromTxns, Append, or a Collector; read it
// through the cursor API (All, Class, At). For large workloads prefer
// the columnar forms (Columnarize, OpenColumnar), which implement the
// same cursor contract.
type Trace struct {
	txns []Txn

	// cache holds the derived views (Classes, Mix, Stats), rebuilt
	// whenever the transaction count changes. Drift detection asks for
	// Mix on every window; before the cache each call re-counted and
	// re-sorted the whole window.
	cache traceCache
}

type traceCache struct {
	n       int // len(txns) the cache was built at (n==0 means unbuilt)
	classes []string
	mix     map[string]float64
	stats   map[string]*TableStats
}

// FromTxns wraps a transaction slice as a Trace, taking ownership of the
// slice.
func FromTxns(txns []Txn) *Trace { return &Trace{txns: txns} }

// Append adds transactions to the trace.
func (tr *Trace) Append(txns ...Txn) { tr.txns = append(tr.txns, txns...) }

// At returns the i-th transaction. The pointer stays valid until the
// trace is appended to (sharded scans index the trace directly).
func (tr *Trace) At(i int) *Txn { return &tr.txns[i] }

// Len returns the number of transactions.
func (tr *Trace) Len() int { return len(tr.txns) }

// All returns a cursor over (index, transaction) in trace order. The
// yielded pointers are stable for the row representation; see Workload
// for the contract columnar representations add.
func (tr *Trace) All() iter.Seq2[int, *Txn] {
	return func(yield func(int, *Txn) bool) {
		for i := range tr.txns {
			if !yield(i, &tr.txns[i]) {
				return
			}
		}
	}
}

// cached returns the derived-view cache, rebuilding it if the trace has
// grown or shrunk since it was built.
func (tr *Trace) cached() *traceCache {
	if tr.cache.n == len(tr.txns) && tr.cache.classes != nil {
		return &tr.cache
	}
	counts := map[string]int{}
	for i := range tr.txns {
		counts[tr.txns[i].Class]++
	}
	classes := make([]string, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var mix map[string]float64
	if len(tr.txns) > 0 {
		mix = make(map[string]float64, len(counts))
		for c, n := range counts {
			mix[c] = float64(n) / float64(len(tr.txns))
		}
	}
	tr.cache = traceCache{n: len(tr.txns), classes: classes, mix: mix}
	return &tr.cache
}

// Classes returns the distinct transaction class names, sorted. The
// slice is cached and shared between calls: callers must not mutate it.
func (tr *Trace) Classes() []string { return tr.cached().classes }

// Mix returns each class's fraction of the workload (nil for an empty
// trace). The map is cached and shared between calls: callers must not
// mutate it.
func (tr *Trace) Mix() map[string]float64 { return tr.cached().mix }

// TrainTest splits the trace into a training part with the given fraction
// of transactions and a testing part with the remainder. The split is a
// deterministic shuffle under the provided source so experiments are
// reproducible.
func (tr *Trace) TrainTest(trainFrac float64, rng *rand.Rand) (train, test *Trace) {
	if trainFrac < 0 || trainFrac > 1 {
		panic(fmt.Sprintf("trace: bad training fraction %v", trainFrac))
	}
	perm := rng.Perm(len(tr.txns))
	n := int(float64(len(tr.txns)) * trainFrac)
	train, test = &Trace{}, &Trace{}
	for i, pi := range perm {
		if i < n {
			train.txns = append(train.txns, tr.txns[pi])
		} else {
			test.txns = append(test.txns, tr.txns[pi])
		}
	}
	return train, test
}

// Head returns a trace containing the first n transactions (or all of
// them when n exceeds the length). Used to build coverage-limited
// training sets.
func (tr *Trace) Head(n int) *Trace {
	if n > len(tr.txns) {
		n = len(tr.txns)
	}
	return &Trace{txns: tr.txns[:n]}
}

// Window returns the sliding window of n transactions starting at index
// i, sharing the underlying transaction storage (no copy). Out-of-range
// prefixes and suffixes clamp: a start past the end yields an empty
// trace, and a window overrunning the end is truncated. Negative i or n
// panic — window arithmetic is caller code, not external input.
//
// The drift detector consumes consecutive Window(i, n) slices of a live
// trace; before this helper every caller re-sliced the storage ad hoc.
func (tr *Trace) Window(i, n int) *Trace {
	if i < 0 || n < 0 {
		panic(fmt.Sprintf("trace: Window(%d, %d) with negative argument", i, n))
	}
	if i >= len(tr.txns) {
		return &Trace{}
	}
	end := i + n
	if end > len(tr.txns) {
		end = len(tr.txns)
	}
	return &Trace{txns: tr.txns[i:end]}
}

// NumWindows returns how many complete and partial windows of size n the
// trace splits into (ceil(len/n)); zero for an empty trace. It panics on
// n <= 0.
func (tr *Trace) NumWindows(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("trace: NumWindows(%d)", n))
	}
	return (len(tr.txns) + n - 1) / n
}

// Concat returns a new trace holding this trace's transactions followed
// by every other trace's, in argument order. The transactions are copied
// into fresh storage, so the result is safe to append to without
// aliasing the inputs; nil inputs are skipped.
func (tr *Trace) Concat(others ...*Trace) *Trace {
	total := len(tr.txns)
	for _, o := range others {
		if o != nil {
			total += len(o.txns)
		}
	}
	out := &Trace{txns: make([]Txn, 0, total)}
	out.txns = append(out.txns, tr.txns...)
	for _, o := range others {
		if o != nil {
			out.txns = append(out.txns, o.txns...)
		}
	}
	return out
}

// TableStats aggregates per-table write behaviour over a trace; JECB
// Phase 1 uses it to pick replicated (read-only / read-mostly) tables.
type TableStats struct {
	WriteTxns int // transactions that wrote this table at least once
}

// WriteTxnFraction is the fraction of all transactions that write the
// table.
func (s TableStats) WriteTxnFraction(totalTxns int) float64 {
	if totalTxns == 0 {
		return 0
	}
	return float64(s.WriteTxns) / float64(totalTxns)
}

// Stats computes per-table access statistics, keyed by table name, with
// an entry for every table the trace accesses. The map is cached and
// shared between calls: callers must not mutate it.
func (tr *Trace) Stats() map[string]*TableStats {
	c := tr.cached()
	if c.stats != nil {
		return c.stats
	}
	out := map[string]*TableStats{}
	last := map[*TableStats]int{} // 1 + the last transaction counted in WriteTxns
	for i := range tr.txns {
		for _, a := range tr.txns[i].Accesses {
			s, ok := out[a.Table]
			if !ok {
				s = &TableStats{}
				out[a.Table] = s
			}
			if a.Write && last[s] != i+1 {
				last[s] = i + 1
				s.WriteTxns++
			}
		}
	}
	c.stats = out
	return out
}

// Collector records accesses while stored procedures run. One collector
// instruments one workload execution; it is not safe for concurrent use
// (drivers are single-threaded per stream, as in the paper's framework).
type Collector struct {
	nextID int
	open   bool
	// cur is the open transaction. Its accesses collect in acc, a buffer
	// reused across transactions; Commit copies them out at their exact
	// length, so each transaction costs one access allocation.
	cur Txn
	acc []Access
	// idx deduplicates accesses within the open transaction: a tuple read
	// then written is recorded once with Write=true. One map serves every
	// transaction; Begin clears it.
	idx  map[Access]int
	done []Txn
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Begin opens a transaction of the given class. Params are the stored
// procedure's input arguments (copied).
func (c *Collector) Begin(class string, params map[string]value.Value) {
	if c.open {
		panic(fmt.Errorf("%w: Begin with open transaction", ErrCollectorMisuse))
	}
	var p map[string]value.Value
	if len(params) > 0 {
		p = make(map[string]value.Value, len(params))
		for k, v := range params {
			p[k] = v
		}
	}
	c.open = true
	c.cur = Txn{ID: c.nextID, Class: class, Params: p}
	c.acc = c.acc[:0]
	if c.idx == nil {
		c.idx = make(map[Access]int)
	}
	clear(c.idx)
	c.nextID++
}

// Read records a tuple read in the open transaction.
func (c *Collector) Read(table string, key value.Key) { c.access(table, key, false) }

// Write records a tuple write in the open transaction.
func (c *Collector) Write(table string, key value.Key) { c.access(table, key, true) }

func (c *Collector) access(table string, key value.Key, write bool) {
	if !c.open {
		panic(fmt.Errorf("%w: access outside transaction", ErrCollectorMisuse))
	}
	probe := Access{Table: table, Key: key}
	if i, seen := c.idx[probe]; seen {
		if write {
			c.acc[i].Write = true
		}
		return
	}
	c.idx[probe] = len(c.acc)
	c.acc = append(c.acc, Access{Table: table, Key: key, Write: write})
}

// Commit closes the open transaction and appends it to the trace.
func (c *Collector) Commit() {
	if !c.open {
		panic(fmt.Errorf("%w: Commit without open transaction", ErrCollectorMisuse))
	}
	if len(c.acc) > 0 {
		c.cur.Accesses = slices.Clone(c.acc)
	}
	c.done = append(c.done, c.cur)
	c.open, c.cur = false, Txn{}
}

// Abort discards the open transaction.
func (c *Collector) Abort() {
	if !c.open {
		panic(fmt.Errorf("%w: Abort without open transaction", ErrCollectorMisuse))
	}
	c.open, c.cur = false, Txn{}
	c.nextID--
}

// Trace returns the collected transactions.
func (c *Collector) Trace() *Trace { return &Trace{txns: c.done} }
