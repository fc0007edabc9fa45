package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/db"
	"repro/internal/pool"
	"repro/internal/sqlparse"
	"repro/internal/trace"
	"repro/internal/value"
)

// preprocessed is Phase 1's output: which accessed tables are replicated,
// the per-class trace streams, and the per-class code analyses.
type preprocessed struct {
	// Replicated marks read-only and read-mostly tables (plus tables the
	// schema declares but the workload never writes).
	Replicated map[string]bool
	// PartitionedTables are the accessed tables that must be partitioned,
	// sorted.
	PartitionedTables []string
	// Train is the training trace with its accesses resolved to rows.
	Train resolvedStream
	// Streams maps class name to its homogeneous training stream: the
	// indexes of its transactions in Train, sharing Train's resolution.
	Streams map[string]resolvedStream
	// Mix is each class's share of the training workload.
	Mix map[string]float64
	// Analyses maps class name to its SQL analysis.
	Analyses map[string]*sqlparse.Analysis
	// Test is the test trace, which only the min-cut fallback reads.
	// testIdx indexes its transactions per class; testStream builds it,
	// once, on the first fallback of the run.
	Test     *trace.Trace
	testOnce sync.Once
	testIdx  map[string][]int32
}

// testStream returns the indexes, in the test trace, of class's
// transactions, in trace order.
func (pre *preprocessed) testStream(class string) []int32 {
	pre.testOnce.Do(func() {
		pre.testIdx = map[string][]int32{}
		for i := range pre.Test.Len() {
			c := pre.Test.At(i).Class
			pre.testIdx[c] = append(pre.testIdx[c], int32(i))
		}
	})
	return pre.testIdx[class]
}

// phase1 implements §4: collect statistics from the trace, replicate
// read-only and read-mostly tables, and split the trace per class.
// Every training access is resolved to its row here, once; the class
// streams and phase 3 share that resolution.
func (p *Partitioner) phase1(ctx context.Context, v *db.View) (*preprocessed, error) {
	sc := p.in.DB.Schema()
	train, err := resolveTrace(ctx, p.in.DB, v, p.in.Train, p.opts.parallelism())
	if err != nil {
		return nil, fmt.Errorf("core: phase 1: %w", err)
	}
	pre := &preprocessed{
		Replicated: map[string]bool{},
		Train:      train,
		Streams:    train.split(),
		Mix:        p.in.Train.Mix(),
		Analyses:   map[string]*sqlparse.Analysis{},
		Test:       p.in.Test,
	}

	stats := p.in.Train.Stats()
	total := p.in.Train.Len()
	accessed := map[string]bool{}
	for tbl, st := range stats {
		accessed[tbl] = true
		if st.WriteTxnFraction(total) < p.opts.ReadMostlyThreshold {
			pre.Replicated[tbl] = true
		}
	}
	// Tables the schema declares but the trace never touches are
	// replicated by default: they cost nothing and constrain nothing.
	for _, t := range sc.Tables() {
		if !accessed[t.Name] {
			pre.Replicated[t.Name] = true
		}
	}
	for tbl := range accessed {
		if !pre.Replicated[tbl] {
			pre.PartitionedTables = append(pre.PartitionedTables, tbl)
		}
	}
	sort.Strings(pre.PartitionedTables)

	for _, proc := range p.in.Procedures {
		a, err := sqlparse.Analyze(proc, sc)
		if err != nil {
			return nil, fmt.Errorf("core: phase 1: %w", err)
		}
		pre.Analyses[proc.Name] = a
	}
	// Sanity: every class in the trace must have source code. (TPC-E
	// frames appear as separate classes, each with its own procedure.)
	for class := range pre.Streams {
		if _, ok := pre.Analyses[class]; !ok {
			return nil, fmt.Errorf("core: phase 1: trace class %q has no procedure", class)
		}
	}
	return pre, nil
}

// resolvedStream is a trace whose accesses are resolved to rows, or one
// class's stream of it: the indexes (txns) of the stream's transactions
// in the resolved trace, in trace order, which share the trace's
// resolution instead of copying its transactions. Each access of the
// trace has a code, which is the live row's slot (>= 0), slotMissing, or
// a graveyard code indexing grave, and its table's id: the schema id
// (db.Table.ID), or unknownTable(d) for a table the database lacks.
// Navigation then starts from the slot (nav, through the view's hop
// memo) or the deleted row instead of probing the primary key again. The
// resolution lives for one Partition call and reads rows through that
// call's view, which keeps every writer out of the database, so the
// slots and rows it records stay valid for as long as it lives.
type resolvedStream struct {
	tr     *trace.Trace  // the resolved trace
	txns   []int32       // the stream's transactions: indexes into tr
	v      *db.View      // the view the codes were resolved in, and rows are read through
	first  []int32       // per transaction of tr, and one more: transaction i's codes are codes[first[i]:first[i+1]]
	codes  []int32       // per access of tr, in trace order
	tables []int32       // per access: its table's id
	grave  []value.Tuple // deleted rows, indexed by graveyard code
}

// slotMissing is the code of an access whose key has no row, live or
// deleted. Codes below it are graveyard codes: code -2-i names grave[i].
const slotMissing int32 = -1

// resolveTrace resolves every access of tr to its row with one primary-key
// probe through v, sharding the transactions across the workers. Shards
// record the deleted rows they meet; the rows get their graveyard codes
// afterwards, in shard order.
func resolveTrace(ctx context.Context, d *db.DB, v *db.View, tr *trace.Trace, workers int) (resolvedStream, error) {
	s := resolvedStream{tr: tr, txns: make([]int32, tr.Len()), v: v, first: make([]int32, tr.Len()+1)}
	n := 0
	for i := range s.txns {
		s.txns[i], s.first[i] = int32(i), int32(n)
		n += len(tr.At(i).Accesses)
	}
	s.first[tr.Len()] = int32(n)
	s.codes = make([]int32, n)
	s.tables = make([]int32, n)
	type graveAccess struct {
		j   int32
		row value.Tuple
	}
	graves := make([][]graveAccess, max(workers, 1))
	_, err := pool.Shards(ctx, workers, tr.Len(), func(shard, lo, hi int) {
		name, t, id := "", (*db.Table)(nil), unknownTable(d)
		for i := lo; i < hi; i++ {
			j := s.first[i]
			for _, acc := range tr.At(i).Accesses {
				// Accesses cluster by table, so most skip the map lookup.
				if acc.Table != name || t == nil {
					name, t, id = acc.Table, d.Table(acc.Table), unknownTable(d)
					if t != nil {
						id = int32(t.ID())
					}
				}
				code := slotMissing
				if t != nil {
					if slot, row, ok := v.Resolve(t, acc.Key); ok && slot >= 0 {
						code = int32(slot)
					} else if ok {
						graves[shard] = append(graves[shard], graveAccess{j, row})
					}
				}
				s.codes[j], s.tables[j] = code, id
				j++
			}
		}
	})
	if err != nil {
		return resolvedStream{}, err
	}
	for _, g := range graves {
		for _, ga := range g {
			s.codes[ga.j] = -2 - int32(len(s.grave))
			s.grave = append(s.grave, ga.row)
		}
	}
	return s, nil
}

// unknownTable is the table id resolveTrace gives every access to a table
// the database lacks: one past the schema ids, so per-table-id slices
// sized unknownTable(d)+1 index any access.
func unknownTable(d *db.DB) int32 { return int32(len(d.Schema().Tables())) }

// split is trace.Trace.Split over the resolution, without copying a
// transaction: one stream per class, indexing s's transactions of that
// class.
func (s resolvedStream) split() map[string]resolvedStream {
	txns := map[string][]int32{}
	for _, t := range s.txns {
		c := s.tr.At(int(t)).Class
		txns[c] = append(txns[c], t)
	}
	out := make(map[string]resolvedStream, len(txns))
	for c, ts := range txns {
		cs := s
		cs.txns = ts
		out[c] = cs
	}
	return out
}

// Len returns the number of the stream's transactions.
func (s resolvedStream) Len() int { return len(s.txns) }

// At returns the stream's transaction i.
func (s resolvedStream) At(i int) *trace.Txn { return s.tr.At(int(s.txns[i])) }

// txnCodes returns the access codes of the stream's transaction i.
func (s resolvedStream) txnCodes(i int) []int32 {
	t := s.txns[i]
	return s.codes[s.first[t]:s.first[t+1]]
}

// txnTables returns the table ids of the stream's transaction i's
// accesses.
func (s resolvedStream) txnTables(i int) []int32 {
	t := s.txns[i]
	return s.tables[s.first[t]:s.first[t+1]]
}

// row returns the row an access of table t resolved to, or nil when the
// access has none (which every navigation treats as dangling).
func (s resolvedStream) row(t *db.Table, code int32) value.Tuple {
	switch {
	case code >= 0:
		return s.v.RowAt(t, int(code))
	case code == slotMissing:
		return nil
	default:
		return s.grave[-2-code]
	}
}

// nav follows tn's join path from the row an access of tn's table
// resolved to, with View.FromRow's result semantics: from a live row's
// slot through the view's hop memo, else from the deleted row (or none).
func (s resolvedStream) nav(tn tableNav, code int32) (value.Value, bool) {
	if code >= 0 {
		return s.v.FromSlot(tn.nav, int(code))
	}
	return s.v.FromRow(tn.nav, s.row(tn.t, code))
}
