package core

import (
	"context"

	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/schema"
)

// comboScorer costs phase-3 solutions on the training trace by scanning
// integer columns. The trace is flattened once into per-access columns;
// each distinct partitioned table option is placed once, by navigating
// each distinct row its table's training accesses resolved to through the
// option's compiled join path, into an []int32 column; a solution is then
// costed by looking its options' columns up per access. Cross-table
// combinations share most of their options, so this replaces one
// navigation of the whole trace per combination with one navigation per
// accessed row per option.
//
// The costs equal eval.Assigner.Evaluate(train, 1).Cost() bit for bit:
// Definition 5 applied per transaction, integer counts, one division.
// A scorer lives for one phase-3 call.
type comboScorer struct {
	// Flattened training trace, one entry per access in trace order.
	txnEnd []int32 // per transaction: one past its last access
	table  []int32 // per access: table id (the resolved trace's own column)
	ord    []int32 // per access: ordinal among its table's accesses
	write  []bool  // per access: write bit

	// Per table id: the table's name ("" when the trace does not access
	// it) and its number of accesses.
	names    []string
	tableLen []int

	// rows is the resolved training trace, and codes its access codes
	// split per table id, in ordinal order.
	rows  resolvedStream
	codes [][]int32

	// Constant columns, sliced to each table's length: every access
	// replicated, and every access unplaced.
	replicated, unplaced []int32

	opts map[*partition.TableSolution]optionColumn
}

// optionColumn is one partitioned table option's placement of its
// table's accesses, or the error compiling its join path.
type optionColumn struct {
	place []int32
	err   error
}

// newComboScorer flattens a resolved trace — a whole one, as
// resolveTrace returns it, not a class stream split from it — into the
// scorer's columns. Its table ids are the resolution's: schema ids, and
// one more for tables the database lacks.
func newComboScorer(tr resolvedStream) *comboScorer {
	s := &comboScorer{
		txnEnd: make([]int32, tr.Len()),
		table:  tr.tables,
		ord:    make([]int32, len(tr.tables)),
		write:  make([]bool, len(tr.tables)),
		rows:   tr,
		opts:   map[*partition.TableSolution]optionColumn{},
	}
	ids := int32(0)
	for _, id := range s.table {
		ids = max(ids, id+1)
	}
	s.names = make([]string, ids)
	s.tableLen = make([]int, ids)
	j := 0
	for i := range tr.Len() {
		for _, acc := range tr.At(i).Accesses {
			id := s.table[j]
			s.names[id] = acc.Table
			s.ord[j] = int32(s.tableLen[id])
			s.write[j] = acc.Write
			s.tableLen[id]++
			j++
		}
		s.txnEnd[i] = int32(j)
	}
	s.codes = make([][]int32, ids)
	for id, l := range s.tableLen {
		s.codes[id] = make([]int32, 0, l)
	}
	for j, code := range tr.codes {
		s.codes[s.table[j]] = append(s.codes[s.table[j]], code)
	}
	longest := 0
	for _, l := range s.tableLen {
		longest = max(longest, l)
	}
	s.replicated = make([]int32, longest)
	s.unplaced = make([]int32, longest)
	for i := range s.replicated {
		s.replicated[i] = eval.PlaceReplicated
		s.unplaced[i] = eval.PlaceUnplaced
	}
	return s
}

// place computes the column of every distinct partitioned table option of
// sols (by pointer) not placed yet. The options are grouped by table and
// the tables placed on a pool of workers. It fails only when ctx is
// cancelled; an option whose join path does not compile keeps the error,
// which cost reports for every solution using it.
func (s *comboScorer) place(ctx context.Context, d *db.DB, workers int, sols []*partition.Solution) error {
	var tables []string
	todo := map[string][]*partition.TableSolution{}
	for _, sol := range sols {
		for _, ts := range sol.Tables {
			if _, seen := s.opts[ts]; seen || ts.Replicate {
				continue
			}
			s.opts[ts] = optionColumn{}
			if todo[ts.Table] == nil {
				tables = append(tables, ts.Table)
			}
			todo[ts.Table] = append(todo[ts.Table], ts)
		}
	}
	cols := make([][]optionColumn, len(tables))
	err := pool.ForEach(ctx, workers, len(tables), gPhase3Queue, func(i int) {
		cols[i] = s.placeTable(d, tables[i], todo[tables[i]])
	})
	if err != nil {
		return err
	}
	for i, tbl := range tables {
		for k, ts := range todo[tbl] {
			s.opts[ts] = cols[i][k]
		}
	}
	return nil
}

// placeTable places every training access of one table, in trace order,
// under each of the table's options, with eval.Assigner.PlaceKey's
// semantics. A live row is navigated once, on its first access, from its
// slot through the view's hop memo, for all the options together, and
// later accesses to its slot reuse the placements; an access to a
// deleted row is navigated from the row each time, as it has no slot.
func (s *comboScorer) placeTable(d *db.DB, table string, opts []*partition.TableSolution) []optionColumn {
	out := make([]optionColumn, len(opts))
	t := d.Table(table)
	var placed []int // indexes of the options whose path compiles
	navs := make([]tableNav, len(opts))
	for k, ts := range opts {
		nav, err := d.Compile(ts.Path)
		if err != nil {
			out[k].err = err
			continue
		}
		navs[k] = tableNav{nav: nav, t: t}
		placed = append(placed, k)
	}
	if t == nil || t.ID() >= len(s.tableLen) || s.tableLen[t.ID()] == 0 || len(placed) == 0 {
		return out
	}
	id := t.ID()
	codes := s.codes[id]
	for _, k := range placed {
		out[k].place = make([]int32, len(codes))
	}
	// memo holds each live slot's placements, one per option, once its
	// row has been navigated; seen marks those slots.
	slots := s.rows.v.Slots(t)
	memo := make([]int32, slots*len(opts))
	seen := make([]bool, slots)
	for o, code := range codes {
		if code >= 0 && seen[code] {
			for _, k := range placed {
				out[k].place[o] = memo[int(code)*len(opts)+k]
			}
			continue
		}
		for _, k := range placed {
			p := eval.PlaceUnplaced
			if v, ok := s.rows.nav(navs[k], code); ok {
				p = int32(opts[k].Mapper.Map(v))
			}
			out[k].place[o] = p
			if code >= 0 {
				memo[int(code)*len(opts)+k] = p
			}
		}
		if code >= 0 {
			seen[code] = true
		}
	}
	return out
}

// columns resolves a solution into one placement column per table id:
// its option's column for a partitioned table, a constant one for a
// replicated or uncovered table. Every partitioned option of sol must
// have been placed; one whose join path failed to compile fails sol.
func (s *comboScorer) columns(sol *partition.Solution) ([][]int32, error) {
	for _, ts := range sol.Tables {
		if !ts.Replicate && s.opts[ts].err != nil {
			return nil, s.opts[ts].err
		}
	}
	cols := make([][]int32, len(s.tableLen))
	for id, name := range s.names {
		if name == "" {
			continue
		}
		switch ts := sol.Tables[name]; {
		case ts == nil:
			cols[id] = s.unplaced[:s.tableLen[id]]
		case ts.Replicate:
			cols[id] = s.replicated[:s.tableLen[id]]
		default:
			cols[id] = s.opts[ts].place
		}
	}
	return cols, nil
}

// cost validates sol against the schema and returns its Definition 6
// cost on the training trace.
func (s *comboScorer) cost(sc *schema.Schema, sol *partition.Solution) (float64, error) {
	if err := sol.Validate(sc); err != nil {
		return 0, err
	}
	cols, err := s.columns(sol)
	if err != nil {
		return 0, err
	}
	if len(s.txnEnd) == 0 {
		return 0, nil
	}
	return float64(s.distributed(cols)) / float64(len(s.txnEnd)), nil
}

// distributed counts the transactions eval.Span calls distributed
// (Definition 5) under the given per-table columns, stopping each
// transaction's scan at its first access that makes it distributed. It
// does not allocate.
func (s *comboScorer) distributed(cols [][]int32) int {
	dist := 0
	lo := int32(0)
	for _, hi := range s.txnEnd {
		var sp eval.Span
		for j := lo; j < hi; j++ {
			sp.Add(cols[s.table[j]][s.ord[j]], s.write[j])
			if sp.Distributed() {
				dist++
				break
			}
		}
		lo = hi
	}
	return dist
}
