package core

import (
	"context"

	"repro/internal/db"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/trace"
)

// Placement sentinels of an option column. Real partitions are >= 0;
// placeReplicated mirrors partition.Replicated and placeUnplaced marks an
// access whose table the solution does not cover or whose join path
// dangles (the same encoding as eval.PlaceIndex).
const (
	placeReplicated int32 = partition.Replicated
	placeUnplaced   int32 = -2
)

// comboScorer costs phase-3 solutions on the training trace by scanning
// integer columns. The trace is flattened once into per-access columns;
// each distinct partitioned table option is placed once, by navigating
// every training access of its table through the option's compiled join
// path into an []int32 column; a solution is then costed by looking its
// options' columns up per access. Cross-table combinations share most of
// their options, so this replaces one navigation of the whole trace per
// combination with one navigation of one table's accesses per option.
//
// The costs equal eval.Assigner.Evaluate(train).Cost() bit for bit:
// Definition 5 applied per transaction, integer counts, one division.
// A scorer lives for one phase-3 call and holds no pointers into the
// database or the trace.
type comboScorer struct {
	// Flattened training trace, one entry per access in trace order.
	txnEnd []int32 // per transaction: one past its last access
	table  []int32 // per access: table id
	ord    []int32 // per access: ordinal among its table's accesses
	write  []bool  // per access: write bit

	tableID  map[string]int32
	tableLen []int // per table id: number of accesses

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

// newComboScorer flattens the training trace into the scorer's columns.
func newComboScorer(tr *trace.Trace) *comboScorer {
	s := &comboScorer{
		txnEnd:  make([]int32, tr.Len()),
		tableID: map[string]int32{},
		opts:    map[*partition.TableSolution]optionColumn{},
	}
	n := 0
	for _, t := range tr.All() {
		n += len(t.Accesses)
	}
	s.table = make([]int32, 0, n)
	s.ord = make([]int32, 0, n)
	s.write = make([]bool, 0, n)
	name, id := "", int32(-1)
	for i, t := range tr.All() {
		for _, acc := range t.Accesses {
			// Accesses cluster by table, so most skip the map lookup.
			if acc.Table != name {
				name = acc.Table
				var ok bool
				if id, ok = s.tableID[name]; !ok {
					id = int32(len(s.tableLen))
					s.tableID[name] = id
					s.tableLen = append(s.tableLen, 0)
				}
			}
			s.table = append(s.table, id)
			s.ord = append(s.ord, int32(s.tableLen[id]))
			s.write = append(s.write, acc.Write)
			s.tableLen[id]++
		}
		s.txnEnd[i] = int32(len(s.table))
	}
	longest := 0
	for _, l := range s.tableLen {
		longest = max(longest, l)
	}
	s.replicated = make([]int32, longest)
	s.unplaced = make([]int32, longest)
	for i := range s.replicated {
		s.replicated[i] = placeReplicated
		s.unplaced[i] = placeUnplaced
	}
	return s
}

// place computes the column of every distinct partitioned table option of
// sols (by pointer) not placed yet, on a pool of workers. It fails only
// when ctx is cancelled; an option whose join path does not compile
// keeps the error, which cost reports for every solution using it.
func (s *comboScorer) place(ctx context.Context, d *db.DB, tr *trace.Trace, workers int, sols []*partition.Solution) error {
	var todo []*partition.TableSolution
	for _, sol := range sols {
		for _, ts := range sol.Tables {
			if _, seen := s.opts[ts]; seen || ts.Replicate {
				continue
			}
			s.opts[ts] = optionColumn{}
			todo = append(todo, ts)
		}
	}
	cols := make([]optionColumn, len(todo))
	err := forEachIndexed(ctx, workers, len(todo), gPhase3Queue, func(i int) {
		cols[i] = s.placeOption(d, tr, todo[i])
	})
	if err != nil {
		return err
	}
	for i, ts := range todo {
		s.opts[ts] = cols[i]
	}
	return nil
}

// placeOption navigates every training access of the option's table, in
// trace order, with eval.Assigner.PlaceKey's semantics.
func (s *comboScorer) placeOption(d *db.DB, tr *trace.Trace, ts *partition.TableSolution) optionColumn {
	nav, err := d.Compile(ts.Path)
	if err != nil {
		return optionColumn{err: err}
	}
	id, ok := s.tableID[ts.Table]
	if !ok {
		return optionColumn{}
	}
	col := make([]int32, 0, s.tableLen[id])
	lo := int32(0)
	for i, hi := range s.txnEnd {
		for j := lo; j < hi; j++ {
			if s.table[j] != id {
				continue
			}
			if v, ok := nav.FromKey(tr.At(i).Accesses[j-lo].Key); ok {
				col = append(col, int32(ts.Mapper.Map(v)))
			} else {
				col = append(col, placeUnplaced)
			}
		}
		lo = hi
	}
	return optionColumn{place: col}
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
	for name, id := range s.tableID {
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

// distributed counts the transactions Definition 5 calls distributed
// under the given per-table columns: one that touches an unplaced tuple,
// writes a replicated one, or touches two real partitions. It does not
// allocate.
func (s *comboScorer) distributed(cols [][]int32) int {
	dist := 0
	lo := int32(0)
	for _, hi := range s.txnEnd {
		first := placeUnplaced // no real partition seen yet
		for j := lo; j < hi; j++ {
			p := cols[s.table[j]][s.ord[j]]
			if p == placeUnplaced || (p == placeReplicated && s.write[j]) ||
				(p >= 0 && first >= 0 && p != first) {
				dist++
				break
			}
			if p >= 0 {
				first = p
			}
		}
		lo = hi
	}
	return dist
}
