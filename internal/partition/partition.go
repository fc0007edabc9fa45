// Package partition defines the vocabulary every partitioning algorithm in
// this repository shares: mapping functions over a partitioning attribute
// (paper Definition 4), per-table partitioning solutions — a join path plus
// a mapping function (Definition 10) or full replication — and database
// solutions as a collection of table solutions (Definition 11).
//
// JECB (internal/core), Schism (internal/schism) and Horticulture
// (internal/horticulture) all emit *Solution values, which the evaluator
// (internal/eval) scores and the router (internal/router) executes.
package partition

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/value"
)

// Registry metrics (see DESIGN.md, "Metric reference"). Lookup counters
// are cached in package vars because Map sits on the router/eval hot path.
var (
	cSolutions    = obs.Default.Counter("partition.solutions_created")
	cTablesPart   = obs.Default.Counter("partition.tables_partitioned")
	cTablesRepl   = obs.Default.Counter("partition.tables_replicated")
	cLookupHits   = obs.Default.Counter("partition.lookup_hits")
	cLookupMisses = obs.Default.Counter("partition.lookup_misses")
)

// Replicated is the partition id meaning "stored at every partition"
// (the paper's mapping value i = 0; we use -1 so real partitions are
// zero-indexed).
const Replicated = -1

// Mapper is a mapping function f_{k,X}: it maps each value of the
// partitioning attribute X to a partition in [0..k), or to Replicated.
type Mapper interface {
	// Map returns the partition of a root-attribute value.
	Map(v value.Value) int
	// K returns the number of partitions.
	K() int
	// Name identifies the mapper family ("hash", "range", "lookup").
	Name() string
}

// HashMapper assigns values to partitions by hash; it is the default
// mapping function for mapping-independent solutions, where the choice of
// f does not affect solution quality (paper §5.3).
type HashMapper struct{ Parts int }

// NewHash returns a hash mapper over k partitions.
func NewHash(k int) HashMapper {
	if k <= 0 {
		panic(fmt.Sprintf("partition: hash mapper with k=%d", k))
	}
	return HashMapper{Parts: k}
}

// Map implements Mapper.
func (m HashMapper) Map(v value.Value) int { return int(v.Hash() % uint64(m.Parts)) }

// K implements Mapper.
func (m HashMapper) K() int { return m.Parts }

// Name implements Mapper.
func (m HashMapper) Name() string { return "hash" }

// RangeMapper assigns values to partitions by ordered range. Bounds holds
// k-1 split points: a value v goes to the first partition i such that
// v <= Bounds[i], and to partition k-1 otherwise.
type RangeMapper struct {
	Parts  int
	Bounds []value.Value
}

// NewRangeFromValues builds an equi-depth range mapper from a sample of
// attribute values.
func NewRangeFromValues(k int, vals []value.Value) RangeMapper {
	if k <= 0 {
		panic(fmt.Sprintf("partition: range mapper with k=%d", k))
	}
	sorted := make([]value.Value, len(vals))
	copy(sorted, vals)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 })
	m := RangeMapper{Parts: k}
	if len(sorted) == 0 {
		return m
	}
	for i := 1; i < k; i++ {
		idx := i * len(sorted) / k
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		m.Bounds = append(m.Bounds, sorted[idx])
	}
	return m
}

// Map implements Mapper.
func (m RangeMapper) Map(v value.Value) int {
	// Binary search over bounds.
	lo, hi := 0, len(m.Bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v.Compare(m.Bounds[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= m.Parts {
		lo = m.Parts - 1
	}
	return lo
}

// K implements Mapper.
func (m RangeMapper) K() int { return m.Parts }

// Name implements Mapper.
func (m RangeMapper) Name() string { return "range" }

// LookupMapper maps explicitly listed values (the paper's lookup-table
// mapping built by the statistics-based min-cut fallback, §5.3) and sends
// unseen values to a fallback mapper.
type LookupMapper struct {
	Parts    int
	Table    map[value.Value]int
	Fallback Mapper
}

// NewLookup builds a lookup mapper; fallback may be nil, in which case
// unseen values hash.
func NewLookup(k int, table map[value.Value]int, fallback Mapper) LookupMapper {
	if fallback == nil {
		fallback = NewHash(k)
	}
	return LookupMapper{Parts: k, Table: table, Fallback: fallback}
}

// Map implements Mapper.
func (m LookupMapper) Map(v value.Value) int {
	if p, ok := m.Table[v]; ok {
		cLookupHits.Inc()
		return p
	}
	cLookupMisses.Inc()
	return m.Fallback.Map(v)
}

// K implements Mapper.
func (m LookupMapper) K() int { return m.Parts }

// Name implements Mapper.
func (m LookupMapper) Name() string { return "lookup" }

// TableSolution is the paper's Definition 10: how one table is placed.
// Either Replicate is true (the table is copied to every partition), or
// Path carries tuples of the table to the partitioning attribute X =
// Path.Dest() and Mapper maps X values to partitions.
//
// A placement is not mutated in place once it is set into a Solution:
// to change a table's placement, set a new TableSolution, so solutions
// that share a placement (a copy's Tables map, a migration's hybrid)
// never see it change.
type TableSolution struct {
	Table     string
	Replicate bool
	Path      schema.JoinPath
	Mapper    Mapper
}

// NewReplicated returns the full-replication solution for a table.
func NewReplicated(table string) *TableSolution {
	cTablesRepl.Inc()
	return &TableSolution{Table: table, Replicate: true}
}

// NewByPath returns a join-extension solution: partition the table by the
// destination attribute of the path under the given mapping function.
func NewByPath(table string, p schema.JoinPath, m Mapper) *TableSolution {
	cTablesPart.Inc()
	return &TableSolution{Table: table, Path: p, Mapper: m}
}

// Attribute returns the partitioning attribute X, or false when the table
// is replicated.
func (ts *TableSolution) Attribute() (schema.ColumnRef, bool) {
	if ts.Replicate || ts.Path.Len() == 0 {
		return schema.ColumnRef{}, false
	}
	return ts.Path.Dest(), true
}

// String renders the solution for reports, e.g.
// "TRADE: T_ID -> T_CA_ID -> CA_ID -> CA_C_ID (hash)" or "BROKER: replicated".
func (ts *TableSolution) String() string {
	if ts.Replicate {
		return ts.Table + ": replicated"
	}
	name := "?"
	if ts.Mapper != nil {
		name = ts.Mapper.Name()
	}
	return fmt.Sprintf("%s: %s (%s)", ts.Table, ts.Path, name)
}

// Validate checks the solution against a schema.
func (ts *TableSolution) Validate(sc *schema.Schema) error {
	if sc.Table(ts.Table) == nil {
		return fmt.Errorf("partition: solution for unknown table %q", ts.Table)
	}
	if ts.Replicate {
		return nil
	}
	if ts.Mapper == nil {
		return fmt.Errorf("partition: %s: missing mapper", ts.Table)
	}
	if err := ts.Path.Validate(sc); err != nil {
		return err
	}
	if ts.Path.SourceTable() != ts.Table {
		return fmt.Errorf("partition: %s: path starts at %s", ts.Table, ts.Path.SourceTable())
	}
	if !sc.Table(ts.Table).IsPK(ts.Path.Source().Columns) {
		return fmt.Errorf("partition: %s: path source %v is not the primary key",
			ts.Table, ts.Path.Source())
	}
	return nil
}

// Solution is the paper's Definition 11: a partitioning solution for the
// whole database.
type Solution struct {
	// Name labels the producing algorithm for reports.
	Name string
	// K is the number of partitions.
	K int
	// Tables maps table name to its placement. Every table the evaluated
	// workload touches must be present.
	Tables map[string]*TableSolution
}

// NewSolution returns an empty solution.
func NewSolution(name string, k int) *Solution {
	cSolutions.Inc()
	return &Solution{Name: name, K: k, Tables: make(map[string]*TableSolution)}
}

// Set records the placement of one table.
func (s *Solution) Set(ts *TableSolution) { s.Tables[ts.Table] = ts }

// Table returns the placement of one table, or nil.
func (s *Solution) Table(name string) *TableSolution { return s.Tables[name] }

// Validate checks all table solutions.
func (s *Solution) Validate(sc *schema.Schema) error {
	if s.K <= 0 {
		return fmt.Errorf("partition: solution %q has k=%d", s.Name, s.K)
	}
	for _, ts := range s.Tables {
		if err := ts.Validate(sc); err != nil {
			return err
		}
		if !ts.Replicate && ts.Mapper.K() != s.K {
			return fmt.Errorf("partition: %s: mapper k=%d, solution k=%d",
				ts.Table, ts.Mapper.K(), s.K)
		}
	}
	return nil
}

// String renders the whole solution, one table per line, sorted.
func (s *Solution) String() string {
	names := make([]string, 0, len(s.Tables))
	for n := range s.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "solution %q (k=%d)\n", s.Name, s.K)
	for _, n := range names {
		sb.WriteString("  " + s.Tables[n].String() + "\n")
	}
	return sb.String()
}
