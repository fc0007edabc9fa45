// Package schema models the relational schema a JECB run operates on:
// tables, typed columns, primary keys, and key–foreign-key constraints.
//
// The foreign-key graph is the backbone of join-extension partitioning
// (paper §3): a join path (Def. 2) is a chain of key–foreign-key hops, and
// the schema package provides the adjacency queries the join-graph builder
// (internal/joingraph) needs to enumerate those hops.
package schema

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// Type is the declared type of a column.
type Type uint8

// The supported column types.
const (
	Int Type = iota
	Float
	String
)

// String returns the lowercase SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int:
		return "bigint"
	case Float:
		return "double"
	case String:
		return "varchar"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Kind maps the column type to the value kind stored in rows.
func (t Type) Kind() value.Kind {
	switch t {
	case Int:
		return value.Int
	case Float:
		return value.Float
	default:
		return value.Str
	}
}

// Column is a typed column of a table.
type Column struct {
	Name string
	Type Type
}

// ColumnRef names a column of a specific table ("TRADE.T_CA_ID").
type ColumnRef struct {
	Table  string
	Column string
}

// String renders the reference as "TABLE.COLUMN".
func (r ColumnRef) String() string { return r.Table + "." + r.Column }

// ColumnSet is an ordered set of columns of one table, e.g. a composite key.
// Order is significant: it matches the order of the referenced key for
// foreign keys.
type ColumnSet struct {
	Table   string
	Columns []string
}

// String renders the set as "TABLE((c1,c2))" or "TABLE.c" for singletons.
func (s ColumnSet) String() string {
	if len(s.Columns) == 1 {
		return s.Table + "." + s.Columns[0]
	}
	return s.Table + "(" + strings.Join(s.Columns, ",") + ")"
}

// Equal reports whether two column sets name the same table columns in the
// same order.
func (s ColumnSet) Equal(o ColumnSet) bool {
	if s.Table != o.Table || len(s.Columns) != len(o.Columns) {
		return false
	}
	for i := range s.Columns {
		if s.Columns[i] != o.Columns[i] {
			return false
		}
	}
	return true
}

// ForeignKey is a key–foreign-key constraint: Columns of Table reference
// RefColumns of RefTable (which must be RefTable's primary key or a prefix
// thereof under the paper's model; Validate enforces full-PK references).
type ForeignKey struct {
	Table      string
	Columns    []string
	RefTable   string
	RefColumns []string
}

// Source returns the referencing column set.
func (fk ForeignKey) Source() ColumnSet { return ColumnSet{fk.Table, fk.Columns} }

// Target returns the referenced column set.
func (fk ForeignKey) Target() ColumnSet { return ColumnSet{fk.RefTable, fk.RefColumns} }

// String renders the constraint as "A(x) -> B(y)".
func (fk ForeignKey) String() string {
	return fmt.Sprintf("%s(%s) -> %s(%s)",
		fk.Table, strings.Join(fk.Columns, ","),
		fk.RefTable, strings.Join(fk.RefColumns, ","))
}

// Table describes one relation.
type Table struct {
	Name       string
	Columns    []Column
	PrimaryKey []string

	colIndex map[string]int
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIndex[name]; ok {
		return i
	}
	return -1
}

// HasColumn reports whether the table declares the named column.
func (t *Table) HasColumn(name string) bool { return t.ColumnIndex(name) >= 0 }

// Column returns the column declaration by name and whether it exists.
func (t *Table) Column(name string) (Column, bool) {
	i := t.ColumnIndex(name)
	if i < 0 {
		return Column{}, false
	}
	return t.Columns[i], true
}

// PKIndexes returns the column positions of the primary key, in key order.
func (t *Table) PKIndexes() []int {
	out := make([]int, len(t.PrimaryKey))
	for i, c := range t.PrimaryKey {
		out[i] = t.colIndex[c]
	}
	return out
}

// PKSet returns the primary key as a ColumnSet.
func (t *Table) PKSet() ColumnSet { return ColumnSet{t.Name, append([]string(nil), t.PrimaryKey...)} }

// IsPK reports whether the given column list equals the primary key
// (order-insensitive).
func (t *Table) IsPK(cols []string) bool {
	if len(cols) != len(t.PrimaryKey) {
		return false
	}
	want := make(map[string]bool, len(t.PrimaryKey))
	for _, c := range t.PrimaryKey {
		want[c] = true
	}
	for _, c := range cols {
		if !want[c] {
			return false
		}
	}
	return true
}

// Schema is a set of tables plus the foreign-key constraints between them.
type Schema struct {
	Name        string
	ForeignKeys []ForeignKey

	tables     []*Table
	tableIndex map[string]*Table
	fksFrom    map[string][]ForeignKey
}

// New returns an empty schema with the given name.
func New(name string) *Schema {
	return &Schema{
		Name:       name,
		tableIndex: make(map[string]*Table),
		fksFrom:    make(map[string][]ForeignKey),
	}
}

// AddTable declares a table with its columns; pkCols names the primary key.
// It panics on duplicate table names or unknown PK columns (schema
// definitions are static program data, so construction errors are bugs).
func (s *Schema) AddTable(name string, cols []Column, pkCols ...string) *Table {
	if _, dup := s.tableIndex[name]; dup {
		panic(fmt.Sprintf("schema: duplicate table %q", name))
	}
	t := &Table{
		Name:       name,
		Columns:    append([]Column(nil), cols...),
		PrimaryKey: append([]string(nil), pkCols...),
		colIndex:   make(map[string]int, len(cols)),
	}
	for i, c := range cols {
		if _, dup := t.colIndex[c.Name]; dup {
			panic(fmt.Sprintf("schema: duplicate column %s.%s", name, c.Name))
		}
		t.colIndex[c.Name] = i
	}
	for _, pk := range pkCols {
		if !t.HasColumn(pk) {
			panic(fmt.Sprintf("schema: PK column %s.%s not declared", name, pk))
		}
	}
	s.tables = append(s.tables, t)
	s.tableIndex[name] = t
	return t
}

// AddFK declares a foreign key from cols of table to refCols of refTable.
// It panics on references to unknown tables/columns.
func (s *Schema) AddFK(table string, cols []string, refTable string, refCols []string) {
	src, ok := s.tableIndex[table]
	if !ok {
		panic(fmt.Sprintf("schema: FK source table %q unknown", table))
	}
	dst, ok := s.tableIndex[refTable]
	if !ok {
		panic(fmt.Sprintf("schema: FK target table %q unknown", refTable))
	}
	if len(cols) != len(refCols) || len(cols) == 0 {
		panic(fmt.Sprintf("schema: FK %s->%s arity mismatch", table, refTable))
	}
	for _, c := range cols {
		if !src.HasColumn(c) {
			panic(fmt.Sprintf("schema: FK column %s.%s not declared", table, c))
		}
	}
	for _, c := range refCols {
		if !dst.HasColumn(c) {
			panic(fmt.Sprintf("schema: FK ref column %s.%s not declared", refTable, c))
		}
	}
	fk := ForeignKey{
		Table:      table,
		Columns:    append([]string(nil), cols...),
		RefTable:   refTable,
		RefColumns: append([]string(nil), refCols...),
	}
	s.ForeignKeys = append(s.ForeignKeys, fk)
	s.fksFrom[table] = append(s.fksFrom[table], fk)
}

// Table returns the named table, or nil.
func (s *Schema) Table(name string) *Table { return s.tableIndex[name] }

// Tables returns all tables in declaration order.
func (s *Schema) Tables() []*Table { return s.tables }

// FindFK returns the foreign key from the exact source column set, if any.
// Order of cols matters (it must match the declaration).
func (s *Schema) FindFK(table string, cols []string) (ForeignKey, bool) {
	for _, fk := range s.fksFrom[table] {
		if fk.Source().Equal(ColumnSet{table, cols}) {
			return fk, true
		}
	}
	return ForeignKey{}, false
}

// Validate checks structural integrity: every table has a primary key, and
// every foreign key references the full primary key of its target table
// (the paper's join paths require FK targets to be keys so each hop is a
// functional dependency).
func (s *Schema) Validate() error {
	for _, t := range s.tables {
		if len(t.PrimaryKey) == 0 {
			return fmt.Errorf("schema %s: table %s has no primary key", s.Name, t.Name)
		}
	}
	for _, fk := range s.ForeignKeys {
		dst := s.tableIndex[fk.RefTable]
		if !dst.IsPK(fk.RefColumns) {
			return fmt.Errorf("schema %s: FK %s does not reference the primary key of %s",
				s.Name, fk, fk.RefTable)
		}
		src := s.tableIndex[fk.Table]
		for i, c := range fk.Columns {
			sc, _ := src.Column(c)
			dc, _ := dst.Column(fk.RefColumns[i])
			if sc.Type != dc.Type {
				return fmt.Errorf("schema %s: FK %s type mismatch on %s", s.Name, fk, c)
			}
		}
	}
	return nil
}

// MustValidate panics if Validate fails; used by static benchmark schemas.
func (s *Schema) MustValidate() *Schema {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// Cols is a convenience constructor for a column list from (name, type)
// pairs: Cols("A", Int, "B", String).
func Cols(pairs ...any) []Column {
	if len(pairs)%2 != 0 {
		panic("schema: Cols requires name/type pairs")
	}
	out := make([]Column, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("schema: Cols arg %d is not a string", i))
		}
		typ, ok := pairs[i+1].(Type)
		if !ok {
			panic(fmt.Sprintf("schema: Cols arg %d is not a Type", i+1))
		}
		out = append(out, Column{Name: name, Type: typ})
	}
	return out
}
