package sqlparse

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/schema"
)

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	cProcsAnalyzed = obs.Default.Counter("sqlparse.procedures_analyzed")
	cStmtsAnalyzed = obs.Default.Counter("sqlparse.statements_analyzed")
	cEquiJoins     = obs.Default.Counter("sqlparse.equijoins")
	cImplicitJoins = obs.Default.Counter("sqlparse.implicit_joins")
	cCandidateCols = obs.Default.Counter("sqlparse.candidate_columns")
)

// Procedure is a stored procedure: a named, parameterized sequence of SQL
// statements. It is the unit of code-based analysis — one procedure defines
// one transaction class (paper §4).
type Procedure struct {
	Name       string
	Params     []string // input parameter names, without '@'
	Statements []Statement
}

// NewProcedure parses the procedure body.
func NewProcedure(name string, params []string, sql string) (*Procedure, error) {
	stmts, err := Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("procedure %s: %w", name, err)
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("procedure %s: empty body", name)
	}
	return &Procedure{Name: name, Params: params, Statements: stmts}, nil
}

// MustProcedure is NewProcedure for statically known benchmark SQL; it
// panics on parse errors.
func MustProcedure(name string, params []string, sql string) *Procedure {
	p, err := NewProcedure(name, params, sql)
	if err != nil {
		panic(err)
	}
	return p
}

// EquiJoin is an equality connection between two columns discovered in the
// code, either explicit (ON / WHERE a = b) or implicit via parameter data
// flow (paper §5.1 Example 3).
type EquiJoin struct {
	Left, Right schema.ColumnRef
	Implicit    bool
}

// String renders "A.x = B.y".
func (j EquiJoin) String() string { return j.Left.String() + " = " + j.Right.String() }

// canonical orders the two sides so the pair can be deduplicated.
func (j EquiJoin) canonical() EquiJoin {
	if j.Right.Table < j.Left.Table ||
		(j.Right.Table == j.Left.Table && j.Right.Column < j.Left.Column) {
		j.Left, j.Right = j.Right, j.Left
	}
	return j
}

// ParamBinding records that a column is bound by equality to a parameter or
// local variable: a WHERE filter (col = @p), an INSERT value, an UPDATE SET
// value, or a SELECT @p = col output.
type ParamBinding struct {
	Param  string
	Column schema.ColumnRef
	// Output is true when the column's value flows INTO the variable
	// (SELECT @p = col); false when the variable's value constrains the
	// column.
	Output bool
	// WriteValue is true for INSERT VALUES / UPDATE SET bindings: the
	// parameter supplies the stored value. These participate in implicit-
	// join discovery but do not select rows, so they are not routing
	// filters.
	WriteValue bool
}

// StatementInfo is the per-statement analysis result.
type StatementInfo struct {
	Tables        []string // accessed tables, deduplicated
	WriteTable    string   // "" for SELECT
	WhereColumns  []schema.ColumnRef
	SelectColumns []schema.ColumnRef
	EquiJoins     []EquiJoin // explicit only
	Bindings      []ParamBinding
}

// Analysis is the whole-procedure analysis the join-graph builder consumes.
type Analysis struct {
	Proc       *Procedure
	Statements []StatementInfo

	// Tables is the union of tables accessed by any statement, sorted.
	Tables []string
	// WriteTables is the subset of Tables written by any statement, sorted.
	WriteTables []string
	// CandidateColumns are the attributes appearing in WHERE clauses,
	// the paper's candidate partitioning attributes (§5.1).
	CandidateColumns []schema.ColumnRef
	// EquiJoins are all explicit plus implicit equality connections,
	// deduplicated and canonicalized.
	EquiJoins []EquiJoin
	// ParamColumns maps each parameter/variable name to every column it
	// binds (filters, outputs, insert/update values).
	ParamColumns map[string][]schema.ColumnRef
	// InputFilters maps each *input* parameter to the columns it directly
	// filters (used by the router to pick routing attributes).
	InputFilters map[string][]schema.ColumnRef
}

// Analyze resolves the procedure's statements against the schema and
// extracts the code-analysis artifacts of paper §5.1: accessed tables,
// candidate attributes, explicit equi-joins, and implicit joins discovered
// through parameter data flow.
func Analyze(proc *Procedure, sc *schema.Schema) (*Analysis, error) {
	a := &Analysis{
		Proc:         proc,
		ParamColumns: make(map[string][]schema.ColumnRef),
		InputFilters: make(map[string][]schema.ColumnRef),
	}
	tableSet := map[string]bool{}
	writeSet := map[string]bool{}
	for i, stmt := range proc.Statements {
		si, err := analyzeStatement(stmt, sc)
		if err != nil {
			return nil, fmt.Errorf("procedure %s statement %d: %w", proc.Name, i+1, err)
		}
		a.Statements = append(a.Statements, *si)
		for _, t := range si.Tables {
			tableSet[t] = true
		}
		if si.WriteTable != "" {
			writeSet[si.WriteTable] = true
		}
	}
	for t := range tableSet {
		a.Tables = append(a.Tables, t)
	}
	sort.Strings(a.Tables)
	for t := range writeSet {
		a.WriteTables = append(a.WriteTables, t)
	}
	sort.Strings(a.WriteTables)

	// Candidate attributes: union of WHERE columns.
	colSeen := map[schema.ColumnRef]bool{}
	for _, si := range a.Statements {
		for _, c := range si.WhereColumns {
			if !colSeen[c] {
				colSeen[c] = true
				a.CandidateColumns = append(a.CandidateColumns, c)
			}
		}
	}
	sortRefs(a.CandidateColumns)

	// Parameter data flow.
	inputParams := map[string]bool{}
	for _, p := range proc.Params {
		inputParams[p] = true
	}
	for _, si := range a.Statements {
		for _, b := range si.Bindings {
			a.ParamColumns[b.Param] = appendRefUnique(a.ParamColumns[b.Param], b.Column)
			if inputParams[b.Param] && !b.Output && !b.WriteValue {
				a.InputFilters[b.Param] = appendRefUnique(a.InputFilters[b.Param], b.Column)
			}
		}
	}

	// Join set: explicit joins plus implicit joins (every pair of distinct
	// columns bound to the same parameter, per §5.1 Example 3 — these may
	// include false positives, which the trace later eliminates).
	joinSeen := map[EquiJoin]bool{}
	add := func(j EquiJoin) {
		if j.Left == j.Right {
			return
		}
		c := j.canonical()
		key := EquiJoin{Left: c.Left, Right: c.Right} // dedupe ignoring Implicit
		if !joinSeen[key] {
			joinSeen[key] = true
			a.EquiJoins = append(a.EquiJoins, c)
		}
	}
	for _, si := range a.Statements {
		for _, j := range si.EquiJoins {
			add(j)
		}
	}
	for _, cols := range a.ParamColumns {
		for i := 0; i < len(cols); i++ {
			for j := i + 1; j < len(cols); j++ {
				add(EquiJoin{Left: cols[i], Right: cols[j], Implicit: true})
			}
		}
	}
	sort.Slice(a.EquiJoins, func(i, j int) bool {
		if a.EquiJoins[i].Left != a.EquiJoins[j].Left {
			return refLess(a.EquiJoins[i].Left, a.EquiJoins[j].Left)
		}
		return refLess(a.EquiJoins[i].Right, a.EquiJoins[j].Right)
	})

	cProcsAnalyzed.Inc()
	cStmtsAnalyzed.Add(int64(len(a.Statements)))
	cCandidateCols.Add(int64(len(a.CandidateColumns)))
	cEquiJoins.Add(int64(len(a.EquiJoins)))
	for _, j := range a.EquiJoins {
		if j.Implicit {
			cImplicitJoins.Inc()
		}
	}
	return a, nil
}

func refLess(a, b schema.ColumnRef) bool {
	if a.Table != b.Table {
		return a.Table < b.Table
	}
	return a.Column < b.Column
}

func sortRefs(refs []schema.ColumnRef) {
	sort.Slice(refs, func(i, j int) bool { return refLess(refs[i], refs[j]) })
}

func appendRefUnique(refs []schema.ColumnRef, r schema.ColumnRef) []schema.ColumnRef {
	for _, x := range refs {
		if x == r {
			return refs
		}
	}
	return append(refs, r)
}

// scope resolves column references to (table, column) within a statement.
type scope struct {
	sc      *schema.Schema
	aliases map[string]string // alias or table name -> table name
	tables  []string          // in FROM order
}

func newScope(sc *schema.Schema) *scope {
	return &scope{sc: sc, aliases: make(map[string]string)}
}

func (s *scope) addTable(ref TableRef) error {
	if s.sc.Table(ref.Table) == nil {
		return fmt.Errorf("unknown table %q", ref.Table)
	}
	s.tables = append(s.tables, ref.Table)
	s.aliases[strings.ToUpper(ref.Table)] = ref.Table
	if ref.Alias != "" {
		s.aliases[strings.ToUpper(ref.Alias)] = ref.Table
	}
	return nil
}

// resolve maps a ColumnExpr to a schema.ColumnRef. Unqualified names are
// looked up in every in-scope table and must be unambiguous.
func (s *scope) resolve(e ColumnExpr) (schema.ColumnRef, error) {
	if e.Qualifier != "" {
		t, ok := s.aliases[strings.ToUpper(e.Qualifier)]
		if !ok {
			return schema.ColumnRef{}, fmt.Errorf("unknown table or alias %q", e.Qualifier)
		}
		if !s.sc.Table(t).HasColumn(e.Name) {
			return schema.ColumnRef{}, fmt.Errorf("table %s has no column %q", t, e.Name)
		}
		return schema.ColumnRef{Table: t, Column: e.Name}, nil
	}
	var found []string
	for _, t := range s.tables {
		if s.sc.Table(t).HasColumn(e.Name) {
			found = append(found, t)
		}
	}
	switch len(found) {
	case 0:
		return schema.ColumnRef{}, fmt.Errorf("column %q not found in scope %v", e.Name, s.tables)
	case 1:
		return schema.ColumnRef{Table: found[0], Column: e.Name}, nil
	default:
		return schema.ColumnRef{}, fmt.Errorf("column %q is ambiguous (%v)", e.Name, found)
	}
}

func analyzeStatement(stmt Statement, sc *schema.Schema) (*StatementInfo, error) {
	si := &StatementInfo{}
	sco := newScope(sc)
	switch s := stmt.(type) {
	case *SelectStmt:
		for _, ref := range s.From {
			if err := sco.addTable(ref); err != nil {
				return nil, err
			}
		}
		for _, j := range s.Joins {
			if err := sco.addTable(j.Table); err != nil {
				return nil, err
			}
		}
		si.Tables = dedupe(sco.tables)
		for _, item := range s.Items {
			cols, err := columnsIn(item.Expr, sco)
			if err != nil {
				return nil, err
			}
			si.SelectColumns = append(si.SelectColumns, cols...)
			if item.AssignTo != "" {
				// SELECT @v = col: output binding (only direct single-column
				// assignments define a usable data flow).
				if ce, ok := item.Expr.(ColumnExpr); ok {
					ref, err := sco.resolve(ce)
					if err != nil {
						return nil, err
					}
					si.Bindings = append(si.Bindings,
						ParamBinding{Param: item.AssignTo, Column: ref, Output: true})
				}
			}
		}
		for _, j := range s.Joins {
			if err := collectPredicates(j.On, sco, si); err != nil {
				return nil, err
			}
		}
		if s.Where != nil {
			if err := collectPredicates(s.Where, sco, si); err != nil {
				return nil, err
			}
		}
	case *InsertStmt:
		if err := sco.addTable(TableRef{Table: s.Table}); err != nil {
			return nil, err
		}
		si.Tables = []string{s.Table}
		si.WriteTable = s.Table
		for i, c := range s.Columns {
			if !sc.Table(s.Table).HasColumn(c) {
				return nil, fmt.Errorf("INSERT into %s: no column %q", s.Table, c)
			}
			if pe, ok := s.Values[i].(ParamExpr); ok {
				si.Bindings = append(si.Bindings, ParamBinding{
					Param:      pe.Name,
					Column:     schema.ColumnRef{Table: s.Table, Column: c},
					WriteValue: true,
				})
			}
		}
	case *UpdateStmt:
		if err := sco.addTable(s.Table); err != nil {
			return nil, err
		}
		si.Tables = []string{s.Table.Table}
		si.WriteTable = s.Table.Table
		for _, asg := range s.Set {
			if !sc.Table(s.Table.Table).HasColumn(asg.Column) {
				return nil, fmt.Errorf("UPDATE %s: no column %q", s.Table.Table, asg.Column)
			}
			if pe, ok := asg.Value.(ParamExpr); ok {
				si.Bindings = append(si.Bindings, ParamBinding{
					Param:      pe.Name,
					Column:     schema.ColumnRef{Table: s.Table.Table, Column: asg.Column},
					WriteValue: true,
				})
			}
		}
		if s.Where != nil {
			if err := collectPredicates(s.Where, sco, si); err != nil {
				return nil, err
			}
		}
	case *DeleteStmt:
		if err := sco.addTable(s.Table); err != nil {
			return nil, err
		}
		si.Tables = []string{s.Table.Table}
		si.WriteTable = s.Table.Table
		if s.Where != nil {
			if err := collectPredicates(s.Where, sco, si); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("unsupported statement type %T", stmt)
	}
	return si, nil
}

// collectPredicates walks a predicate tree recording WHERE columns,
// explicit equi-joins (col = col), and parameter filters (col = @p).
func collectPredicates(e Expr, sco *scope, si *StatementInfo) error {
	switch x := e.(type) {
	case BinaryExpr:
		if x.Op == "AND" || x.Op == "OR" {
			if err := collectPredicates(x.L, sco, si); err != nil {
				return err
			}
			return collectPredicates(x.R, sco, si)
		}
		lc, lok := x.L.(ColumnExpr)
		rc, rok := x.R.(ColumnExpr)
		if lok {
			ref, err := sco.resolve(lc)
			if err != nil {
				return err
			}
			si.WhereColumns = appendRefUnique(si.WhereColumns, ref)
		}
		if rok {
			ref, err := sco.resolve(rc)
			if err != nil {
				return err
			}
			si.WhereColumns = appendRefUnique(si.WhereColumns, ref)
		}
		if x.Op == "=" {
			switch {
			case lok && rok:
				l, _ := sco.resolve(lc)
				r, _ := sco.resolve(rc)
				si.EquiJoins = append(si.EquiJoins, EquiJoin{Left: l, Right: r})
			case lok:
				if pe, ok := x.R.(ParamExpr); ok {
					ref, _ := sco.resolve(lc)
					si.Bindings = append(si.Bindings, ParamBinding{Param: pe.Name, Column: ref})
				}
			case rok:
				if pe, ok := x.L.(ParamExpr); ok {
					ref, _ := sco.resolve(rc)
					si.Bindings = append(si.Bindings, ParamBinding{Param: pe.Name, Column: ref})
				}
			}
		}
		return nil
	case NotExpr:
		return collectPredicates(x.E, sco, si)
	case InExpr:
		if ce, ok := x.L.(ColumnExpr); ok {
			ref, err := sco.resolve(ce)
			if err != nil {
				return err
			}
			si.WhereColumns = appendRefUnique(si.WhereColumns, ref)
			// col IN (@p) with a single parameter behaves as equality for
			// routing/data-flow purposes.
			if len(x.Items) == 1 {
				if pe, ok := x.Items[0].(ParamExpr); ok {
					si.Bindings = append(si.Bindings, ParamBinding{Param: pe.Name, Column: ref})
				}
			}
		}
		return nil
	case BetweenExpr:
		if ce, ok := x.E.(ColumnExpr); ok {
			ref, err := sco.resolve(ce)
			if err != nil {
				return err
			}
			si.WhereColumns = appendRefUnique(si.WhereColumns, ref)
		}
		return nil
	case IsNullExpr:
		if ce, ok := x.E.(ColumnExpr); ok {
			ref, err := sco.resolve(ce)
			if err != nil {
				return err
			}
			si.WhereColumns = appendRefUnique(si.WhereColumns, ref)
		}
		return nil
	default:
		return nil
	}
}

// columnsIn resolves every column reference in a scalar expression.
func columnsIn(e Expr, sco *scope) ([]schema.ColumnRef, error) {
	var out []schema.ColumnRef
	var walk func(Expr) error
	walk = func(e Expr) error {
		switch x := e.(type) {
		case ColumnExpr:
			ref, err := sco.resolve(x)
			if err != nil {
				return err
			}
			out = append(out, ref)
		case BinaryExpr:
			if err := walk(x.L); err != nil {
				return err
			}
			return walk(x.R)
		case FuncExpr:
			for _, a := range x.Args {
				if err := walk(a); err != nil {
					return err
				}
			}
		case NotExpr:
			return walk(x.E)
		case InExpr:
			if err := walk(x.L); err != nil {
				return err
			}
			for _, it := range x.Items {
				if err := walk(it); err != nil {
					return err
				}
			}
		case BetweenExpr:
			if err := walk(x.E); err != nil {
				return err
			}
		case IsNullExpr:
			return walk(x.E)
		}
		return nil
	}
	if err := walk(e); err != nil {
		return nil, err
	}
	return out, nil
}

func dedupe(ss []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
