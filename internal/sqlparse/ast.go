package sqlparse

import (
	"strings"

	"repro/internal/value"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmtNode()
	// String reconstructs a canonical SQL rendering (for diagnostics).
	String() string
}

// Expr is a node in a predicate or scalar expression tree.
type Expr interface {
	exprNode()
	String() string
}

// ColumnExpr references a column, optionally table-qualified. Qualifier may
// be a table name or an alias; resolution happens during analysis.
type ColumnExpr struct {
	Qualifier string // "" if unqualified
	Name      string
}

// ParamExpr references a stored-procedure parameter or local variable @Name.
type ParamExpr struct{ Name string }

// LiteralExpr is a constant.
type LiteralExpr struct{ Val value.Value }

// BinaryExpr is a binary operation: comparisons (= <> < > <= >=), AND, OR,
// arithmetic (+ - * /), LIKE.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// NotExpr negates a predicate.
type NotExpr struct{ E Expr }

// InExpr is "L IN (items...)".
type InExpr struct {
	L     Expr
	Items []Expr
}

// BetweenExpr is "E BETWEEN Lo AND Hi".
type BetweenExpr struct {
	E      Expr
	Lo, Hi Expr
}

// FuncExpr is an aggregate or scalar function call. Star is true for
// COUNT(*).
type FuncExpr struct {
	Name string // upper-cased
	Args []Expr
	Star bool
}

// IsNullExpr is "E IS [NOT] NULL".
type IsNullExpr struct {
	E   Expr
	Not bool
}

func (ColumnExpr) exprNode()  {}
func (ParamExpr) exprNode()   {}
func (LiteralExpr) exprNode() {}
func (BinaryExpr) exprNode()  {}
func (NotExpr) exprNode()     {}
func (InExpr) exprNode()      {}
func (BetweenExpr) exprNode() {}
func (FuncExpr) exprNode()    {}
func (IsNullExpr) exprNode()  {}

func (e ColumnExpr) String() string {
	if e.Qualifier != "" {
		return e.Qualifier + "." + e.Name
	}
	return e.Name
}
func (e ParamExpr) String() string   { return "@" + e.Name }
func (e LiteralExpr) String() string { return e.Val.String() }
func (e BinaryExpr) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}
func (e NotExpr) String() string { return "NOT " + e.E.String() }
func (e InExpr) String() string {
	items := make([]string, len(e.Items))
	for i, it := range e.Items {
		items[i] = it.String()
	}
	return e.L.String() + " IN (" + strings.Join(items, ", ") + ")"
}
func (e BetweenExpr) String() string {
	return e.E.String() + " BETWEEN " + e.Lo.String() + " AND " + e.Hi.String()
}
func (e FuncExpr) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Name + "(" + strings.Join(args, ", ") + ")"
}
func (e IsNullExpr) String() string {
	if e.Not {
		return e.E.String() + " IS NOT NULL"
	}
	return e.E.String() + " IS NULL"
}

// TableRef names a table in a FROM clause with an optional alias.
type TableRef struct {
	Table string
	Alias string // "" if none
}

// String renders "table" or "table alias".
func (t TableRef) String() string {
	if t.Alias != "" {
		return t.Table + " " + t.Alias
	}
	return t.Table
}

// JoinClause is "JOIN table [alias] ON cond".
type JoinClause struct {
	Table TableRef
	On    Expr
}

// SelectItem is one item of a select list: an output expression, optionally
// assigned to a variable (SELECT @v = col ...), the SQL-Server-style output
// binding the paper's instrumentation relies on.
type SelectItem struct {
	AssignTo string // variable name without '@', "" if plain output
	Expr     Expr
}

// SelectStmt is a (possibly joining, possibly aggregating) SELECT. The
// parser accepts ORDER BY, LIMIT n and TOP n but keeps none of them: they
// do not change which rows a statement's predicates reach.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef // comma-separated FROM tables
	Joins    []JoinClause
	Where    Expr // nil if absent
	GroupBy  []Expr
}

// InsertStmt is "INSERT INTO table (cols) VALUES (exprs)".
type InsertStmt struct {
	Table   string
	Columns []string
	Values  []Expr
}

// Assignment is "col = expr" in an UPDATE SET list.
type Assignment struct {
	Column string
	Value  Expr
}

// UpdateStmt is "UPDATE table SET assignments WHERE cond".
type UpdateStmt struct {
	Table TableRef
	Set   []Assignment
	Where Expr
}

// DeleteStmt is "DELETE FROM table WHERE cond".
type DeleteStmt struct {
	Table TableRef
	Where Expr
}

func (*SelectStmt) stmtNode() {}
func (*InsertStmt) stmtNode() {}
func (*UpdateStmt) stmtNode() {}
func (*DeleteStmt) stmtNode() {}

func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		if it.AssignTo != "" {
			sb.WriteString("@" + it.AssignTo + " = ")
		}
		sb.WriteString(it.Expr.String())
	}
	sb.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.String())
	}
	for _, j := range s.Joins {
		sb.WriteString(" JOIN " + j.Table.String() + " ON " + j.On.String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	return sb.String()
}

func (s *InsertStmt) String() string {
	vals := make([]string, len(s.Values))
	for i, v := range s.Values {
		vals[i] = v.String()
	}
	return "INSERT INTO " + s.Table + " (" + strings.Join(s.Columns, ", ") +
		") VALUES (" + strings.Join(vals, ", ") + ")"
}

func (s *UpdateStmt) String() string {
	var sb strings.Builder
	sb.WriteString("UPDATE " + s.Table.String() + " SET ")
	for i, a := range s.Set {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.Column + " = " + a.Value.String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	return sb.String()
}

func (s *DeleteStmt) String() string {
	out := "DELETE FROM " + s.Table.String()
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}
