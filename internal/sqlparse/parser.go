package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/value"
)

// Parse parses a semicolon-separated sequence of SQL statements.
func Parse(src string) ([]Statement, error) {
	toks, err := newLexer(src).lexAll()
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Statement
	for {
		for p.peek().kind == tokSemi {
			p.advance()
		}
		if p.peek().kind == tokEOF {
			return stmts, nil
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: %s (near offset %d)", fmt.Sprintf(format, args...), p.peek().pos)
}

func (p *parser) expectKeyword(kw string) error {
	t := p.peek()
	if t.kind != tokKeyword || t.text != kw {
		return p.errorf("expected %s, found %q", kw, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) atKeyword(kws ...string) bool {
	t := p.peek()
	if t.kind != tokKeyword {
		return false
	}
	for _, kw := range kws {
		if t.text == kw {
			return true
		}
	}
	return false
}

func (p *parser) expect(kind tokenKind) (token, error) {
	t := p.peek()
	if t.kind != kind {
		return token{}, p.errorf("expected %s, found %q", kind, t.text)
	}
	return p.advance(), nil
}

func (p *parser) statement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errorf("expected statement keyword, found %q", t.text)
	}
	switch t.text {
	case "SELECT":
		return p.selectStmt()
	case "INSERT":
		return p.insertStmt()
	case "UPDATE":
		return p.updateStmt()
	case "DELETE":
		return p.deleteStmt()
	default:
		return nil, p.errorf("unsupported statement %s", t.text)
	}
}

func (p *parser) selectStmt() (*SelectStmt, error) {
	p.advance() // SELECT
	s := &SelectStmt{}
	if p.atKeyword("DISTINCT") {
		p.advance()
		s.Distinct = true
	}
	if p.atKeyword("TOP") {
		p.advance()
		n, err := p.expect(tokNumber)
		if err != nil {
			return nil, err
		}
		if _, err := strconv.Atoi(n.text); err != nil {
			return nil, p.errorf("bad TOP count %q", n.text)
		}
	}
	// Select list.
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if p.peek().kind != tokComma {
			break
		}
		p.advance()
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		s.From = append(s.From, ref)
		if p.peek().kind != tokComma {
			break
		}
		p.advance()
	}
	// JOIN clauses.
	for {
		if p.atKeyword("INNER", "LEFT") {
			p.advance()
			if p.atKeyword("OUTER") {
				p.advance()
			}
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if p.atKeyword("JOIN") {
			p.advance()
		} else {
			break
		}
		ref, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Joins = append(s.Joins, JoinClause{Table: ref, On: cond})
	}
	if p.atKeyword("WHERE") {
		p.advance()
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.atKeyword("GROUP") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.primaryExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if p.peek().kind != tokComma {
				break
			}
			p.advance()
		}
	}
	if p.atKeyword("ORDER") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			if _, err := p.primaryExpr(); err != nil {
				return nil, err
			}
			if p.atKeyword("DESC") || p.atKeyword("ASC") {
				p.advance()
			}
			if p.peek().kind != tokComma {
				break
			}
			p.advance()
		}
	}
	if p.atKeyword("LIMIT") {
		p.advance()
		n, err := p.expect(tokNumber)
		if err != nil {
			return nil, err
		}
		if _, err := strconv.Atoi(n.text); err != nil {
			return nil, p.errorf("bad LIMIT %q", n.text)
		}
	}
	return s, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	// "@v = expr" assignment form.
	if p.peek().kind == tokParam {
		save := p.i
		name := p.advance().text
		if p.peek().kind == tokOp && p.peek().text == "=" {
			p.advance()
			e, err := p.expr()
			if err != nil {
				return SelectItem{}, err
			}
			return SelectItem{AssignTo: name, Expr: e}, nil
		}
		p.i = save // plain parameter expression in select list
	}
	e, err := p.expr()
	if err != nil {
		return SelectItem{}, err
	}
	if p.atKeyword("AS") {
		p.advance()
		if _, err := p.expect(tokIdent); err != nil {
			return SelectItem{}, err
		}
	}
	return SelectItem{Expr: e}, nil
}

func (p *parser) tableRef() (TableRef, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: t.text}
	if p.atKeyword("AS") {
		p.advance()
	}
	if p.peek().kind == tokIdent {
		ref.Alias = p.advance().text
	}
	return ref, nil
}

func (p *parser) insertStmt() (*InsertStmt, error) {
	p.advance() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	t, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	s := &InsertStmt{Table: t.text}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	for {
		c, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		s.Columns = append(s.Columns, c.text)
		if p.peek().kind != tokComma {
			break
		}
		p.advance()
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Values = append(s.Values, e)
		if p.peek().kind != tokComma {
			break
		}
		p.advance()
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if len(s.Columns) != len(s.Values) {
		return nil, p.errorf("INSERT into %s: %d columns but %d values",
			s.Table, len(s.Columns), len(s.Values))
	}
	return s, nil
}

func (p *parser) updateStmt() (*UpdateStmt, error) {
	p.advance() // UPDATE
	ref, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	s := &UpdateStmt{Table: ref}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		c, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if p.peek().kind != tokOp || p.peek().text != "=" {
			return nil, p.errorf("expected = in SET")
		}
		p.advance()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Set = append(s.Set, Assignment{Column: c.text, Value: e})
		if p.peek().kind != tokComma {
			break
		}
		p.advance()
	}
	if p.atKeyword("WHERE") {
		p.advance()
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	return s, nil
}

func (p *parser) deleteStmt() (*DeleteStmt, error) {
	p.advance() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	ref, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	s := &DeleteStmt{Table: ref}
	if p.atKeyword("WHERE") {
		p.advance()
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	return s, nil
}

// Expression grammar, loosest binding first: OR, AND, NOT, comparison
// (including IN / BETWEEN / IS NULL / LIKE), additive, multiplicative,
// primary.

func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("OR") {
		p.advance()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("AND") {
		p.advance()
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.atKeyword("NOT") {
		p.advance()
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return NotExpr{E: e}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (Expr, error) {
	l, err := p.additive()
	if err != nil {
		return nil, err
	}
	switch {
	case p.peek().kind == tokOp && isCmpOp(p.peek().text):
		op := p.advance().text
		r, err := p.additive()
		if err != nil {
			return nil, err
		}
		return BinaryExpr{Op: op, L: l, R: r}, nil
	case p.atKeyword("IN"):
		p.advance()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		var items []Expr
		for {
			e, err := p.additive()
			if err != nil {
				return nil, err
			}
			items = append(items, e)
			if p.peek().kind != tokComma {
				break
			}
			p.advance()
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return InExpr{L: l, Items: items}, nil
	case p.atKeyword("BETWEEN"):
		p.advance()
		lo, err := p.additive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.additive()
		if err != nil {
			return nil, err
		}
		return BetweenExpr{E: l, Lo: lo, Hi: hi}, nil
	case p.atKeyword("IS"):
		p.advance()
		not := false
		if p.atKeyword("NOT") {
			p.advance()
			not = true
		}
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return IsNullExpr{E: l, Not: not}, nil
	case p.atKeyword("LIKE"):
		p.advance()
		r, err := p.additive()
		if err != nil {
			return nil, err
		}
		return BinaryExpr{Op: "LIKE", L: l, R: r}, nil
	}
	return l, nil
}

func isCmpOp(op string) bool {
	switch op {
	case "=", "<>", "<", ">", "<=", ">=":
		return true
	}
	return false
}

func (p *parser) additive() (Expr, error) {
	l, err := p.multiplicative()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOp && (p.peek().text == "+" || p.peek().text == "-") {
		op := p.advance().text
		r, err := p.multiplicative()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) multiplicative() (Expr, error) {
	l, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOp && (p.peek().text == "*" || p.peek().text == "/") {
		op := p.advance().text
		r, err := p.primaryExpr()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) primaryExpr() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokParam:
		p.advance()
		return ParamExpr{Name: t.text}, nil
	case tokNumber:
		p.advance()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return LiteralExpr{Val: value.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return LiteralExpr{Val: value.NewInt(n)}, nil
	case tokString:
		p.advance()
		return LiteralExpr{Val: value.NewString(t.text)}, nil
	case tokOp:
		if t.text == "-" { // unary minus
			p.advance()
			e, err := p.primaryExpr()
			if err != nil {
				return nil, err
			}
			if lit, ok := e.(LiteralExpr); ok && lit.Val.Kind() == value.Int {
				return LiteralExpr{Val: value.NewInt(-lit.Val.Int())}, nil
			}
			return BinaryExpr{Op: "-", L: LiteralExpr{Val: value.NewInt(0)}, R: e}, nil
		}
		if t.text == "*" { // bare * select item (e.g. SELECT *)
			p.advance()
			return FuncExpr{Name: "*", Star: true}, nil
		}
		return nil, p.errorf("unexpected operator %q", t.text)
	case tokLParen:
		p.advance()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		p.advance()
		name := t.text
		// Function call?
		if p.peek().kind == tokLParen {
			p.advance()
			fn := FuncExpr{Name: strings.ToUpper(name)}
			if p.peek().kind == tokOp && p.peek().text == "*" {
				p.advance()
				fn.Star = true
			} else if p.peek().kind != tokRParen {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					fn.Args = append(fn.Args, a)
					if p.peek().kind != tokComma {
						break
					}
					p.advance()
				}
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return fn, nil
		}
		// Qualified column?
		if p.peek().kind == tokDot {
			p.advance()
			c, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			return ColumnExpr{Qualifier: name, Name: c.text}, nil
		}
		return ColumnExpr{Name: name}, nil
	case tokKeyword:
		if t.text == "NULL" {
			p.advance()
			return LiteralExpr{Val: value.NewNull()}, nil
		}
		return nil, p.errorf("unexpected keyword %s in expression", t.text)
	default:
		return nil, p.errorf("unexpected token %q in expression", t.text)
	}
}
