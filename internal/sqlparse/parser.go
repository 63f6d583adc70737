package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/core"
	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/types"
)

// Stmt is a parsed statement; switch on the concrete type.
type Stmt interface{ stmtNode() }

// CreateTable is `CREATE TABLE name (col type, ...)`.
type CreateTable struct {
	Name string
	Cols []ColumnDef
}

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name string
	Type string
}

// CreateIndex is `CREATE INDEX ON table (column) [USING hash|rbtree]`.
type CreateIndex struct {
	Table  string
	Column string
	Kind   string
}

// DropTable is `DROP TABLE name`.
type DropTable struct{ Name string }

// DropRule is `DROP RULE name`.
type DropRule struct{ Name string }

// CreateRule wraps a parsed rule definition.
type CreateRule struct{ Rule *core.Rule }

// CreateView is `CREATE MATERIALIZED VIEW name AS SELECT ...`; the engine
// generates the maintenance rule automatically (see package viewgen).
type CreateView struct {
	Name  string
	Query *query.Select
}

// SelectStmt wraps a parsed query.
type SelectStmt struct{ Query *query.Select }

// ExplainStmt is `EXPLAIN SELECT ...`: execute the query and render the
// chosen physical plan instead of the rows.
type ExplainStmt struct{ Query *query.Select }

// InsertStmt wraps a parsed insert.
type InsertStmt struct{ Stmt *query.InsertStmt }

// UpdateStmt wraps a parsed update.
type UpdateStmt struct{ Stmt *query.UpdateStmt }

// DeleteStmt wraps a parsed delete.
type DeleteStmt struct{ Stmt *query.DeleteStmt }

func (*CreateTable) stmtNode() {}
func (*CreateIndex) stmtNode() {}
func (*DropTable) stmtNode()   {}
func (*DropRule) stmtNode()    {}
func (*CreateRule) stmtNode()  {}
func (*CreateView) stmtNode()  {}
func (*SelectStmt) stmtNode()  {}
func (*ExplainStmt) stmtNode() {}
func (*InsertStmt) stmtNode()  {}
func (*UpdateStmt) stmtNode()  {}
func (*DeleteStmt) stmtNode()  {}

// parseCalls counts parser runs process-wide.
var parseCalls atomic.Int64

// ParseCalls reports how many times the parser has run in this process,
// through Parse or through a statement-cache miss. Tests difference it
// around a request to assert how often a path parses.
func ParseCalls() int64 { return parseCalls.Load() }

// Parse parses one statement (a trailing semicolon is allowed).
func Parse(src string) (Stmt, error) { return parse(src, false) }

// parse runs the parser over src. With template set every literal the
// lexer numbered becomes a placeholder of the literal's kind instead of a
// constant: the form the statement cache keeps, executable with any values
// of those kinds.
func parse(src string, template bool) (Stmt, error) {
	parseCalls.Add(1)
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src, template: template}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.acceptSym(";")
	if !p.atEOF() {
		return nil, p.errf("trailing input after statement")
	}
	return stmt, nil
}

type parser struct {
	toks     []token
	i        int
	src      string
	template bool
}

func (p *parser) peek() token    { return p.toks[p.i] }
func (p *parser) advance() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) atEOF() bool    { return p.peek().kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: %s (near position %d in %q)",
		fmt.Sprintf(format, args...), p.peek().pos, clip(p.src))
}

func clip(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 60 {
		return s[:60] + "..."
	}
	return s
}

// acceptKw consumes the keyword if present.
func (p *parser) acceptKw(kw string) bool {
	if t := p.peek(); t.kind == tokIdent && t.text == kw {
		p.i++
		return true
	}
	return false
}

// expectKw requires a keyword.
func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %q", kw)
	}
	return nil
}

func (p *parser) acceptSym(sym string) bool {
	if t := p.peek(); t.kind == tokSymbol && t.text == sym {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectSym(sym string) error {
	if !p.acceptSym(sym) {
		return p.errf("expected %q", sym)
	}
	return nil
}

// ident consumes any identifier.
func (p *parser) ident() (string, error) {
	if t := p.peek(); t.kind == tokIdent {
		p.i++
		return t.text, nil
	}
	return "", p.errf("expected identifier")
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.acceptKw("create"):
		switch {
		case p.acceptKw("table"):
			return p.parseCreateTable()
		case p.acceptKw("index"):
			return p.parseCreateIndex()
		case p.acceptKw("rule"):
			return p.parseCreateRule()
		case p.acceptKw("materialized"):
			if err := p.expectKw("view"); err != nil {
				return nil, err
			}
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("as"); err != nil {
				return nil, err
			}
			if err := p.expectKw("select"); err != nil {
				return nil, err
			}
			q, err := p.parseSelectBody()
			if err != nil {
				return nil, err
			}
			return &CreateView{Name: name, Query: q}, nil
		default:
			return nil, p.errf("expected TABLE, INDEX, RULE or MATERIALIZED VIEW after CREATE")
		}
	case p.acceptKw("drop"):
		switch {
		case p.acceptKw("table"):
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &DropTable{Name: name}, nil
		case p.acceptKw("rule"):
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &DropRule{Name: name}, nil
		default:
			return nil, p.errf("expected TABLE or RULE after DROP")
		}
	case p.acceptKw("select"):
		q, err := p.parseSelectBody()
		if err != nil {
			return nil, err
		}
		return &SelectStmt{Query: q}, nil
	case p.acceptKw("explain"):
		if err := p.expectKw("select"); err != nil {
			return nil, err
		}
		q, err := p.parseSelectBody()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Query: q}, nil
	case p.acceptKw("insert"):
		return p.parseInsert()
	case p.acceptKw("update"):
		return p.parseUpdate()
	case p.acceptKw("delete"):
		return p.parseDelete()
	default:
		return nil, p.errf("unrecognized statement")
	}
}

func (p *parser) parseCreateTable() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		cn, err := p.ident()
		if err != nil {
			return nil, err
		}
		ct, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, ColumnDef{Name: cn, Type: ct})
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return &CreateTable{Name: name, Cols: cols}, nil
}

func (p *parser) parseCreateIndex() (Stmt, error) {
	if err := p.expectKw("on"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	kind := "hash"
	if p.acceptKw("using") {
		kind, err = p.ident()
		if err != nil {
			return nil, err
		}
	}
	return &CreateIndex{Table: table, Column: col, Kind: kind}, nil
}

// parseCreateRule parses the Figure 2 grammar.
func (p *parser) parseCreateRule() (Stmt, error) {
	r := &core.Rule{}
	var err error
	if r.Name, err = p.ident(); err != nil {
		return nil, err
	}
	if err = p.expectKw("on"); err != nil {
		return nil, err
	}
	if r.Table, err = p.ident(); err != nil {
		return nil, err
	}
	if err = p.expectKw("when"); err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptKw("inserted"):
			r.Events = append(r.Events, core.EventSpec{Kind: core.Inserted})
		case p.acceptKw("deleted"):
			r.Events = append(r.Events, core.EventSpec{Kind: core.Deleted})
		case p.acceptKw("updated"):
			ev := core.EventSpec{Kind: core.Updated}
			// Optional column list: idents separated by commas, ending at a
			// clause keyword or another event.
			for p.peek().kind == tokIdent && !isRuleClauseKw(p.peek().text) {
				col, _ := p.ident()
				ev.Columns = append(ev.Columns, col)
				if !p.acceptSym(",") {
					break
				}
			}
			r.Events = append(r.Events, ev)
		default:
			if len(r.Events) == 0 {
				return nil, p.errf("expected INSERTED, DELETED or UPDATED")
			}
			goto afterEvents
		}
	}
afterEvents:
	if p.acceptKw("if") {
		for {
			if err := p.expectKw("select"); err != nil {
				return nil, err
			}
			q, err := p.parseSelectBody()
			if err != nil {
				return nil, err
			}
			r.Condition = append(r.Condition, q)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if err := p.expectKw("then"); err != nil {
		return nil, err
	}
	if p.acceptKw("evaluate") {
		for {
			if err := p.expectKw("select"); err != nil {
				return nil, err
			}
			q, err := p.parseSelectBody()
			if err != nil {
				return nil, err
			}
			r.Evaluate = append(r.Evaluate, q)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if err := p.expectKw("execute"); err != nil {
		return nil, err
	}
	if r.Action, err = p.ident(); err != nil {
		return nil, err
	}
	if p.acceptKw("unique") {
		r.Unique = true
		if p.acceptKw("on") {
			for {
				col, err := p.ident()
				if err != nil {
					return nil, err
				}
				r.UniqueOn = append(r.UniqueOn, col)
				if !p.acceptSym(",") {
					break
				}
			}
		}
	}
	if p.acceptKw("after") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errf("expected a number after AFTER")
		}
		p.advance()
		secs, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad delay %q", t.text)
		}
		unit := "seconds"
		if p.peek().kind == tokIdent {
			switch p.peek().text {
			case "second", "seconds", "s", "ms", "millisecond", "milliseconds":
				unit = p.advance().text
			}
		}
		switch unit {
		case "ms", "millisecond", "milliseconds":
			r.Delay = clock.Micros(secs * 1e3)
		default:
			r.Delay = clock.FromSeconds(secs)
		}
	}
	if p.acceptKw("with") {
		if err := p.expectKw("commit_time"); err != nil {
			return nil, err
		}
		r.BindCommitTime = true
	}
	return &CreateRule{Rule: r}, nil
}

func isRuleClauseKw(s string) bool {
	switch s {
	case "if", "then", "inserted", "deleted", "updated", "evaluate", "execute":
		return true
	}
	return false
}

// parseSelectBody parses everything after the SELECT keyword.
func (p *parser) parseSelectBody() (*query.Select, error) {
	q := &query.Select{}
	if p.acceptSym("*") {
		q.Star = true
	} else {
		for {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			q.Items = append(q.Items, item)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		q.From = append(q.From, name)
		if !p.acceptSym(",") {
			break
		}
	}
	if p.acceptKw("where") {
		preds, err := p.parsePredicates()
		if err != nil {
			return nil, err
		}
		q.Where = preds
	}
	if p.acceptKw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			cr, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, cr)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if p.acceptKw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			q.OrderBy = append(q.OrderBy, col)
			if !p.acceptSym(",") {
				break
			}
		}
		if p.acceptKw("desc") {
			q.Desc = true
		} else {
			p.acceptKw("asc")
		}
	}
	if p.acceptKw("limit") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errf("expected a row count after LIMIT")
		}
		p.advance()
		n, err := strconv.Atoi(t.text)
		if err != nil || n <= 0 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		q.Limit = n
	}
	if p.acceptKw("bind") {
		if err := p.expectKw("as"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		q.Bind = name
	}
	return q, nil
}

var aggKws = map[string]query.AggKind{
	"sum":   query.AggSum,
	"count": query.AggCount,
	"avg":   query.AggAvg,
	"min":   query.AggMin,
	"max":   query.AggMax,
}

func (p *parser) parseSelectItem() (query.SelectItem, error) {
	var item query.SelectItem
	if t := p.peek(); t.kind == tokIdent {
		if agg, isAgg := aggKws[t.text]; isAgg && p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "(" {
			p.advance() // agg keyword
			p.advance() // (
			e, err := p.parseExpr()
			if err != nil {
				return item, err
			}
			if err := p.expectSym(")"); err != nil {
				return item, err
			}
			item.Agg = agg
			item.Expr = e
		}
	}
	if item.Expr == nil {
		e, err := p.parseExpr()
		if err != nil {
			return item, err
		}
		item.Expr = e
	}
	if p.acceptKw("as") {
		alias, err := p.ident()
		if err != nil {
			return item, err
		}
		item.As = alias
	}
	return item, nil
}

func (p *parser) parsePredicates() ([]query.Pred, error) {
	var preds []query.Pred
	for {
		left, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		opTok := p.peek()
		if opTok.kind != tokSymbol {
			return nil, p.errf("expected comparison operator")
		}
		var op query.CmpOp
		switch opTok.text {
		case "=":
			op = query.EQ
		case "<>", "!=":
			op = query.NE
		case "<":
			op = query.LT
		case "<=":
			op = query.LE
		case ">":
			op = query.GT
		case ">=":
			op = query.GE
		default:
			return nil, p.errf("unknown comparison %q", opTok.text)
		}
		p.advance()
		right, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		preds = append(preds, query.Cmp(left, op, right))
		if !p.acceptKw("and") {
			return preds, nil
		}
	}
}

// parseExpr: additive over multiplicative over primary.
func (p *parser) parseExpr() (query.Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSym("+"):
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = query.Arith(left, '+', right)
		case p.acceptSym("-"):
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = query.Arith(left, '-', right)
		default:
			return left, nil
		}
	}
}

func (p *parser) parseTerm() (query.Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSym("*"):
			right, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			left = query.Arith(left, '*', right)
		case p.acceptSym("/"):
			right, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			left = query.Arith(left, '/', right)
		default:
			return left, nil
		}
	}
}

func (p *parser) parsePrimary() (query.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber, tokString:
		p.advance()
		v, err := literal(t)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		if p.template && t.param >= 0 {
			return query.Param(int(t.param), v.Kind()), nil
		}
		return query.Const(v), nil
	case tokSymbol:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.text == "-" {
			p.advance()
			e, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return query.Arith(query.Const(types.Int(0)), '-', e), nil
		}
		return nil, p.errf("unexpected %q in expression", t.text)
	case tokIdent:
		// Function call?
		if p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "(" {
			name := p.advance().text
			p.advance() // (
			var args []query.Expr
			if !p.acceptSym(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.acceptSym(",") {
						continue
					}
					break
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
			}
			return query.Call(name, args...), nil
		}
		return p.parseColRef()
	default:
		return nil, p.errf("unexpected end of expression")
	}
}

func (p *parser) parseColRef() (*query.ColRef, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if p.acceptSym(".") {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		return query.QCol(name, col), nil
	}
	return query.Col(name), nil
}

func (p *parser) parseInsert() (Stmt, error) {
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("values"); err != nil {
		return nil, err
	}
	s := &query.InsertStmt{Table: table}
	for {
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var row []types.Value
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			v, ok := query.FoldConst(e)
			if !ok {
				return nil, p.errf("INSERT values must be literals")
			}
			row = append(row, v)
			if p.acceptSym(",") {
				continue
			}
			break
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		s.Rows = append(s.Rows, row)
		if !p.acceptSym(",") {
			break
		}
	}
	return &InsertStmt{Stmt: s}, nil
}

func (p *parser) parseUpdate() (Stmt, error) {
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("set"); err != nil {
		return nil, err
	}
	s := &query.UpdateStmt{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		var addTo bool
		switch {
		case p.acceptSym("+="):
			addTo = true
		case p.acceptSym("="):
		default:
			return nil, p.errf("expected = or += in SET")
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Set = append(s.Set, query.SetClause{Col: col, Expr: e, AddTo: addTo})
		if !p.acceptSym(",") {
			break
		}
	}
	if p.acceptKw("where") {
		preds, err := p.parsePredicates()
		if err != nil {
			return nil, err
		}
		s.Where = preds
	}
	return &UpdateStmt{Stmt: s}, nil
}

func (p *parser) parseDelete() (Stmt, error) {
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	s := &query.DeleteStmt{Table: table}
	if p.acceptKw("where") {
		preds, err := p.parsePredicates()
		if err != nil {
			return nil, err
		}
		s.Where = preds
	}
	return &DeleteStmt{Stmt: s}, nil
}
