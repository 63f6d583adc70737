// Package query implements STRIP's SQL-subset query engine: select-project-
// join with group-by aggregation over standard and temporary tables, plus
// INSERT/UPDATE/DELETE statement execution. Query results materialize as
// temporary tables in the paper's §6.1 pointer representation whenever the
// select list allows it.
package query

import (
	"fmt"
	"strings"

	"github.com/stripdb/strip/internal/types"
)

// Expr is a scalar expression over a query's sources. It is the syntax
// form: resolve binds it to sources and lower (lower.go) turns the bound
// form into what the executor evaluates.
type Expr interface {
	// resolve binds column references to (source, column) positions.
	resolve(srcs []*source) error
	// String renders the expression (diagnostics, plan dumps).
	String() string
	// walk visits the expression tree.
	walk(fn func(Expr))
	// clone deep-copies the expression so each Run resolves privately.
	clone() Expr
}

// ColRef names a column, optionally qualified by table (or alias).
type ColRef struct {
	Table string // optional qualifier
	Col   string

	src, col int // resolved position
}

// Col builds an unqualified column reference.
func Col(name string) *ColRef { return &ColRef{Col: name} }

// QCol builds a table-qualified column reference.
func QCol(table, col string) *ColRef { return &ColRef{Table: table, Col: col} }

func (c *ColRef) resolve(srcs []*source) error {
	found := -1
	for i, s := range srcs {
		if c.Table != "" && s.name != c.Table {
			continue
		}
		if ci := s.schema.ColIndex(c.Col); ci >= 0 {
			if found >= 0 {
				return fmt.Errorf("query: column %s is ambiguous", c)
			}
			found = i
			c.src, c.col = i, ci
		}
	}
	if found < 0 {
		return fmt.Errorf("query: column %s not found", c)
	}
	return nil
}

// String renders the reference.
func (c *ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Col
	}
	return c.Col
}

func (c *ColRef) walk(fn func(Expr)) { fn(c) }

func (c *ColRef) clone() Expr { cp := *c; return &cp }

// cloneRef deep-copies a column reference.
func (c *ColRef) cloneRef() *ColRef { cp := *c; return &cp }

// ConstExpr is a literal value.
type ConstExpr struct{ Val types.Value }

// Const builds a literal expression.
func Const(v types.Value) *ConstExpr { return &ConstExpr{Val: v} }

func (c *ConstExpr) resolve([]*source) error { return nil }

// String renders the literal.
func (c *ConstExpr) String() string { return c.Val.String() }

func (c *ConstExpr) walk(fn func(Expr)) { fn(c) }

func (c *ConstExpr) clone() Expr { cp := *c; return &cp }

// ParamExpr is a placeholder for a literal: the statement cache's templates
// carry one wherever the statement text had a string or number, and each
// run supplies the values. Kind is the literal's kind, fixed per template,
// so a template's output column kinds do not depend on the run.
type ParamExpr struct {
	Index int
	Kind  types.Kind
}

// Param builds a placeholder for the run's index-th parameter.
func Param(index int, kind types.Kind) *ParamExpr { return &ParamExpr{Index: index, Kind: kind} }

func (p *ParamExpr) resolve([]*source) error { return nil }

// String renders the placeholder.
func (p *ParamExpr) String() string { return fmt.Sprintf("?%d", p.Index) }

func (p *ParamExpr) walk(fn func(Expr)) { fn(p) }

func (p *ParamExpr) clone() Expr { return p } // immutable

// BindParams returns e with every placeholder replaced by its value from
// params: the expression as the statement text had it. EXPLAIN renders
// predicates through it.
func BindParams(e Expr, params []types.Value) Expr {
	switch x := e.(type) {
	case *ParamExpr:
		return Const(params[x.Index])
	case *BinExpr:
		return Arith(BindParams(x.Left, params), x.Op, BindParams(x.Right, params))
	case *FuncExpr:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = BindParams(a, params)
		}
		return Call(x.Name, args...)
	default:
		return e
	}
}

// BinExpr is an arithmetic expression.
type BinExpr struct {
	Op          byte // + - * /
	Left, Right Expr
}

// Arith builds an arithmetic expression.
func Arith(left Expr, op byte, right Expr) *BinExpr {
	return &BinExpr{Op: op, Left: left, Right: right}
}

func (b *BinExpr) resolve(srcs []*source) error {
	if err := b.Left.resolve(srcs); err != nil {
		return err
	}
	return b.Right.resolve(srcs)
}

// String renders the expression.
func (b *BinExpr) String() string {
	return fmt.Sprintf("(%s %c %s)", b.Left, b.Op, b.Right)
}

func (b *BinExpr) walk(fn func(Expr)) {
	fn(b)
	b.Left.walk(fn)
	b.Right.walk(fn)
}

func (b *BinExpr) clone() Expr {
	return &BinExpr{Op: b.Op, Left: b.Left.clone(), Right: b.Right.clone()}
}

// FuncExpr calls a registered scalar function (e.g. f_BS, the Black-Scholes
// pricing function the PTA registers; paper §3).
type FuncExpr struct {
	Name string
	Args []Expr

	fn ScalarFunc
}

// Call builds a scalar function call.
func Call(name string, args ...Expr) *FuncExpr { return &FuncExpr{Name: name, Args: args} }

func (f *FuncExpr) resolve(srcs []*source) error {
	fn, ok := LookupFunc(f.Name)
	if !ok {
		return fmt.Errorf("query: unknown function %q", f.Name)
	}
	f.fn = fn
	for _, a := range f.Args {
		if err := a.resolve(srcs); err != nil {
			return err
		}
	}
	return nil
}

// String renders the call.
func (f *FuncExpr) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return f.Name + "(" + strings.Join(parts, ", ") + ")"
}

func (f *FuncExpr) walk(fn func(Expr)) {
	fn(f)
	for _, a := range f.Args {
		a.walk(fn)
	}
}

func (f *FuncExpr) clone() Expr {
	args := make([]Expr, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.clone()
	}
	return &FuncExpr{Name: f.Name, Args: args}
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String renders the operator.
func (o CmpOp) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return "?"
	}
}

func (o CmpOp) holds(c int) bool {
	switch o {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	default:
		return false
	}
}

// Pred is a comparison predicate; WHERE clauses are conjunctions of Preds.
type Pred struct {
	Op          CmpOp
	Left, Right Expr
}

// Cmp builds a predicate.
func Cmp(left Expr, op CmpOp, right Expr) Pred { return Pred{Op: op, Left: left, Right: right} }

// Eq builds an equality predicate.
func Eq(left, right Expr) Pred { return Cmp(left, EQ, right) }

func (p Pred) resolve(srcs []*source) error {
	if err := p.Left.resolve(srcs); err != nil {
		return err
	}
	return p.Right.resolve(srcs)
}

func (p Pred) clone() Pred {
	return Pred{Op: p.Op, Left: p.Left.clone(), Right: p.Right.clone()}
}

// String renders the predicate.
func (p Pred) String() string {
	return fmt.Sprintf("%s %s %s", p.Left, p.Op, p.Right)
}

// RewriteRefs returns a copy of e with every column reference replaced by
// rename's result (rename may return its argument unchanged). The view
// generator uses this to retarget base-table references onto the new/old
// transition tables.
func RewriteRefs(e Expr, rename func(*ColRef) *ColRef) Expr {
	switch x := e.(type) {
	case *ColRef:
		out := rename(x)
		cp := *out
		return &cp
	case *ConstExpr:
		return x.clone()
	case *BinExpr:
		return &BinExpr{Op: x.Op, Left: RewriteRefs(x.Left, rename), Right: RewriteRefs(x.Right, rename)}
	case *FuncExpr:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = RewriteRefs(a, rename)
		}
		return &FuncExpr{Name: x.Name, Args: args}
	default:
		return e
	}
}

// Refs collects the column references in an expression.
func Refs(e Expr) []*ColRef {
	var out []*ColRef
	e.walk(func(x Expr) {
		if c, ok := x.(*ColRef); ok {
			out = append(out, c)
		}
	})
	return out
}

// FoldConst evaluates an expression that references no columns, returning
// ok=false when the expression depends on row data. Used by the SQL parser
// for literal contexts (INSERT values with signs or arithmetic).
func FoldConst(e Expr) (types.Value, bool) {
	hasCol := false
	e.walk(func(x Expr) {
		if _, isCol := x.(*ColRef); isCol {
			hasCol = true
		}
	})
	if hasCol {
		return types.Null(), false
	}
	if err := e.resolve(nil); err != nil {
		return types.Null(), false
	}
	low := lower(e, nil)
	v, err := low.eval(&row{})
	if err != nil {
		return types.Null(), false
	}
	return v, true
}
