package query

import (
	"fmt"

	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/types"
)

// cursor is one source's current position in the joint row the operators
// build: a record of a standard table, or a row of the temp table tmp.
// tmp is fixed for the run; leaves move only rec or row.
type cursor struct {
	rec *storage.Record
	tmp *storage.TempTable
	row int
}

// row is what a lowered expression evaluates against: the joint row —
// one cursor per source — and the run's parameters. Plans are shared by
// concurrent runs with different parameters, so the values live here, in
// the run, never in the plan.
type row struct {
	cur    []cursor
	params []types.Value
}

type lowKind uint8

const (
	lowConst lowKind = iota
	lowParam         // the run's parameter number col
	lowRec           // column of a standard-table record
	lowTmp           // column of a temp-table row
	lowArith
	lowCall
)

// lowered is an Expr bound to a plan's sources and flattened for the row
// loop: one tagged node per operator, column operands carrying where to
// find the field. Plans build it once and share it across runs, so it is
// immutable; evaluation state lives on the caller's stack.
type lowered struct {
	kind     lowKind
	op       byte        // lowArith
	src, col int         // lowRec, lowTmp; lowParam uses col
	val      types.Value // lowConst
	args     []lowered   // lowArith: left, right; lowCall: arguments
	fn       ScalarFunc  // lowCall
}

// lower flattens a resolved expression. srcs tells table sources from temp
// ones; an expression with no column references lowers with srcs nil.
func lower(e Expr, srcs []*source) lowered {
	switch x := e.(type) {
	case *ColRef:
		kind := lowRec
		if srcs[x.src].tbl == nil {
			kind = lowTmp
		}
		return lowered{kind: kind, src: x.src, col: x.col}
	case *ConstExpr:
		return lowered{kind: lowConst, val: x.Val}
	case *ParamExpr:
		return lowered{kind: lowParam, col: x.Index}
	case *BinExpr:
		return lowered{kind: lowArith, op: x.Op, args: []lowered{lower(x.Left, srcs), lower(x.Right, srcs)}}
	case *FuncExpr:
		args := make([]lowered, len(x.Args))
		for i, a := range x.Args {
			args[i] = lower(a, srcs)
		}
		return lowered{kind: lowCall, fn: x.fn, args: args}
	default:
		panic(fmt.Sprintf("query: cannot lower %T", e))
	}
}

// leaf returns a column operand's field in place — inside its record or
// result slab — a literal's copy in the plan or in the run's parameters,
// and nil for a computed node. Callers must not write through the result.
func (e *lowered) leaf(r *row) *types.Value {
	switch e.kind {
	case lowRec:
		return r.cur[e.src].rec.At(e.col)
	case lowTmp:
		c := &r.cur[e.src]
		return c.tmp.At(c.row, e.col)
	case lowConst:
		return &e.val
	case lowParam:
		return &r.params[e.col]
	}
	return nil
}

// ref evaluates the expression for the row r without copying a
// value it can point at: leaves come back in place, a computed value lands
// in *tmp. (compute never calls ref, so *tmp stays on the caller's stack.)
func (e *lowered) ref(r *row, tmp *types.Value) (*types.Value, error) {
	if v := e.leaf(r); v != nil {
		return v, nil
	}
	v, err := e.compute(r)
	*tmp = v
	return tmp, err
}

// eval evaluates the expression to a copy.
func (e *lowered) eval(r *row) (types.Value, error) {
	if v := e.leaf(r); v != nil {
		return *v, nil
	}
	return e.compute(r)
}

// compute evaluates an arithmetic or call node.
func (e *lowered) compute(r *row) (types.Value, error) {
	if e.kind == lowCall {
		args := make([]types.Value, len(e.args))
		for i := range e.args {
			v, err := e.args[i].eval(r)
			if err != nil {
				return types.Null(), err
			}
			args[i] = v
		}
		return e.fn(args)
	}
	l, err := e.args[0].eval(r)
	if err != nil {
		return types.Null(), err
	}
	rv, err := e.args[1].eval(r)
	if err != nil {
		return types.Null(), err
	}
	switch e.op {
	case '+':
		return types.Add(l, rv)
	case '-':
		return types.Sub(l, rv)
	case '*':
		return types.Mul(l, rv)
	case '/':
		return types.Div(l, rv)
	default:
		return types.Null(), fmt.Errorf("query: unknown operator %c", e.op)
	}
}

// lowPred is a lowered comparison.
type lowPred struct {
	op   CmpOp
	l, r lowered
}

func lowerPred(p Pred, srcs []*source) lowPred {
	return lowPred{op: p.Op, l: lower(p.Left, srcs), r: lower(p.Right, srcs)}
}

func lowerPreds(ps []Pred, srcs []*source) []lowPred {
	if len(ps) == 0 {
		return nil
	}
	out := make([]lowPred, len(ps))
	for i, p := range ps {
		out[i] = lowerPred(p, srcs)
	}
	return out
}

// holds evaluates the comparison for the row r.
func (p *lowPred) holds(r *row) (bool, error) {
	var lt, rt types.Value
	lv, err := p.l.ref(r, &lt)
	if err != nil {
		return false, err
	}
	rv, err := p.r.ref(r, &rt)
	if err != nil {
		return false, err
	}
	return p.op.holds(types.Compare(lv, rv)), nil
}

// allHold reports whether every predicate holds for r.
func allHold(ps []lowPred, r *row) (bool, error) {
	for i := range ps {
		ok, err := ps[i].holds(r)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}
