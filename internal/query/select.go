package query

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/cost"
	"github.com/stripdb/strip/internal/lock"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// Resolver maps a table name to a standard or temporary table. Rule action
// tasks resolve bound tables first and fall back to the database catalog
// (paper §6.3); plain transactions use TxnResolver.
type Resolver interface {
	Resolve(tx *txn.Txn, name string) (*storage.Table, *storage.TempTable, error)
}

// TxnResolver resolves names against the database only, acquiring
// intention-shared table locks through the transaction; the executor then
// locks the individual rows it reads (or escalates a scan to table S).
type TxnResolver struct{}

// Resolve implements Resolver.
func (TxnResolver) Resolve(tx *txn.Txn, name string) (*storage.Table, *storage.TempTable, error) {
	tbl, err := tx.ReadTable(name)
	if err != nil {
		return nil, nil, err
	}
	return tbl, nil, nil
}

// source is one FROM entry after resolution: exactly one of tbl/tmp is set.
type source struct {
	name   string
	schema *catalog.Schema
	tbl    *storage.Table
	tmp    *storage.TempTable
}

// AggKind selects an aggregate function for a select item.
type AggKind uint8

// Aggregates.
const (
	AggNone AggKind = iota
	AggSum
	AggCount
	AggAvg
	AggMin
	AggMax
)

// String names the aggregate.
func (a AggKind) String() string {
	switch a {
	case AggNone:
		return ""
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return "?"
	}
}

// SelectItem is one output column of a Select.
type SelectItem struct {
	Expr Expr
	Agg  AggKind
	As   string // output column name; defaults to the column name for refs
}

// Item builds a plain select item.
func Item(e Expr, as string) SelectItem { return SelectItem{Expr: e, As: as} }

// AggItem builds an aggregate select item.
func AggItem(agg AggKind, e Expr, as string) SelectItem {
	return SelectItem{Expr: e, Agg: agg, As: as}
}

// Select is a select-project-join query with optional grouping.
//
// Execution is staged: the query lowers onto its resolved sources once
// (clone, resolve, plan — see compile.go), the resulting immutable plan
// is cached on the Select and shared across runs whose sources still
// match its signature, and each run drives the plan's levels as nested
// loops (see iter.go) under the calling transaction's lock or snapshot
// discipline.
type Select struct {
	Items   []SelectItem
	From    []string
	Where   []Pred
	GroupBy []*ColRef
	// Star selects every column of every FROM table in order (`select *`);
	// Items must be empty.
	Star bool
	// OrderBy sorts the result by output columns (by name); Desc flips the
	// whole ordering.
	OrderBy []string
	Desc    bool
	// Limit caps the result to the first n rows (applied after OrderBy);
	// zero means no cap.
	Limit int
	// Bind names the result temp table (the `bind as` clause); defaults to
	// "result".
	Bind string

	// cache holds the most recent compiled plan. Plans are immutable and
	// safe to share: concurrent runs load the same pointer and keep all
	// mutable state in their own exec.
	cache atomic.Pointer[compiled]
}

// Run executes the query inside tx, resolving table names through res, and
// returns the result as a temporary table. Results use the §6.1 pointer
// layout for every column that traces back to a standard-table record;
// computed and aggregate columns are materialized.
func (q *Select) Run(tx *txn.Txn, res Resolver) (*storage.TempTable, error) {
	return q.RunParams(tx, res, nil)
}

// RunParams is Run for a query with placeholders (a statement-cache
// template): params holds the run's values in placeholder order. The query
// and its plan are shared between concurrent runs; params belongs to this
// one.
func (q *Select) RunParams(tx *txn.Txn, res Resolver, params []types.Value) (*storage.TempTable, error) {
	out, _, err := q.runTable(tx, res, params, false)
	return out, err
}

// RunExplain executes like RunParams and additionally returns the physical
// plan tree annotated with the planner's estimated rows and the actual
// rows each operator produced.
func (q *Select) RunExplain(tx *txn.Txn, res Resolver, params ...types.Value) (*storage.TempTable, *PlanNode, error) {
	return q.runTable(tx, res, params, true)
}

// RunTo executes like RunParams but hands the rows to dst as the loop
// reaches them instead of building a temp table; only ORDER BY holds them
// back, to sort them.
func (q *Select) RunTo(tx *txn.Txn, res Resolver, params []types.Value, dst RowSink) error {
	_, err := q.runTimed(tx, res, params, false, &valueSink{dst: dst})
	return err
}

// runTable runs the query into a temp table. The table under construction
// pins the rows it points at, and the caller's transaction may commit
// whatever this returns (a read-only one always does), so every error
// return retires it.
func (q *Select) runTable(tx *txn.Txn, res Resolver, params []types.Value, wantNode bool) (*storage.TempTable, *PlanNode, error) {
	t := &tempSink{}
	node, err := q.runTimed(tx, res, params, wantNode, t)
	if err != nil {
		if t.out != nil {
			t.out.Retire()
		}
		return nil, nil, err
	}
	return t.out, node, nil
}

func (q *Select) runTimed(tx *txn.Txn, res Resolver, params []types.Value, wantNode bool, out sink) (*PlanNode, error) {
	mgr := tx.Manager()
	start := mgr.Clock.Now()
	node, err := q.runQuery(tx, res, params, wantNode, out)
	mgr.Query.Selects.Inc()
	mgr.Query.SelectMicros.Record(mgr.Clock.Now() - start)
	return node, err
}

func (q *Select) runQuery(tx *txn.Txn, res Resolver, params []types.Value, wantNode bool, out sink) (*PlanNode, error) {
	ex := newExec(tx, lock.Shared)
	defer ex.free()
	model := ex.model
	tx.Charge(model.StmtSetup)
	for _, name := range q.From {
		tbl, tmp, err := res.Resolve(tx, name)
		if err != nil {
			return nil, err
		}
		ex.addSource(name, tbl, tmp)
		tx.Charge(model.OpenCursor)
	}
	if len(ex.srcs) == 0 {
		return nil, fmt.Errorf("query: select with empty FROM")
	}
	if len(q.Items) == 0 && !q.Star {
		return nil, fmt.Errorf("query: select with no items")
	}
	c, err := q.ensureCompiled(tx, ex.srcs)
	if err != nil {
		if len(params) > 0 {
			// Two compile messages quote a select item, and a template
			// would quote a placeholder where the text had a literal:
			// compile once more with the values written back, on this
			// error path only, for a fresh parse's message word for word.
			if _, berr := compile(q.WithParams(params), tx, ex.srcs); berr != nil {
				err = berr
			}
		}
		return nil, err
	}
	return ex.run(c, params, wantNode, out)
}

// WithParams returns the query with every placeholder replaced by its value
// from params: the query as the statement text had it.
func (q *Select) WithParams(params []types.Value) *Select {
	b := q.clone()
	for i := range b.Items {
		if b.Items[i].Expr != nil {
			b.Items[i].Expr = BindParams(b.Items[i].Expr, params)
		}
	}
	for i, p := range b.Where {
		b.Where[i] = Cmp(BindParams(p.Left, params), p.Op, BindParams(p.Right, params))
	}
	return b
}

// run drives a compiled plan over the exec's resolved sources, writing
// the result to out.
func (ex *exec) run(c *compiled, params []types.Value, wantNode bool, out sink) (*PlanNode, error) {
	if len(params) < c.nParams {
		return nil, fmt.Errorf("query: statement has %d placeholders, run with %d values", c.nParams, len(params))
	}
	ex.c, ex.q, ex.out = c, c.q, out
	ex.prof = ex.tx.Profile()
	ex.fetchRow, ex.outRow = 0, ex.model.OutputRow
	if ex.mode == lock.Exclusive {
		ex.fetchRow, ex.outRow = ex.model.FetchCursor, 0
	}
	ex.cur = inline(ex.curBuf[:], len(ex.srcs))
	for i, s := range ex.srcs {
		ex.cur[i].tmp = s.tmp
	}
	// A copy: the caller's values then stay where the caller keeps them.
	ex.params = append(ex.paramBuf[:0], params...)
	ex.lv = inline(ex.lvBuf[:], len(c.levels))
	for len(ex.recBufs) < len(ex.lv) {
		ex.recBufs = append(ex.recBufs, nil)
	}
	for i := range ex.lv {
		ex.lv[i] = levelRun{buf: &ex.recBufs[i]}
	}
	if c.agg {
		ex.groups = newGroups(len(c.groupBy), len(c.aggs))
	}
	if err := out.open(c, ex.srcs); err != nil {
		return nil, err
	}

	// Evaluate constant predicates once; a false one proves the result
	// empty.
	pass, err := allHold(c.consts, &ex.row)
	if err == nil && pass {
		_, err = ex.drive(0)
	}
	ex.release()
	if err == nil {
		err = ex.finish()
	}
	if err != nil {
		return nil, err
	}
	// Selectivity feedback: only full runs report — a LIMIT may stop the
	// drive early and would undercount against the estimate.
	if c.q.Limit == 0 {
		c.noteActual(ex.matched)
	}
	sorted, err := out.end(c)
	if err != nil || !wantNode {
		return nil, err
	}
	return ex.explainNode(sorted), nil
}

// clone deep-copies the query for a private run.
func (q *Select) clone() *Select {
	cp := &Select{
		Items:   make([]SelectItem, len(q.Items)),
		From:    append([]string(nil), q.From...),
		Where:   make([]Pred, len(q.Where)),
		GroupBy: make([]*ColRef, len(q.GroupBy)),
		Star:    q.Star,
		OrderBy: append([]string(nil), q.OrderBy...),
		Desc:    q.Desc,
		Limit:   q.Limit,
		Bind:    q.Bind,
	}
	for i, it := range q.Items {
		cp.Items[i] = SelectItem{Agg: it.Agg, As: it.As}
		if it.Expr != nil {
			cp.Items[i].Expr = it.Expr.clone()
		}
	}
	for i, p := range q.Where {
		cp.Where[i] = p.clone()
	}
	for i, g := range q.GroupBy {
		cp.GroupBy[i] = g.cloneRef()
	}
	return cp
}

// exec carries the per-run state of a compiled plan: the transaction,
// this run's resolved sources, the row — the joint cursors the levels
// write into and the run's parameters — the levels' state and the sink the
// output goes to. The run owns every buffer the row loop writes — the
// cursors, the levels' record sets, the sink's row scratch, the grouping
// slabs — so a row moving through the loop allocates nothing. Runs take
// their exec from execs, and a plan of up to inlineSrcs sources sets up
// its run inside it without allocating.
type exec struct {
	runState

	// sel holds a chunk of the innermost level's passing rows (drive).
	sel [selCap]int32

	// recBufs are the levels' record buffers, kept from run to run, so
	// that a scan allocates nothing that grows with its table.
	recBufs [][]*storage.Record

	// The inline storage of a plan of up to inlineSrcs sources, of the
	// parameters of most statements, and a statement's sink.
	srcBuf   [inlineSrcs]source
	srcPtrs  [inlineSrcs]*source
	curBuf   [inlineSrcs]cursor
	lvBuf    [inlineSrcs]levelRun
	paramBuf [4]types.Value
	targets  targetSink
}

// runState is what one run sets in its exec and free clears.
type runState struct {
	c     *compiled
	q     *Select // == c.q: the resolved, immutable query
	tx    *txn.Txn
	model *cost.Model
	srcs  []*source
	row
	lv []levelRun // one per plan level
	// mode is the lock a locked read of a standard table takes: S for a
	// query, X for a statement finding its targets, which never reads
	// from a snapshot.
	mode lock.Mode
	// fetchRow and outRow are the virtual charges per row a probe yields
	// and per row handed to the sink: nothing and OutputRow for a query,
	// FetchCursor and nothing for a statement's targets.
	fetchRow, outRow float64
	// prof receives row accounting (rows visited/matched) when the
	// transaction carries a cost profile; nil otherwise.
	prof *txn.TxnProfile
	// matched counts joint rows emitted (pre-aggregation), always on:
	// it feeds selectivity feedback against the plan's estimate.
	matched int64

	out sink

	// Aggregation state; nil for a projection. accs is the one group's
	// accumulators of a query without GROUP BY, from its first row on.
	groups *groups
	accs   []accum
}

// inlineSrcs is how many sources a run holds in its exec.
const inlineSrcs = 4

var execs = sync.Pool{New: func() any { return new(exec) }}

// newExec takes an exec for a run in tx whose locked reads take mode.
func newExec(tx *txn.Txn, mode lock.Mode) *exec {
	ex := execs.Get().(*exec)
	ex.tx, ex.model, ex.mode, ex.srcs = tx, &tx.Manager().Model, mode, ex.srcPtrs[:0]
	return ex
}

// addSource adds a resolved FROM entry: exactly one of tbl and tmp is set.
func (ex *exec) addSource(name string, tbl *storage.Table, tmp *storage.TempTable) {
	var s *source
	if i := len(ex.srcs); i < inlineSrcs {
		s = &ex.srcBuf[i]
	} else {
		s = new(source)
	}
	*s = source{name: name, tbl: tbl, tmp: tmp}
	if tbl != nil {
		s.schema = tbl.Schema()
	} else {
		s.schema = tmp.Schema()
	}
	ex.srcs = append(ex.srcs, s)
}

// free puts the exec back for another run. It clears the run's state; the
// sources, cursors, parameters and targets left in the inline slots are a
// few pointers, which the next run overwrites.
func (ex *exec) free() {
	ex.runState = runState{}
	execs.Put(ex)
}

// inline returns n elements of buf, or of a new slice when buf is short.
func inline[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// selCap is the most rows the innermost level hands the sink at once:
// enough to keep the records' cache misses overlapping, little enough to
// stay in L1.
const selCap = 128

func exprKind(e Expr, srcs []*source) types.Kind {
	switch x := e.(type) {
	case *ColRef:
		return srcs[x.src].schema.Col(x.col).Kind
	case *ConstExpr:
		return x.Val.Kind()
	case *ParamExpr:
		return x.Kind
	case *BinExpr:
		if exprKind(x.Left, srcs) == types.KindInt && exprKind(x.Right, srcs) == types.KindInt {
			return types.KindInt
		}
		return types.KindFloat
	case *FuncExpr:
		return types.KindFloat
	default:
		return types.KindNull
	}
}

// emit hands the current joint row (ex.cur) to a projection's sink. It
// reports stop once the output holds the rows a LIMIT asks for
// (stopsAtLimit).
func (ex *exec) emit() (stop bool, err error) {
	ex.matched++
	if ex.prof != nil {
		ex.prof.RowsMatched++
	}
	ex.tx.Charge(ex.outRow)
	if err := ex.out.project(ex.c, ex.row); err != nil {
		return false, err
	}
	return ex.c.stopsAtLimit() && ex.matched >= int64(ex.q.Limit), nil
}

// fold adds the innermost level's passing rows sel to their groups'
// accumulators. With GROUP BY every row finds its group. Without, the one
// group is found on the first row and kept (no row, no group: an empty input
// yields no output row), and each aggregate folds the whole chunk in one
// loop: COUNT adds the chunk's length, and an argument that is a column of
// this level's records is read in place, straight from the record set, with
// no cursor to move (an exact SUM then adds the int64 straight in).
func (ex *exec) fold(lp *levelPlan, lv *levelRun, sel []int32) error {
	ex.matched += int64(len(sel))
	if ex.prof != nil {
		ex.prof.RowsMatched += int64(len(sel))
	}
	for range sel {
		ex.tx.Charge(ex.model.GroupRow)
	}
	if ex.groups.width > 0 {
		for _, i := range sel {
			ex.position(lp, lv, int(i))
			accs, err := ex.group()
			if err != nil {
				return err
			}
			for j := range ex.c.aggs {
				if err := ex.foldRow(&ex.c.aggs[j], &accs[j]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if ex.accs == nil {
		ex.accs, _ = ex.group() // no key to evaluate
	}
	for j := range ex.c.aggs {
		sp, a := &ex.c.aggs[j], &ex.accs[j]
		switch {
		case sp.agg == AggCount:
			a.n += int64(len(sel))
		case sp.arg.kind == lowRec && sp.arg.src == lp.src:
			for _, i := range sel {
				if err := a.fold(sp, lv.recs[i].At(sp.arg.col)); err != nil {
					return err
				}
			}
		default:
			for _, i := range sel {
				ex.position(lp, lv, int(i))
				if err := ex.foldRow(sp, a); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// group returns the current joint row's group's accumulators.
func (ex *exec) group() ([]accum, error) {
	g := ex.groups
	for i := range ex.c.groupBy {
		var err error
		if g.key[i], err = ex.c.groupBy[i].eval(&ex.row); err != nil {
			return nil, err
		}
	}
	return g.lookup(), nil
}

// foldRow folds one aggregate's argument for the current joint row.
func (ex *exec) foldRow(sp *aggSpec, a *accum) error {
	if sp.agg == AggCount {
		a.n++
		return nil
	}
	var tmp types.Value
	v, err := sp.arg.ref(&ex.row, &tmp)
	if err != nil {
		return err
	}
	return a.fold(sp, v)
}

// finish hands an aggregation's groups to the sink, one row each. Without
// ORDER BY, a LIMIT stops it (the sink would drop the rest).
func (ex *exec) finish() error {
	g := ex.groups
	if g == nil {
		return nil
	}
	n := g.n
	if ex.q.Limit > 0 && len(ex.c.order) == 0 {
		n = min(n, ex.q.Limit)
	}
	row := make([]types.Value, len(ex.q.Items))
	for gi := 0; gi < n; gi++ {
		for i, it := range ex.q.Items {
			if it.Agg == AggNone {
				row[i] = g.keys[gi*g.width+ex.c.repKey[i]]
			}
		}
		for i := range ex.c.aggs {
			sp := &ex.c.aggs[i]
			row[sp.item] = g.accs[gi*g.nAgg+i].result(sp)
		}
		if err := ex.out.put(row); err != nil {
			return err
		}
	}
	return nil
}
