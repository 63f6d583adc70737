package query

import (
	"fmt"
	"sync/atomic"

	"github.com/stripdb/strip/internal/lock"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// InsertStmt inserts literal rows into a table.
type InsertStmt struct {
	Table string
	Rows  [][]types.Value
}

// Run executes the insert, returning the number of rows inserted.
func (s *InsertStmt) Run(tx *txn.Txn) (int, error) {
	tx.Charge(tx.Model().StmtSetup)
	for i, row := range s.Rows {
		if _, err := tx.Insert(s.Table, row); err != nil {
			return i, err
		}
	}
	return len(s.Rows), nil
}

// SetClause assigns an expression to a column in an UPDATE.
type SetClause struct {
	Col  string
	Expr Expr
	// AddTo marks `SET col += expr` (the paper's rules use this form for
	// incremental view maintenance).
	AddTo bool
}

// UpdateStmt is `UPDATE table SET ... WHERE ...`. Set expressions and
// predicates may reference only the target table's columns. A statement is
// immutable once built and may be run concurrently; like Select it keeps
// its bound form for the next run.
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where []Pred

	plan atomic.Pointer[dmlPlan]
}

// Run executes the update, returning the number of rows changed.
func (s *UpdateStmt) Run(tx *txn.Txn) (int, error) { return s.RunParams(tx, nil) }

// RunParams is Run for a statement with placeholders; params holds the
// run's values in placeholder order.
func (s *UpdateStmt) RunParams(tx *txn.Txn, params []types.Value) (int, error) {
	var cur [1]cursor
	var buf [inlineTargets]*storage.Record
	r := &row{cur: cur[:], params: params}
	p, recs, err := collectTargets(tx, &s.plan, s.Table, s.Where, s.Set, r, buf[:0])
	if err != nil {
		return 0, err
	}
	for _, rec := range recs {
		r.cur[0].rec = rec
		vals := rec.Values()
		for i := range p.set {
			sp := &p.set[i]
			v, err := sp.expr.eval(r)
			if err != nil {
				return 0, err
			}
			if sp.addTo {
				v, err = types.Add(vals[sp.col], v)
				if err != nil {
					return 0, err
				}
			}
			vals[sp.col] = v
		}
		if _, err := tx.Update(s.Table, rec, vals); err != nil {
			return 0, err
		}
	}
	return len(recs), nil
}

// DeleteStmt is `DELETE FROM table WHERE ...`; immutable and shareable
// like UpdateStmt.
type DeleteStmt struct {
	Table string
	Where []Pred

	plan atomic.Pointer[dmlPlan]
}

// Run executes the delete, returning the number of rows removed.
func (s *DeleteStmt) Run(tx *txn.Txn) (int, error) { return s.RunParams(tx, nil) }

// RunParams is Run for a statement with placeholders.
func (s *DeleteStmt) RunParams(tx *txn.Txn, params []types.Value) (int, error) {
	var cur [1]cursor
	var buf [inlineTargets]*storage.Record
	_, recs, err := collectTargets(tx, &s.plan, s.Table, s.Where, nil, &row{cur: cur[:], params: params}, buf[:0])
	if err != nil {
		return 0, err
	}
	for _, rec := range recs {
		if err := tx.Delete(s.Table, rec); err != nil {
			return 0, err
		}
	}
	return len(recs), nil
}

// dmlPlan is an UPDATE's or DELETE's WHERE and SET bound to the target
// table: resolved, lowered, and split into the index probe that finds the
// candidate rows and the filter over them. It is built on the statement's
// first run and reused until the table is replaced (DROP + CREATE) or gains
// an index; it holds no run state, so concurrent runs share it.
type dmlPlan struct {
	src  source
	nIdx int

	probeCol string  // probe the table's index on this column with probeKey; "" scans
	probeKey lowered // a literal or a parameter
	filter   []lowPred
	set      []setPlan
	nParams  int
}

// setPlan is one SET clause bound to the table.
type setPlan struct {
	col   int
	expr  lowered
	addTo bool
}

// bindDML builds the plan: an index is used when a predicate is
// `indexedCol = literal` (the first such, in WHERE order).
func bindDML(tbl *storage.Table, table string, where []Pred, set []SetClause) (*dmlPlan, error) {
	schema := tbl.Schema()
	_, nIdx := tbl.PlanStats()
	p := &dmlPlan{src: source{name: table, schema: schema, tbl: tbl}, nIdx: nIdx}
	srcs := []*source{&p.src}
	var exprs []Expr
	// The statement is shared, and resolving writes positions into column
	// references: bind copies.
	bound := make([]Pred, len(where))
	for i, w := range where {
		bound[i] = w.clone()
		if err := bound[i].resolve(srcs); err != nil {
			return nil, err
		}
		exprs = append(exprs, bound[i].Left, bound[i].Right)
	}
	for _, w := range bound {
		if cr, key, ok := constEq(w); ok && p.probeCol == "" && tbl.HasIndex(cr.Col) {
			p.probeCol, p.probeKey = cr.Col, lower(key, srcs)
			continue
		}
		p.filter = append(p.filter, lowerPred(w, srcs))
	}
	for _, sc := range set {
		e := sc.Expr.clone()
		if err := e.resolve(srcs); err != nil {
			return nil, err
		}
		ci := schema.ColIndex(sc.Col)
		if ci < 0 {
			return nil, fmt.Errorf("query: table %s has no column %q", table, sc.Col)
		}
		exprs = append(exprs, e)
		p.set = append(p.set, setPlan{col: ci, expr: lower(e, srcs), addTo: sc.AddTo})
	}
	p.nParams = paramCount(exprs...)
	return p, nil
}

// inlineTargets is how many target records a statement run holds without
// allocating: a held statement through a key index finds one.
const inlineTargets = 4

// collectTargets gathers the records matching the WHERE clause before any
// mutation (a statement must not observe its own writes mid-scan), binding
// the statement into cache first if it has no plan for the table as it now
// is. The candidates come through fetchRecords in X mode: an indexed probe
// takes the table's IX intent plus X locks on just the probed rows, so
// statements targeting different rows of one table run in parallel; a
// statement with no usable index reads the whole table to decide its
// targets and takes the full table X up front.
// r is the run's row — one cursor and the parameters — left positioned on
// the table for evaluating SET clauses; the targets land in buf while they
// fit.
func collectTargets(tx *txn.Txn, cache *atomic.Pointer[dmlPlan], table string, where []Pred, set []SetClause, r *row, buf []*storage.Record) (*dmlPlan, []*storage.Record, error) {
	model := tx.Model()
	tx.Charge(model.StmtSetup)
	tbl, err := tx.WriteIntent(table)
	if err != nil {
		return nil, nil, err
	}
	p := cache.Load()
	if _, nIdx := tbl.PlanStats(); p == nil || p.src.tbl != tbl || p.nIdx != nIdx {
		if p, err = bindDML(tbl, table, where, set); err != nil {
			return nil, nil, err
		}
		cache.Store(p)
	}
	if len(r.params) < p.nParams {
		return nil, nil, fmt.Errorf("query: statement has %d placeholders, run with %d values", p.nParams, len(r.params))
	}

	tx.Charge(model.OpenCursor)
	var key types.Value
	perRow := model.ScanRow
	if p.probeCol != "" {
		if key, err = p.probeKey.eval(r); err != nil {
			return nil, nil, err
		}
		tx.Charge(model.IndexProbe)
		perRow = model.FetchCursor
	}
	recs, err := fetchRecords(tx, &p.src, lock.Exclusive, p.probeCol, key, buf)
	if err != nil {
		return nil, nil, err
	}
	for range recs {
		tx.Charge(perRow)
	}
	// Keep, in place, the candidates the residual predicates hold for.
	keep := recs[:0]
	for _, rec := range recs {
		r.cur[0].rec = rec
		ok, err := allHold(p.filter, r)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			keep = append(keep, rec)
		}
	}
	tx.Charge(model.CloseCursor)
	return p, keep, nil
}

// constEq recognizes `col = literal` (either side), the literal written
// out or a parameter, and returns the column and the literal.
func constEq(p Pred) (*ColRef, Expr, bool) {
	if p.Op != EQ {
		return nil, nil, false
	}
	for _, side := range [2][2]Expr{{p.Left, p.Right}, {p.Right, p.Left}} {
		cr, isCol := side[0].(*ColRef)
		if !isCol {
			continue
		}
		switch side[1].(type) {
		case *ConstExpr, *ParamExpr:
			return cr, side[1], true
		}
	}
	return nil, nil, false
}
