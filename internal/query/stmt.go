package query

import (
	"strconv"
	"sync/atomic"

	"github.com/stripdb/strip/internal/lock"
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
// immutable once built and may be run concurrently; its first run derives
// the statement's query, and every run shares that query's plan.
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where []Pred

	q atomic.Pointer[Select]
}

// Run executes the update, returning the number of rows changed.
func (s *UpdateStmt) Run(tx *txn.Txn) (int, error) { return s.RunParams(tx, nil) }

// RunParams is Run for a statement with placeholders; params holds the
// run's values in placeholder order.
func (s *UpdateStmt) RunParams(tx *txn.Txn, params []types.Value) (int, error) {
	ex, err := runTargets(tx, stmtQuery(&s.q, s.Table, s.Where, s.Set), params)
	if err != nil {
		return 0, err
	}
	defer ex.free()
	// The query's items are each SET clause's column, then its value.
	items := ex.c.items
	for _, rec := range ex.targets.recs {
		ex.cur[0].rec = rec
		vals := rec.Values()
		for i := 0; i < len(items); i += 2 {
			if vals[items[i].col], err = items[i+1].eval(&ex.row); err != nil {
				return 0, err
			}
		}
		if _, err := tx.Update(s.Table, rec, vals); err != nil {
			return 0, err
		}
	}
	return len(ex.targets.recs), nil
}

// DeleteStmt is `DELETE FROM table WHERE ...`; immutable and shareable
// like UpdateStmt.
type DeleteStmt struct {
	Table string
	Where []Pred

	q atomic.Pointer[Select]
}

// Run executes the delete, returning the number of rows removed.
func (s *DeleteStmt) Run(tx *txn.Txn) (int, error) { return s.RunParams(tx, nil) }

// RunParams is Run for a statement with placeholders.
func (s *DeleteStmt) RunParams(tx *txn.Txn, params []types.Value) (int, error) {
	ex, err := runTargets(tx, stmtQuery(&s.q, s.Table, s.Where, nil), params)
	if err != nil {
		return 0, err
	}
	defer ex.free()
	for _, rec := range ex.targets.recs {
		if err := tx.Delete(s.Table, rec); err != nil {
			return 0, err
		}
	}
	return len(ex.targets.recs), nil
}

// stmtQuery returns an UPDATE's or DELETE's query, deriving it into q on
// the statement's first run: a Select over the table with the statement's
// WHERE whose items are, for each SET clause, the column it writes and the
// value it writes there (`col += e` is `col + e`); a DELETE's has none.
// Concurrent first runs may each derive one, and all use the one stored
// first, so the plan it caches is shared.
func stmtQuery(q *atomic.Pointer[Select], table string, where []Pred, set []SetClause) *Select {
	if d := q.Load(); d != nil {
		return d
	}
	d := &Select{From: []string{table}, Where: where}
	for _, sc := range set {
		val := sc.Expr
		if sc.AddTo {
			val = Arith(Col(sc.Col), '+', val)
		}
		// Aliases keep the output columns distinct when two clauses set
		// one column.
		d.Items = append(d.Items,
			Item(Col(sc.Col), strconv.Itoa(len(d.Items))),
			Item(val, strconv.Itoa(len(d.Items)+1)))
	}
	q.CompareAndSwap(nil, d)
	return q.Load()
}

// runTargets finds a statement's targets: it takes the table's IX, drives
// the query's plan — the planner's probe or a scan — with X locks on the
// rows it reads (a scan takes the table's X), and leaves the records the
// WHERE holds for in the returned exec's target sink, whose cursor and
// parameters then evaluate the query's items. The caller frees the exec.
// The virtual charges are a cursor's: one set-up, open and close, and a
// fetch per probed row or a scanned row per row.
func runTargets(tx *txn.Txn, q *Select, params []types.Value) (*exec, error) {
	ex := newExec(tx, lock.Exclusive)
	model := ex.model
	tx.Charge(model.StmtSetup)
	tbl, err := tx.WriteIntent(q.From[0])
	if err == nil {
		ex.addSource(q.From[0], tbl, nil)
		tx.Charge(model.OpenCursor)
		var c *compiled
		if c, err = q.ensureCompiled(tx, ex.srcs); err == nil {
			_, err = ex.run(c, params, false, &ex.targets)
		}
	}
	if err != nil {
		ex.free()
		return nil, err
	}
	tx.Charge(model.CloseCursor)
	return ex, nil
}
