package query

import (
	"fmt"

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
// predicates may reference only the target table's columns.
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where []Pred
}

// Run executes the update, returning the number of rows changed.
func (s *UpdateStmt) Run(tx *txn.Txn) (int, error) {
	tx.Charge(tx.Model().StmtSetup)
	recs, srcs, err := collectTargets(tx, s.Table, s.Where)
	if err != nil {
		return 0, err
	}
	schema := srcs[0].schema
	setIdx := make([]int, len(s.Set))
	setExpr := make([]lowered, len(s.Set))
	for i, sc := range s.Set {
		if err := sc.Expr.resolve(srcs); err != nil {
			return 0, err
		}
		ci := schema.ColIndex(sc.Col)
		if ci < 0 {
			return 0, fmt.Errorf("query: table %s has no column %q", s.Table, sc.Col)
		}
		setIdx[i] = ci
		setExpr[i] = lower(sc.Expr, srcs)
	}
	cur := newCursors(srcs)
	for _, rec := range recs {
		cur[0].rec = rec
		vals := rec.Values()
		for i, sc := range s.Set {
			v, err := setExpr[i].eval(cur)
			if err != nil {
				return 0, err
			}
			if sc.AddTo {
				v, err = types.Add(vals[setIdx[i]], v)
				if err != nil {
					return 0, err
				}
			}
			vals[setIdx[i]] = v
		}
		if _, err := tx.Update(s.Table, rec, vals); err != nil {
			return 0, err
		}
	}
	return len(recs), nil
}

// DeleteStmt is `DELETE FROM table WHERE ...`.
type DeleteStmt struct {
	Table string
	Where []Pred
}

// Run executes the delete, returning the number of rows removed.
func (s *DeleteStmt) Run(tx *txn.Txn) (int, error) {
	tx.Charge(tx.Model().StmtSetup)
	recs, _, err := collectTargets(tx, s.Table, s.Where)
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

// collectTargets gathers the records matching the WHERE clause before any
// mutation (a statement must not observe its own writes mid-scan). Indexed
// probes take the table's IX intent plus X locks on just the probed rows, so
// statements targeting different rows of one table run in parallel;
// scan-driven statements escalate to a full table X up front.
func collectTargets(tx *txn.Txn, table string, where []Pred) ([]*storage.Record, []*source, error) {
	model := tx.Model()
	tbl, err := tx.WriteIntent(table)
	if err != nil {
		return nil, nil, err
	}
	src := &source{name: table, schema: tbl.Schema(), tbl: tbl}
	srcs := []*source{src}
	for i := range where {
		if err := where[i].resolve(srcs); err != nil {
			return nil, nil, err
		}
	}

	// Use an index when a predicate is `indexedCol = const`.
	var probeCol string
	var probeVal types.Value
	residual := where
	for i, p := range where {
		cr, val, ok := constEq(p)
		if ok && tbl.HasIndex(cr.Col) {
			probeCol, probeVal = cr.Col, val
			residual = append(append([]Pred{}, where[:i]...), where[i+1:]...)
			break
		}
	}

	var recs []*storage.Record
	filter := lowerPreds(residual, srcs)
	cur := newCursors(srcs)
	match := func(r *storage.Record) (bool, error) {
		cur[0].rec = r
		return allHold(filter, cur)
	}

	tx.Charge(model.OpenCursor)
	if probeCol != "" {
		tx.Charge(model.IndexProbe)
		candidates, err := lockedWriteLookup(tx, table, tbl, probeCol, probeVal)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range candidates {
			tx.Charge(model.FetchCursor)
			ok, err := match(r)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				recs = append(recs, r)
			}
		}
	} else {
		// No usable index: the statement reads the whole table to decide
		// its targets, so take the full X (write-side escalation).
		if _, err := tx.WriteTable(table); err != nil {
			return nil, nil, err
		}
		var scanErr error
		tbl.Scan(func(r *storage.Record) bool {
			tx.Charge(model.ScanRow)
			ok, err := match(r)
			if err != nil {
				scanErr = err
				return false
			}
			if ok {
				recs = append(recs, r)
			}
			return true
		})
		if scanErr != nil {
			return nil, nil, scanErr
		}
	}
	tx.Charge(model.CloseCursor)
	return recs, srcs, nil
}

// lockedWriteLookup probes the index and X-locks the rows it returns,
// retrying when a row was replaced while the lock request waited (the
// replacement keeps the lock ID, so the retry's re-probe is already
// covered). Persistent churn escalates to a full table X.
func lockedWriteLookup(tx *txn.Txn, name string, tbl *storage.Table, col string, v types.Value) ([]*storage.Record, error) {
	const maxAttempts = 3
	for attempt := 0; attempt < maxAttempts; attempt++ {
		recs, _ := tbl.IndexLookup(col, v)
		out := recs[:0]
		stale := false
		for _, r := range recs {
			if err := tx.LockRecordExclusive(name, r.ID()); err != nil {
				return nil, err
			}
			if !r.Live() {
				stale = true
				break
			}
			out = append(out, r)
		}
		if !stale {
			return out, nil
		}
	}
	if _, err := tx.WriteTable(name); err != nil {
		return nil, err
	}
	recs, _ := tbl.IndexLookup(col, v)
	return recs, nil
}

// constEq recognizes `col = literal` (either side).
func constEq(p Pred) (*ColRef, types.Value, bool) {
	if p.Op != EQ {
		return nil, types.Null(), false
	}
	if cr, ok := p.Left.(*ColRef); ok {
		if c, ok2 := p.Right.(*ConstExpr); ok2 {
			return cr, c.Val, true
		}
	}
	if cr, ok := p.Right.(*ColRef); ok {
		if c, ok2 := p.Left.(*ConstExpr); ok2 {
			return cr, c.Val, true
		}
	}
	return nil, types.Null(), false
}
