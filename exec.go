package strip

import (
	"fmt"

	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/retry"
	"github.com/stripdb/strip/internal/sqlparse"
)

// Result reports what a statement did.
type Result struct {
	// Rows holds select output (nil for non-queries).
	Rows [][]Value
	// Columns names select output columns.
	Columns []string
	// Affected counts rows changed by INSERT/UPDATE/DELETE.
	Affected int
}

// Exec executes one SQL statement. DML runs in its own transaction (firing
// rules at commit); DDL takes effect immediately. The text goes through the
// engine's statement cache: a SELECT, UPDATE or DELETE whose shape has run
// before — the same text up to its string and number literals — is not
// parsed or planned again.
//
// Supported statements: CREATE TABLE / CREATE INDEX / CREATE RULE (the
// paper's Figure 2 grammar) / DROP TABLE / DROP RULE / SELECT / INSERT /
// UPDATE / DELETE.
func (db *DB) Exec(sql string) (*Result, error) {
	stmt, params, err := db.stmts.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return collect(func(rows query.RowSink) (int, error) { return db.execStmt(stmt, params, rows) })
}

// collect runs one statement, keeping a query's rows in one value slab.
func collect(run func(query.RowSink) (int, error)) (*Result, error) {
	var rows query.RowSlice
	n, err := run(&rows)
	if err != nil {
		return nil, err
	}
	return &Result{Rows: rows.Rows(), Columns: rows.Cols, Affected: n}, nil
}

// execStmt executes one prepared statement with its parameters: a query
// hands its rows to rows, DML reports the rows it changed. Exec and the
// network server (which prepared the frame's text to classify it) both end
// here.
func (db *DB) execStmt(stmt sqlparse.Stmt, params []Value, rows query.RowSink) (int, error) {
	switch s := stmt.(type) {
	case *sqlparse.CreateTable:
		cols := make([]Column, len(s.Cols))
		for i, c := range s.Cols {
			cols[i] = Column{Name: c.Name, Type: c.Type}
		}
		return 0, db.CreateTable(s.Name, cols...)
	case *sqlparse.CreateIndex:
		return 0, db.CreateIndex(s.Table, s.Column, s.Kind)
	case *sqlparse.CreateRule:
		return 0, db.CreateRule(s.Rule)
	case *sqlparse.CreateView:
		_, err := db.CreateMaterializedView(s.Name, s.Query, ViewOptions{})
		return 0, err
	case *sqlparse.DropTable:
		return 0, db.DropTable(s.Name)
	case *sqlparse.DropRule:
		return 0, db.DropRule(s.Name)
	case *sqlparse.SelectStmt:
		tx := db.BeginReadOnly()
		defer tx.Commit() //nolint:errcheck
		return 0, s.Query.RunTo(tx, query.TxnResolver{}, params, rows)
	case *sqlparse.ExplainStmt:
		node, err := db.explainQuery(s.Query, nil)
		if err != nil {
			return 0, err
		}
		err = rows.Columns([]string{"plan"})
		for _, line := range node.Lines() {
			if err == nil {
				err = rows.Row([]Value{Str(line)})
			}
		}
		return 0, err
	case *sqlparse.InsertStmt, *sqlparse.UpdateStmt, *sqlparse.DeleteStmt:
		return db.runDML(func(tx *Txn) (int, error) { return dmlIn(tx, stmt, params) })
	default:
		return 0, fmt.Errorf("strip: unsupported statement %T", stmt)
	}
}

// dmlIn runs one prepared INSERT, UPDATE or DELETE inside tx.
func dmlIn(tx *Txn, stmt sqlparse.Stmt, params []Value) (int, error) {
	switch s := stmt.(type) {
	case *sqlparse.InsertStmt:
		return s.Stmt.Run(tx)
	case *sqlparse.UpdateStmt:
		return s.Stmt.RunParams(tx, params)
	case *sqlparse.DeleteStmt:
		return s.Stmt.RunParams(tx, params)
	default:
		return 0, fmt.Errorf("strip: statement %T is not DML", stmt)
	}
}

// Explain plans and executes a select in its own read-only snapshot
// transaction and renders the chosen physical plan — one line per
// operator, each with the planner's estimated rows and the actual rows
// the operator produced. Accepts "EXPLAIN SELECT ..." or a bare SELECT.
func (db *DB) Explain(sql string) (string, error) {
	stmt, params, err := db.stmts.Prepare(sql)
	if err != nil {
		return "", err
	}
	var sel *Select
	switch s := stmt.(type) {
	case *sqlparse.ExplainStmt:
		sel = s.Query
	case *sqlparse.SelectStmt:
		sel = s.Query
	default:
		return "", fmt.Errorf("strip: statement %T is not a SELECT", stmt)
	}
	node, err := db.explainQuery(sel, params)
	if err != nil {
		return "", err
	}
	return node.Format(), nil
}

// explainQuery runs sel with plan capture under a read-only snapshot.
func (db *DB) explainQuery(sel *Select, params []Value) (*query.PlanNode, error) {
	tx := db.BeginReadOnly()
	defer tx.Commit() //nolint:errcheck
	out, node, err := sel.RunExplain(tx, query.TxnResolver{}, params...)
	if err != nil {
		return nil, err
	}
	out.Retire()
	return node, nil
}

// runDML runs one DML statement in its own transaction. The statement is
// the whole transaction, so a transient concurrency abort (deadlock victim,
// lock-wait timeout) is retried under the engine's one retry policy, as a
// rule action's is; any other error, an exhausted policy, or Close starting
// surfaces to the caller.
func (db *DB) runDML(run func(*Txn) (int, error)) (int, error) {
	if db.closing.Load() {
		return 0, fmt.Errorf("strip: exec: %w", ErrShuttingDown)
	}
	if err := db.writable("exec"); err != nil {
		return 0, err
	}
	var n int
	err := retry.Default.Do(func(err error) bool { return IsRetryable(err) && !db.closing.Load() }, func() (err error) {
		n, err = db.tryDML(run)
		return err
	})
	return n, err
}

func (db *DB) tryDML(run func(*Txn) (int, error)) (int, error) {
	tx := db.Begin()
	n, err := run(tx)
	if err != nil {
		tx.Abort() //nolint:errcheck
		return 0, err
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	return n, nil
}

// MustExec is Exec that panics on error; for setup code and examples.
func (db *DB) MustExec(sql string) *Result {
	r, err := db.Exec(sql)
	if err != nil {
		panic(err)
	}
	return r
}

// ExecAction executes one INSERT/UPDATE/DELETE inside a rule action's
// transaction, returning the number of rows affected. Rule action
// functions use this to write SQL without depending on engine internals;
// the text goes through the statement cache, so a firing's statement is
// parsed the first time its shape is seen, not per firing.
func ExecAction(ctx *ActionContext, sql string) (int, error) { return ctx.Exec(sql) }

// QueryAction runs one SELECT inside a rule action's transaction, through
// the statement cache; the firing's bound tables shadow database tables of
// the same name, exactly as for programmatic ActionContext.Query.
func QueryAction(ctx *ActionContext, sql string) ([][]Value, []string, error) {
	var rows query.RowSlice
	if err := ctx.QuerySQL(sql, &rows); err != nil {
		return nil, nil, err
	}
	return rows.Rows(), rows.Cols, nil
}

// actionSQL is the engine's statement cache as rule actions use it
// (core.Statements).
type actionSQL struct{ stmts *sqlparse.Cache }

func (a actionSQL) ExecIn(tx *Txn, sql string) (int, error) {
	stmt, params, err := a.stmts.Prepare(sql)
	if err != nil {
		return 0, err
	}
	return dmlIn(tx, stmt, params)
}

func (a actionSQL) QueryIn(tx *Txn, res query.Resolver, sql string, rows query.RowSink) error {
	stmt, params, err := a.stmts.Prepare(sql)
	if err != nil {
		return err
	}
	s, ok := stmt.(*sqlparse.SelectStmt)
	if !ok {
		return fmt.Errorf("strip: statement %T is not a SELECT", stmt)
	}
	return s.Query.RunTo(tx, res, params, rows)
}

// ParseSelect parses a SELECT statement into its programmatic form, for
// APIs that take *Select (e.g. CreateMaterializedView). The query is the
// caller's own: it keeps its literals and is not shared through the
// statement cache.
func ParseSelect(sql string) (*Select, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	s, ok := stmt.(*sqlparse.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("strip: statement %T is not a SELECT", stmt)
	}
	return s.Query, nil
}

// ExecIn executes one DML statement or SELECT inside an existing
// transaction, letting callers group several statements into one triggering
// transaction. The text goes through the statement cache like Exec's.
func (db *DB) ExecIn(tx *Txn, sql string) (*Result, error) {
	stmt, params, err := db.stmts.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return collect(func(rows query.RowSink) (int, error) { return execStmtIn(tx, stmt, params, rows) })
}

// execStmtIn executes one prepared DML statement or SELECT inside tx, as
// execStmt does.
func execStmtIn(tx *Txn, stmt sqlparse.Stmt, params []Value, rows query.RowSink) (int, error) {
	switch s := stmt.(type) {
	case *sqlparse.SelectStmt:
		return 0, s.Query.RunTo(tx, query.TxnResolver{}, params, rows)
	case *sqlparse.InsertStmt, *sqlparse.UpdateStmt, *sqlparse.DeleteStmt:
		return dmlIn(tx, stmt, params)
	default:
		return 0, fmt.Errorf("strip: statement %T is not valid inside a transaction", stmt)
	}
}
