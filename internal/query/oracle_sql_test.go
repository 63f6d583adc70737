package query_test

import (
	"fmt"

	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/sqlparse"
	"github.com/stripdb/strip/internal/types"
)

func asSelect(stmt sqlparse.Stmt, err error) (*query.Select, error) {
	if err != nil {
		return nil, err
	}
	s, ok := stmt.(*sqlparse.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("statement %T is not a SELECT", stmt)
	}
	return s.Query, nil
}

// sqlparse imports package query, so only this external test package can
// hand the in-package tests a parser and a statement cache.
func init() {
	query.SetSQLFrontEnd(
		func(sql string) (*query.Select, error) { return asSelect(sqlparse.Parse(sql)) },
		func() func(string) (*query.Select, []types.Value, error) {
			cache := sqlparse.NewCache()
			return func(sql string) (*query.Select, []types.Value, error) {
				stmt, params, err := cache.Prepare(sql)
				sel, err := asSelect(stmt, err)
				return sel, params, err
			}
		},
		sqlparse.ParseCalls,
	)
}
